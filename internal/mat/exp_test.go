package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestExpIdentityAndZero(t *testing.T) {
	z := NewDense(3, 3)
	e, err := Exp(z)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(e.At(i, j)-want) > 1e-15 {
				t.Fatalf("exp(0)[%d][%d] = %v want %v", i, j, e.At(i, j), want)
			}
		}
	}
}

func TestExpDiagonal(t *testing.T) {
	d := NewDense(3, 3)
	vals := []float64{-2.5, 0.3, 1.7}
	for i, v := range vals {
		d.Set(i, i, v)
	}
	e, err := Exp(d)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.Abs(e.At(i, i)-math.Exp(v)) > 1e-12*math.Exp(v) {
			t.Fatalf("exp(diag)[%d] = %v want %v", i, e.At(i, i), math.Exp(v))
		}
	}
}

func TestExpNilpotent(t *testing.T) {
	// For strictly upper-triangular N with N² = 0: exp(N) = I + N.
	m := NewDense(2, 2)
	m.Set(0, 1, 3.25)
	e, err := Exp(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.At(0, 0)-1) > 1e-14 || math.Abs(e.At(1, 1)-1) > 1e-14 ||
		math.Abs(e.At(0, 1)-3.25) > 1e-13 || math.Abs(e.At(1, 0)) > 1e-14 {
		t.Fatalf("exp(nilpotent) = %v", e.data)
	}
}

func TestExpRotation(t *testing.T) {
	// exp([[0,-θ],[θ,0]]) is the rotation matrix by θ.
	theta := 1.1
	m := NewDense(2, 2)
	m.Set(0, 1, -theta)
	m.Set(1, 0, theta)
	e, err := Exp(m)
	if err != nil {
		t.Fatal(err)
	}
	c, s := math.Cos(theta), math.Sin(theta)
	want := [][]float64{{c, -s}, {s, c}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(e.At(i, j)-want[i][j]) > 1e-12 {
				t.Fatalf("rotation exp[%d][%d] = %v want %v", i, j, e.At(i, j), want[i][j])
			}
		}
	}
}

func TestExpAdditionPropertyRandom(t *testing.T) {
	// exp(2X) = exp(X)·exp(X) exercises scaling-and-squaring consistency,
	// including norms above the scaling threshold.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(5)
		x := NewDense(n, n)
		for i := range x.data {
			x.data[i] = (rng.Float64() - 0.5) * 2
		}
		x2 := x.Clone()
		for i := range x2.data {
			x2.data[i] *= 2
		}
		e2, err := Exp(x2)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Exp(x)
		if err != nil {
			t.Fatal(err)
		}
		ee, _ := Mul(e, e)
		for i := range ee.data {
			if diff := math.Abs(ee.data[i] - e2.data[i]); diff > 1e-9*(1+math.Abs(e2.data[i])) {
				t.Fatalf("trial %d: exp(2X) vs exp(X)² differ by %v at %d", trial, diff, i)
			}
		}
	}
}

func TestExpRejectsNonSquare(t *testing.T) {
	if _, err := Exp(NewDense(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

// refAdvance is an order-naive reference of the fused map out = a·x + b·y +
// u*s + v, used only to pin MulAddVec's value to within rounding slack.
func refAdvance(n int, a, b, u, v []float64, s float64, x, y []float64) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		acc := u[i]*s + v[i]
		for j := 0; j < n; j++ {
			acc += a[i*n+j]*x[j] + b[i*n+j]*y[j]
		}
		out[i] = acc
	}
	return out
}

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 50
	}
	return out
}

// TestMulAddVecMatchesReference checks the 4-accumulator kernel against the
// naive sum within rounding tolerance across sizes (including the n = 8
// phone case and the j-tail sizes around it).
func TestMulAddVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13} {
		a, b := randSlice(rng, n*n), randSlice(rng, n*n)
		u, v := randSlice(rng, n), randSlice(rng, n)
		x, y := randSlice(rng, n), randSlice(rng, n)
		s := rng.NormFloat64()
		out := make([]float64, n)
		MulAddVec(n, a, b, u, v, s, x, y, out)
		want := refAdvance(n, a, b, u, v, s, x, y)
		for i := range out {
			if d := math.Abs(out[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d out[%d] = %v, reference %v (Δ %g)", n, i, out[i], want[i], d)
			}
		}
	}
}
