package mat

import "math"

// Exp returns the matrix exponential e^A of a square matrix, computed by
// scaling-and-squaring with a 6th-order diagonal Padé approximant: A is
// scaled by 2^-s until its infinity norm is at most 1/2, the approximant
// r(A) = p(A)/p(-A) is evaluated, and the result is squared s times. For
// the small, well-conditioned generator matrices of the thermal propagator
// (‖A‖ ≪ 1 after scaling) the approximant is accurate to machine precision.
// a is not modified.
func Exp(a *Dense) (*Dense, error) {
	if a.rows != a.cols {
		return nil, ErrShape
	}
	n := a.rows

	// Infinity norm → scaling exponent s with ‖A/2^s‖∞ ≤ 1/2.
	var norm float64
	for i := 0; i < n; i++ {
		var s float64
		for _, v := range a.Row(i) {
			s += math.Abs(v)
		}
		if s > norm {
			norm = s
		}
	}
	s := 0
	if norm > 0.5 {
		s = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	b := a.Clone()
	if s > 0 {
		scale := math.Ldexp(1, -s)
		for i := range b.data {
			b.data[i] *= scale
		}
	}

	// Padé(6,6): p(x) = Σ c_k x^k, r(B) = p(B)·p(−B)⁻¹.
	c := [7]float64{1, 1.0 / 2, 5.0 / 44, 1.0 / 66, 1.0 / 792, 1.0 / 15840, 1.0 / 665280}
	b2, _ := Mul(b, b)
	b4, _ := Mul(b2, b2)
	// U = B·(c1·I + c3·B² + c5·B⁴), V = c0·I + c2·B² + c4·B⁴ + c6·B⁶.
	inner := NewDense(n, n)
	for i := range inner.data {
		inner.data[i] = c[3]*b2.data[i] + c[5]*b4.data[i]
	}
	for i := 0; i < n; i++ {
		inner.data[i*n+i] += c[1]
	}
	u, _ := Mul(b, inner)
	b6, _ := Mul(b4, b2)
	v := NewDense(n, n)
	for i := range v.data {
		v.data[i] = c[2]*b2.data[i] + c[4]*b4.data[i] + c[6]*b6.data[i]
	}
	for i := 0; i < n; i++ {
		v.data[i*n+i] += c[0]
	}

	// r(B) solves (V−U)·X = (V+U), column by column.
	num := NewDense(n, n)
	den := NewDense(n, n)
	for i := range v.data {
		num.data[i] = v.data[i] + u.data[i]
		den.data[i] = v.data[i] - u.data[i]
	}
	x := NewDense(n, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			col[i] = num.data[i*n+j]
		}
		sol, err := Solve(den, col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			x.data[i*n+j] = sol[i]
		}
	}

	for k := 0; k < s; k++ {
		x, _ = Mul(x, x)
	}
	return x, nil
}

// MulAddVec computes out = a·x + b·y + u*s + v for one n-vector column:
// the fused dense advance of a linear time-invariant step, which is how
// the thermal propagator applies e^(AΔt) to its state and power vectors.
// out must not alias x or y. Slices may be longer than required; only the
// leading n (n×n for a and b) elements are read.
func MulAddVec(n int, a, b, u, v []float64, s float64, x, y, out []float64) {
	for i := 0; i < n; i++ {
		ar := a[i*n : i*n+n : i*n+n]
		br := b[i*n : i*n+n : i*n+n]
		// Four independent accumulators break the floating-point add
		// dependency chain; single-column advances are latency-bound.
		// Keep the expression shapes as they are: compilers fuse a*x + b*y
		// per expression (FMA on arm64), so a reshaped expression rounds
		// differently and shifts every pinned trajectory.
		s0 := u[i]*s + v[i]
		var s1, s2, s3 float64
		j := 0
		for ; j+3 < n; j += 4 {
			s0 += ar[j]*x[j] + br[j]*y[j]
			s1 += ar[j+1]*x[j+1] + br[j+1]*y[j+1]
			s2 += ar[j+2]*x[j+2] + br[j+2]*y[j+2]
			s3 += ar[j+3]*x[j+3] + br[j+3]*y[j+3]
		}
		for ; j < n; j++ {
			s0 += ar[j]*x[j] + br[j]*y[j]
		}
		out[i] = (s0 + s1) + (s2 + s3)
	}
}
