package tree

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ml"
)

func TestFitsPiecewiseConstant(t *testing.T) {
	d := ml.NewDataset("x")
	for i := 0; i < 200; i++ {
		x := float64(i) / 200
		y := 10.0
		if x > 0.5 {
			y = 20
		}
		d.Add([]float64{x}, y)
	}
	m := New(1)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{0.25}); math.Abs(p-10) > 0.01 {
		t.Fatalf("Predict(0.25) = %v want 10", p)
	}
	if p := m.Predict([]float64{0.75}); math.Abs(p-20) > 0.01 {
		t.Fatalf("Predict(0.75) = %v want 20", p)
	}
}

func TestMultiDimensionalSplit(t *testing.T) {
	// y depends only on the second attribute; the tree must find it.
	rng := rand.New(rand.NewSource(1))
	d := ml.NewDataset("noise", "signal")
	for i := 0; i < 400; i++ {
		noise := rng.Float64()
		sig := rng.Float64()
		y := 5.0
		if sig > 0.6 {
			y = 15
		}
		d.Add([]float64{noise, sig}, y)
	}
	m := New(2)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{0.1, 0.9}); math.Abs(p-15) > 1 {
		t.Fatalf("Predict = %v want ≈15", p)
	}
	if p := m.Predict([]float64{0.9, 0.1}); math.Abs(p-5) > 1 {
		t.Fatalf("Predict = %v want ≈5", p)
	}
}

func TestPruningShrinksNoisyTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := ml.NewDataset("x")
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		d.Add([]float64{x}, 3+rng.NormFloat64()) // pure noise around 3
	}
	pruned := New(3)
	if err := pruned.Fit(d); err != nil {
		t.Fatal(err)
	}
	unpruned := New(3)
	unpruned.PruneFolds = 1 // disables pruning
	if err := unpruned.Fit(d); err != nil {
		t.Fatal(err)
	}
	if pruned.NumNodes() >= unpruned.NumNodes() {
		t.Fatalf("pruning did not shrink the tree: %d vs %d nodes",
			pruned.NumNodes(), unpruned.NumNodes())
	}
	// On pure noise the pruned tree should be close to a stump.
	if pruned.NumNodes() > unpruned.NumNodes()/4 {
		t.Fatalf("pruned tree still large on pure noise: %d nodes (unpruned %d)",
			pruned.NumNodes(), unpruned.NumNodes())
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := ml.NewDataset("x")
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		d.Add([]float64{x}, math.Sin(10*x))
	}
	m := New(4)
	m.MaxDepth = 3
	m.PruneFolds = 1
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := m.Depth(); got > 4 { // depth counts nodes on the path, so limit+1
		t.Fatalf("Depth = %d exceeds MaxDepth", got)
	}
}

func TestMinInstancesRespected(t *testing.T) {
	d := ml.NewDataset("x")
	for i := 0; i < 20; i++ {
		d.Add([]float64{float64(i)}, float64(i%2)*10)
	}
	m := New(5)
	m.MinInstances = 10
	m.PruneFolds = 1
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() > 3 {
		t.Fatalf("MinInstances=10 on 20 rows allows at most one split, got %d nodes", m.NumNodes())
	}
}

func TestSingleInstance(t *testing.T) {
	d := ml.NewDataset("x")
	d.Add([]float64{1}, 5)
	m := New(6)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{99}); p != 5 {
		t.Fatalf("Predict = %v want 5", p)
	}
}

func TestConstantTarget(t *testing.T) {
	d := ml.NewDataset("x")
	for i := 0; i < 50; i++ {
		d.Add([]float64{float64(i)}, 7)
	}
	m := New(7)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 1 {
		t.Fatalf("constant target should give a stump, got %d nodes", m.NumNodes())
	}
	if p := m.Predict([]float64{25}); p != 7 {
		t.Fatalf("Predict = %v want 7", p)
	}
}

func TestDuplicateFeatureValuesNoSplit(t *testing.T) {
	d := ml.NewDataset("x")
	for i := 0; i < 50; i++ {
		d.Add([]float64{1}, float64(i)) // identical features, varied target
	}
	m := New(8)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 1 {
		t.Fatalf("identical features cannot be split, got %d nodes", m.NumNodes())
	}
}

func TestEmptyDataset(t *testing.T) {
	if err := New(1).Fit(ml.NewDataset("x")); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Predict([]float64{1})
}

func TestDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := ml.NewDataset("a", "b")
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d.Add(x, x[0]*10+rng.NormFloat64())
	}
	a, b := New(5), New(5)
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same-seed trees diverge")
		}
	}
}

func TestName(t *testing.T) {
	if New(1).Name() != "REPTree" {
		t.Fatalf("Name = %q", New(1).Name())
	}
}

// Property: predictions always lie within the training target range.
func TestPredictionRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := ml.NewDataset("a", "b")
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64() * 100, rng.Float64() * 10}
		y := x[0] - 3*x[1] + rng.NormFloat64()*5
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
		d.Add(x, y)
	}
	m := New(11)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		x := []float64{math.Mod(math.Abs(a), 200) - 50, math.Mod(math.Abs(b), 20) - 5}
		p := m.Predict(x)
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a deeper tree (no pruning) never increases training error on
// clean (noise-free) data versus a pruned one.
func TestTrainingErrorImprovesWithGrowthProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := ml.NewDataset("x")
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 10
		d.Add([]float64{x}, math.Floor(x)) // staircase, perfectly learnable
	}
	full := New(12)
	full.PruneFolds = 1
	if err := full.Fit(d); err != nil {
		t.Fatal(err)
	}
	var mae float64
	for i := range d.X {
		mae += math.Abs(full.Predict(d.X[i]) - d.Y[i])
	}
	mae /= float64(d.Len())
	if mae > 0.01 {
		t.Fatalf("unpruned tree should nail a staircase: MAE = %v", mae)
	}
}

func TestAccuracyBeatsLinearOnStepData(t *testing.T) {
	// A step function is trivially captured by a tree but poorly by a line —
	// the qualitative reason REPTree/M5P beat LinearRegression in Figure 3.
	rng := rand.New(rand.NewSource(12))
	d := ml.NewDataset("x")
	for i := 0; i < 600; i++ {
		x := rng.Float64()
		y := 30.0
		if x > 0.3 {
			y = 36
		}
		if x > 0.7 {
			y = 43
		}
		d.Add([]float64{x}, y+rng.NormFloat64()*0.1)
	}
	expT, predT, err := ml.CrossValidate(func() ml.Regressor { return New(13) }, d, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rmse := ml.RMSE(expT, predT); rmse > 0.5 {
		t.Fatalf("tree RMSE on step data = %v want < 0.5", rmse)
	}
}

func TestFitRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, y float64
	}{
		{"NaN feature", math.NaN(), 1},
		{"+Inf feature", math.Inf(1), 1},
		{"-Inf feature", math.Inf(-1), 1},
		{"NaN target", 0.5, math.NaN()},
		{"+Inf target", 0.5, math.Inf(1)},
		{"-Inf target", 0.5, math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := ml.NewDataset("a", "b")
			for i := 0; i < 100; i++ {
				d.Add([]float64{float64(i), float64(i % 7)}, float64(i%3))
			}
			d.X[40][1], d.Y[40] = tc.x, tc.y
			if err := New(1).Fit(d); !errors.Is(err, ml.ErrNonFinite) {
				t.Fatalf("Fit = %v, want ErrNonFinite", err)
			}
		})
	}
}

func TestFitRejectsMalformedDataset(t *testing.T) {
	for name, d := range map[string]*ml.Dataset{
		"ragged row":    {AttrNames: []string{"a", "b"}, X: [][]float64{{1, 2}, {3}}, Y: []float64{1, 2}},
		"short targets": {AttrNames: []string{"a"}, X: [][]float64{{1}, {3}}, Y: []float64{1}},
	} {
		if err := New(1).Fit(d); err == nil {
			t.Errorf("%s: Fit accepted it", name)
		}
	}
}

func TestUnmarshalRejectsMalformedNodes(t *testing.T) {
	for _, tc := range []struct{ name, doc string }{
		{"negative attribute", `{"root":{"attr":-1,"thr":1,"leaf":false,"v":0,"l":{"v":1,"leaf":true},"r":{"v":2,"leaf":true}}}`},
		{"missing child", `{"root":{"attr":0,"thr":1,"leaf":false,"v":0,"l":{"v":1,"leaf":true}}}`},
		{"no root", `{"min_instances":2}`},
		{"null", `null`},
		{"overflowing threshold", `{"root":{"attr":0,"thr":1e999,"leaf":false,"v":0,"l":{"v":1,"leaf":true},"r":{"v":2,"leaf":true}}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m Model
			if err := json.Unmarshal([]byte(tc.doc), &m); err == nil {
				t.Fatalf("accepted %s", tc.doc)
			}
		})
	}
	m := &Model{root: &node{attr: 0, threshold: math.NaN(), left: &node{leaf: true}, right: &node{leaf: true}}}
	if _, err := fromJSONNode(toJSONNode(m.root)); err == nil {
		t.Fatal("accepted a NaN threshold")
	}
	m.root = &node{leaf: true, value: math.Inf(-1)}
	if _, err := fromJSONNode(toJSONNode(m.root)); err == nil {
		t.Fatal("accepted an infinite leaf value")
	}
}

func TestMaxAttr(t *testing.T) {
	var m Model
	if got := m.MaxAttr(); got != -1 {
		t.Fatalf("unfitted MaxAttr = %d, want -1", got)
	}
	d := ml.NewDataset("noise", "signal", "unused")
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		sig := rng.Float64()
		d.Add([]float64{rng.Float64(), sig, 0}, math.Floor(sig*4))
	}
	fitted := New(1)
	if err := fitted.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := fitted.MaxAttr(); got != 1 {
		t.Fatalf("MaxAttr = %d, want 1 (the constant third column never splits)", got)
	}
}

// ReferenceFit fits m with the pre-presort grower: the same hold-out and
// pruning as Fit, but each node copies its instances and stable-sorts them
// per attribute, summing split statistics in that order. Fit must produce
// the same tree byte for byte. Exported for the external tree_test
// package.
func ReferenceFit(m *Model, d *ml.Dataset) {
	minInst, folds := m.settings()
	growIdx, pruneIdx := holdOut(d.Len(), folds, m.Seed)
	g := &refGrower{d: d, minInst: minInst, maxDepth: m.MaxDepth}
	m.root = g.grow(growIdx, 0)
	if len(pruneIdx) > 0 {
		pruneREP(m.root, d, pruneIdx)
	}
}

type refGrower struct {
	d        *ml.Dataset
	minInst  int
	maxDepth int
}

func (g *refGrower) grow(idx []int, depth int) *node {
	var s float64
	for _, i := range idx {
		s += g.d.Y[i]
	}
	nd := &node{value: s / float64(len(idx)), n: len(idx), leaf: true}
	if len(idx) < 2*g.minInst {
		return nd
	}
	if g.maxDepth > 0 && depth >= g.maxDepth {
		return nd
	}
	attr, thr, ok := g.bestSplit(idx)
	if !ok {
		return nd
	}
	var left, right []int
	for _, i := range idx {
		if g.d.X[i][attr] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < g.minInst || len(right) < g.minInst {
		return nd
	}
	nd.leaf = false
	nd.attr = attr
	nd.threshold = thr
	nd.left = g.grow(left, depth+1)
	nd.right = g.grow(right, depth+1)
	return nd
}

func (g *refGrower) bestSplit(idx []int) (attr int, threshold float64, ok bool) {
	bestSSE := math.Inf(1)
	n := len(idx)
	order := make([]int, n)
	for a := 0; a < g.d.NumAttrs(); a++ {
		copy(order, idx)
		sort.SliceStable(order, func(i, j int) bool { return g.d.X[order[i]][a] < g.d.X[order[j]][a] })
		var sumAll, sumSqAll float64
		for _, i := range order {
			sumAll += g.d.Y[i]
			sumSqAll += g.d.Y[i] * g.d.Y[i]
		}
		var sumL, sumSqL float64
		for p := 0; p < n-1; p++ {
			y := g.d.Y[order[p]]
			sumL += y
			sumSqL += y * y
			xCur := g.d.X[order[p]][a]
			xNext := g.d.X[order[p+1]][a]
			if xCur == xNext {
				continue
			}
			if p+1 < g.minInst || n-p-1 < g.minInst {
				continue
			}
			nl := float64(p + 1)
			nr := float64(n - p - 1)
			sumR := sumAll - sumL
			sumSqR := sumSqAll - sumSqL
			sse := (sumSqL - sumL*sumL/nl) + (sumSqR - sumR*sumR/nr)
			if sse < bestSSE {
				bestSSE = sse
				attr = a
				threshold = (xCur + xNext) / 2
				ok = true
			}
		}
	}
	return attr, threshold, ok
}

// AssertMatchesReference fits m and a copy of it with ReferenceFit at
// GOMAXPROCS 1 and 4 (so subtrees of large nodes fork) and fails unless
// all the serialized trees are identical.
func AssertMatchesReference(t *testing.T, m Model, d *ml.Dataset) {
	t.Helper()
	ref := m
	ReferenceFit(&ref, d)
	want, err := json.Marshal(&ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := m
		err := got.Fit(d)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("GOMAXPROCS=%d: presorted tree (%d nodes) differs from the stable-sort reference (%d nodes)",
				procs, got.NumNodes(), ref.NumNodes())
		}
	}
}

// tieDataset draws n rows built for tie-order sensitivity: quantized
// features with many equal values, a second column ("banded") that induces
// the same partitions as "coarse" at its level boundaries but orders rows
// differently inside a level, a constant column and exact duplicate rows.
// Targets keep full precision, so equivalent splits differ only by the
// rounding of sums taken in different orders: summing a node's ties in any
// order but the stable one flips some of them.
func tieDataset(seed int64, n int) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := ml.NewDataset("coarse", "banded", "fine", "const", "dup")
	for d.Len() < n {
		coarse := float64(rng.Intn(5))
		banded := coarse*10 + float64(rng.Intn(4))
		fine := math.Round(rng.Float64()*40) / 8
		dup := float64(rng.Intn(3)) * 0.1
		x := []float64{coarse, banded, fine, 7, dup}
		y := coarse*2 + fine + rng.NormFloat64()
		d.Add(x, y)
		if rng.Intn(4) == 0 { // exact duplicate row
			d.Add(slices.Clone(x), y)
		}
	}
	return d
}

func TestPresortedMatchesStableReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := tieDataset(seed, 2500)
		for _, mi := range []int{1, 2, 5} {
			for _, folds := range []int{1, 3} {
				for _, depth := range []int{0, 6} {
					m := Model{MinInstances: mi, PruneFolds: folds, MaxDepth: depth, Seed: seed}
					t.Run(fmt.Sprintf("seed%d/min%d/folds%d/depth%d", seed, mi, folds, depth), func(t *testing.T) {
						AssertMatchesReference(t, m, d)
					})
				}
			}
		}
	}
}
