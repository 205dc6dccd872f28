// Package m5p implements the M5' model tree (Quinlan's M5 as refined by
// Wang & Witten), the second-best candidate in the paper's Figure 3 and the
// most accurate once sub-1 °C differences are ignored. The tree is grown by
// standard-deviation reduction (SDR), every node receives a linear model,
// pruning collapses subtrees whose complexity-compensated error estimate is
// no better than their node's linear model, and predictions are smoothed up
// the path with the classic (n·p + k·q)/(n + k) rule.
//
// Simplification relative to WEKA: node linear models use all attributes
// (no greedy attribute elimination). On the low-dimensional feature tuple
// used here (four features) elimination changes accuracy negligibly.
package m5p

import (
	"math"

	"repro/internal/mat"
	"repro/internal/ml"
)

// Model is an M5P model-tree regressor.
type Model struct {
	// MinInstances is the minimum leaf size (default 4, as in M5').
	MinInstances int
	// SmoothingK is the smoothing constant (default 15; set Unsmoothed to
	// bypass smoothing entirely).
	SmoothingK float64
	// Unsmoothed disables path smoothing (WEKA's -U).
	Unsmoothed bool
	// SDRStopRatio stops splitting when a node's target standard deviation
	// falls below this fraction of the root's (default 0.05).
	SDRStopRatio float64

	root     *node
	numAttrs int
}

var _ ml.Regressor = (*Model)(nil)

type node struct {
	attr      int
	threshold float64
	left      *node
	right     *node
	lm        []float64 // [intercept, coef...]; fitted at every node
	n         int
	leaf      bool
}

// New returns an M5P model with the standard defaults.
func New() *Model {
	return &Model{MinInstances: 4, SmoothingK: 15, SDRStopRatio: 0.05}
}

// Name implements ml.Regressor.
func (m *Model) Name() string { return "M5P" }

// Fit implements ml.Regressor.
func (m *Model) Fit(d *ml.Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	minInst := m.MinInstances
	if minInst < 1 {
		minInst = 4
	}
	stop := m.SDRStopRatio
	if stop <= 0 {
		stop = 0.05
	}
	m.numAttrs = d.NumAttrs()

	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	rootSD := sdOf(d, idx)
	b := &builder{d: d, minInst: minInst, sdFloor: rootSD * stop}
	m.root = b.grow(idx)
	b.fitModels(m.root, idx)
	b.prune(m.root, idx)
	return nil
}

type builder struct {
	d       *ml.Dataset
	minInst int
	sdFloor float64
}

func sdOf(d *ml.Dataset, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, i := range idx {
		sum += d.Y[i]
		sumSq += d.Y[i] * d.Y[i]
	}
	n := float64(len(idx))
	v := sumSq/n - (sum/n)*(sum/n)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

func (b *builder) grow(idx []int) *node {
	nd := &node{n: len(idx), leaf: true}
	if len(idx) < 2*b.minInst || sdOf(b.d, idx) <= b.sdFloor {
		return nd
	}
	attr, thr, ok := b.bestSDRSplit(idx)
	if !ok {
		return nd
	}
	var left, right []int
	for _, i := range idx {
		if b.d.X[i][attr] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.minInst || len(right) < b.minInst {
		return nd
	}
	nd.leaf = false
	nd.attr = attr
	nd.threshold = thr
	nd.left = b.grow(left)
	nd.right = b.grow(right)
	return nd
}

// bestSDRSplit maximizes sd(parent) − Σ |child|/|parent| · sd(child), which
// is equivalent to minimizing Σ n_c·sd(child); we minimize the weighted
// child SD sum via a prefix-sum sweep.
func (b *builder) bestSDRSplit(idx []int) (attr int, threshold float64, ok bool) {
	best := math.Inf(1)
	n := len(idx)
	order := make([]int, n)
	for a := 0; a < b.d.NumAttrs(); a++ {
		copy(order, idx)
		sortByAttr(order, b.d, a)
		var sumAll, sumSqAll float64
		for _, i := range order {
			sumAll += b.d.Y[i]
			sumSqAll += b.d.Y[i] * b.d.Y[i]
		}
		var sumL, sumSqL float64
		for p := 0; p < n-1; p++ {
			y := b.d.Y[order[p]]
			sumL += y
			sumSqL += y * y
			xCur := b.d.X[order[p]][a]
			xNext := b.d.X[order[p+1]][a]
			if xCur == xNext {
				continue
			}
			nl := float64(p + 1)
			nr := float64(n - p - 1)
			if p+1 < b.minInst || n-p-1 < b.minInst {
				continue
			}
			varL := sumSqL/nl - (sumL/nl)*(sumL/nl)
			sumR := sumAll - sumL
			sumSqR := sumSqAll - sumSqL
			varR := sumSqR/nr - (sumR/nr)*(sumR/nr)
			if varL < 0 {
				varL = 0
			}
			if varR < 0 {
				varR = 0
			}
			score := nl*math.Sqrt(varL) + nr*math.Sqrt(varR)
			if score < best {
				best = score
				attr = a
				threshold = (xCur + xNext) / 2
				ok = true
			}
		}
	}
	return attr, threshold, ok
}

func sortByAttr(order []int, d *ml.Dataset, a int) {
	if len(order) < 2 {
		return
	}
	quickSort(order, func(i, j int) bool { return d.X[i][a] < d.X[j][a] })
}

func quickSort(idx []int, less func(a, b int) bool) {
	if len(idx) < 12 {
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		return
	}
	pivot := idx[len(idx)/2]
	lo, hi := 0, len(idx)-1
	for lo <= hi {
		for less(idx[lo], pivot) {
			lo++
		}
		for less(pivot, idx[hi]) {
			hi--
		}
		if lo <= hi {
			idx[lo], idx[hi] = idx[hi], idx[lo]
			lo++
			hi--
		}
	}
	quickSort(idx[:hi+1], less)
	quickSort(idx[lo:], less)
}

// fitModels fits a ridge-stabilized linear model at every node.
func (b *builder) fitModels(nd *node, idx []int) {
	nd.lm = b.fitLM(idx)
	if nd.leaf {
		return
	}
	var left, right []int
	for _, i := range idx {
		if b.d.X[i][nd.attr] <= nd.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	b.fitModels(nd.left, left)
	b.fitModels(nd.right, right)
}

func (b *builder) fitLM(idx []int) []float64 {
	cols := b.d.NumAttrs() + 1
	if len(idx) == 0 {
		return make([]float64, cols)
	}
	a := mat.NewDense(len(idx), cols)
	y := make([]float64, len(idx))
	for r, i := range idx {
		row := a.Row(r)
		row[0] = 1
		copy(row[1:], b.d.X[i])
		y[r] = b.d.Y[i]
	}
	w, err := mat.LeastSquares(a, y, 1e-8)
	if err != nil {
		// Degenerate node: fall back to the mean.
		w = make([]float64, cols)
		var s float64
		for _, i := range idx {
			s += b.d.Y[i]
		}
		w[0] = s / float64(len(idx))
	}
	return w
}

func evalLM(lm []float64, x []float64) float64 {
	y := lm[0]
	for i, v := range x {
		y += lm[i+1] * v
	}
	return y
}

// prune collapses subtrees whose complexity-compensated linear-model error
// is no worse than the subtree's, using Quinlan's (n+v)/(n−v) factor. It
// returns the node's final error estimate.
func (b *builder) prune(nd *node, idx []int) float64 {
	leafErr := b.estimatedError(nd.lm, idx)
	if nd.leaf {
		return leafErr
	}
	var left, right []int
	for _, i := range idx {
		if b.d.X[i][nd.attr] <= nd.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	subErr := (b.prune(nd.left, left)*float64(len(left)) +
		b.prune(nd.right, right)*float64(len(right))) / float64(len(idx))
	if leafErr <= subErr {
		nd.leaf = true
		nd.left, nd.right = nil, nil
		return leafErr
	}
	return subErr
}

func (b *builder) estimatedError(lm []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var mae float64
	for _, i := range idx {
		mae += math.Abs(b.d.Y[i] - evalLM(lm, b.d.X[i]))
	}
	mae /= float64(len(idx))
	n := float64(len(idx))
	v := float64(len(lm))
	if n <= v {
		return mae * 10 // tiny node: strongly discourage keeping it
	}
	return mae * (n + v) / (n - v)
}

// Predict implements ml.Regressor.
func (m *Model) Predict(x []float64) float64 {
	if m.root == nil {
		panic("m5p: Predict before Fit")
	}
	if m.Unsmoothed {
		nd := m.root
		for !nd.leaf {
			if x[nd.attr] <= nd.threshold {
				nd = nd.left
			} else {
				nd = nd.right
			}
		}
		return evalLM(nd.lm, x)
	}
	return m.smoothedPredict(m.root, x)
}

// smoothedPredict implements the M5 smoothing rule: the value coming up
// from the child is blended with the current node's model as
// (n_child·p + k·q)/(n_child + k).
func (m *Model) smoothedPredict(nd *node, x []float64) float64 {
	if nd.leaf {
		return evalLM(nd.lm, x)
	}
	child := nd.left
	if x[nd.attr] > nd.threshold {
		child = nd.right
	}
	p := m.smoothedPredict(child, x)
	k := m.SmoothingK
	if k <= 0 {
		return p
	}
	q := evalLM(nd.lm, x)
	n := float64(child.n)
	return (n*p + k*q) / (n + k)
}

// NumAttrs returns the feature-vector width the model was fitted on.
func (m *Model) NumAttrs() int { return m.numAttrs }

// NumNodes returns the node count of the fitted tree.
func (m *Model) NumNodes() int { return countNodes(m.root) }

func countNodes(nd *node) int {
	if nd == nil {
		return 0
	}
	if nd.leaf {
		return 1
	}
	return 1 + countNodes(nd.left) + countNodes(nd.right)
}
