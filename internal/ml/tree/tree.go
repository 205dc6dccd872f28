// Package tree implements REPTree: a fast variance-reduction regression
// tree with reduced-error pruning on a held-out subset, matching the WEKA
// algorithm the paper selects for its run-time predictor ("REPtree builds
// faster than M5P and does not cause halting", §IV-A).
//
// Growing minimizes the summed squared error of the two children over all
// (attribute, threshold) candidates; pruning holds out one fold of the
// training data (default one third) and collapses any subtree whose
// held-out error is no better than predicting its mean.
//
// The grower presorts, the classic C4.5/WEKA trick. Fit copies the growing
// set into column-major arrays and sorts each attribute's instances once,
// by (value, position in growing order): equal values keep growing order.
// A node is the same range of every sorted list and of one list in growing
// order, and a split stable-partitions each list in place, so every node
// scans its instances in exactly the order a stable per-node sort would
// give. The split statistics are therefore summed in a fixed tie order and
// the tree equals that of a grower that stable-sorts at every node. Node
// means are summed in growing order. Left subtrees of large nodes grow on
// their own goroutine while a slot (GOMAXPROCS−1 per Fit) is free; sibling
// ranges are disjoint, so the tree does not depend on scheduling.
package tree

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/ml"
)

// Model is a REPTree regressor. The zero value uses the package defaults at
// Fit time; construct with New for explicit seeding.
type Model struct {
	// MinInstances is the minimum number of training instances in a leaf
	// (default 2, WEKA's -M).
	MinInstances int
	// MaxDepth limits tree depth; 0 or negative means unlimited (WEKA -L).
	MaxDepth int
	// PruneFolds controls reduced-error pruning: one fold in PruneFolds is
	// held out for pruning (default 3, WEKA -N). Set to 1 to disable
	// pruning and grow on all data.
	PruneFolds int
	// Seed drives the grow/prune shuffle.
	Seed int64

	root *node
}

var _ ml.Regressor = (*Model)(nil)

type node struct {
	attr      int
	threshold float64
	left      *node
	right     *node
	value     float64 // mean target of growing instances at this node
	leaf      bool
	n         int
}

// New returns a REPTree with WEKA-like defaults.
func New(seed int64) *Model {
	return &Model{MinInstances: 2, PruneFolds: 3, Seed: seed}
}

// Name implements ml.Regressor.
func (m *Model) Name() string { return "REPTree" }

// Fit implements ml.Regressor.
func (m *Model) Fit(d *ml.Dataset) error {
	// Validate's non-finite check gives the presort a total order on
	// every attribute.
	if err := d.Validate(); err != nil {
		return err
	}
	minInst, folds := m.settings()
	growIdx, pruneIdx := holdOut(d.Len(), folds, m.Seed)
	m.root = growPresorted(d, growIdx, minInst, m.MaxDepth)
	if len(pruneIdx) > 0 {
		pruneREP(m.root, d, pruneIdx)
	}
	return nil
}

// settings resolves the zero-value defaults.
func (m *Model) settings() (minInst, folds int) {
	minInst = m.MinInstances
	if minInst < 1 {
		minInst = 2
	}
	folds = m.PruneFolds
	if folds == 0 {
		folds = 3
	}
	return minInst, folds
}

// holdOut splits instances 0..n-1 into the growing set, in growing order,
// and the pruning fold: a seeded shuffle deals every folds-th instance to
// pruning. With folds <= 1 or too few instances everything grows.
func holdOut(n, folds int, seed int64) (growIdx, pruneIdx []int) {
	growIdx = make([]int, 0, n)
	if folds > 1 && n >= 2*folds {
		pruneIdx = make([]int, 0, n/2)
		for i, p := range rand.New(rand.NewSource(seed)).Perm(n) {
			if i%folds == 0 {
				pruneIdx = append(pruneIdx, p)
			} else {
				growIdx = append(growIdx, p)
			}
		}
		return growIdx, pruneIdx
	}
	for i := 0; i < n; i++ {
		growIdx = append(growIdx, i)
	}
	return growIdx, nil
}

// forkMin is the smallest node whose left subtree may grow on its own
// goroutine, so that forks stay few and each carries enough work to
// outweigh its start-up.
const forkMin = 384

// presorted holds one Fit's growing set, presorted. Instances are named by
// their position p in growing order. A node owns the range [lo,hi) of
// every list in sorted and of order; concurrent subtrees own disjoint
// ranges, and so disjoint positions of goLeft and disjoint ranges of tmp.
type presorted struct {
	x        [][]float64 // x[a][p]: attribute a of position p
	y        []float64   // y[p]: target of position p
	sorted   [][]int32   // sorted[a]: positions ordered by (x[a][p], p)
	order    []int32     // positions in growing order
	goLeft   []bool      // goLeft[p]: side of the split being applied
	tmp      []int32     // stable-partition scratch, indexed like the lists
	minInst  int
	maxDepth int
	tokens   chan struct{} // one slot per goroutine a subtree may fork
}

// growPresorted grows the unpruned tree on the instances growIdx of d.
func growPresorted(d *ml.Dataset, growIdx []int, minInst, maxDepth int) *node {
	n, na := len(growIdx), d.NumAttrs()
	g := &presorted{
		x:        make([][]float64, na),
		y:        make([]float64, n),
		sorted:   make([][]int32, na),
		order:    make([]int32, n),
		goLeft:   make([]bool, n),
		tmp:      make([]int32, n),
		minInst:  minInst,
		maxDepth: maxDepth,
		tokens:   make(chan struct{}, runtime.GOMAXPROCS(0)-1),
	}
	for p, i := range growIdx {
		g.y[p] = d.Y[i]
		g.order[p] = int32(p)
	}
	for a := range g.x {
		col := make([]float64, n)
		for p, i := range growIdx {
			col[p] = d.X[i][a]
		}
		g.x[a] = col
	}
	// Sort the attributes concurrently, worker w taking every k-th one.
	k := min(na, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := w; a < na; a += k {
				g.sorted[a] = presort(g.x[a])
			}
		}()
	}
	wg.Wait()
	return g.grow(0, n, 0)
}

// presort returns the positions 0..len(col)-1 ordered by (col[p], p).
// Sorting (value, position) pairs keeps the comparisons off the column.
func presort(col []float64) []int32 {
	type keyed struct {
		v float64
		p int32
	}
	ks := make([]keyed, len(col))
	for p, v := range col {
		ks[p] = keyed{v, int32(p)}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.v < b.v {
			return -1
		}
		if a.v > b.v {
			return 1
		}
		return cmp.Compare(a.p, b.p)
	})
	s := make([]int32, len(ks))
	for k, e := range ks {
		s[k] = e.p
	}
	return s
}

// grow builds the subtree of the node owning [lo,hi).
func (g *presorted) grow(lo, hi, depth int) *node {
	n := hi - lo
	var sum float64
	for _, p := range g.order[lo:hi] {
		sum += g.y[p]
	}
	nd := &node{value: sum / float64(n), n: n, leaf: true}
	if n < 2*g.minInst {
		return nd
	}
	if g.maxDepth > 0 && depth >= g.maxDepth {
		return nd
	}
	attr, thr, ok := g.bestCut(lo, hi)
	if !ok {
		return nd
	}
	// The midpoint threshold can round onto the upper value, so the sides
	// are recounted rather than taken from the sweep.
	col, nl := g.x[attr], 0
	for _, p := range g.order[lo:hi] {
		left := col[p] <= thr
		g.goLeft[p] = left
		if left {
			nl++
		}
	}
	if nl < g.minInst || n-nl < g.minInst {
		return nd
	}
	for a, list := range g.sorted {
		if a != attr { // the split attribute's own range is already split
			g.partition(list[lo:hi], g.tmp[lo:hi])
		}
	}
	g.partition(g.order[lo:hi], g.tmp[lo:hi])
	nd.leaf = false
	nd.attr = attr
	nd.threshold = thr
	mid := lo + nl
	if n >= forkMin && g.acquire() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			nd.left = g.grow(lo, mid, depth+1)
			<-g.tokens
		}()
		nd.right = g.grow(mid, hi, depth+1)
		<-done
		return nd
	}
	nd.left = g.grow(lo, mid, depth+1)
	nd.right = g.grow(mid, hi, depth+1)
	return nd
}

// acquire takes a fork slot if one is free.
func (g *presorted) acquire() bool {
	select {
	case g.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// partition stably moves the positions marked goLeft to the front of seg,
// using tmp (same length) for the right side.
func (g *presorted) partition(seg, tmp []int32) {
	l, r := 0, 0
	for _, p := range seg {
		if g.goLeft[p] {
			seg[l] = p
			l++
		} else {
			tmp[r] = p
			r++
		}
	}
	copy(seg[l:], tmp[:r])
}

// bestCut sweeps every attribute's sorted range with prefix sums,
// returning the (attribute, threshold) pair minimizing the children's
// summed squared error. ok is false when no split separates the data.
func (g *presorted) bestCut(lo, hi int) (attr int, threshold float64, ok bool) {
	bestSSE := math.Inf(1)
	n := hi - lo
	for a, list := range g.sorted {
		seg, col := list[lo:hi], g.x[a]
		var sumAll, sumSqAll float64
		for _, p := range seg {
			sumAll += g.y[p]
			sumSqAll += g.y[p] * g.y[p]
		}
		var sumL, sumSqL float64
		for k := 0; k < n-1; k++ {
			y := g.y[seg[k]]
			sumL += y
			sumSqL += y * y
			if k+1 < g.minInst || n-k-1 < g.minInst {
				continue
			}
			xCur, xNext := col[seg[k]], col[seg[k+1]]
			if xCur == xNext {
				continue // can only split between distinct values
			}
			nl := float64(k + 1)
			nr := float64(n - k - 1)
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

// pruneREP performs bottom-up reduced-error pruning: a subtree collapses to
// a leaf when the held-out squared error of its mean is no worse than the
// subtree's. Nodes that receive no pruning instances are left as grown.
// It returns the subtree's held-out SSE after pruning.
func pruneREP(nd *node, d *ml.Dataset, idx []int) float64 {
	sseLeaf := 0.0
	for _, i := range idx {
		diff := d.Y[i] - nd.value
		sseLeaf += diff * diff
	}
	if nd.leaf {
		return sseLeaf
	}
	var left, right []int
	for _, i := range idx {
		if d.X[i][nd.attr] <= nd.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	sseSub := pruneREP(nd.left, d, left) + pruneREP(nd.right, d, right)
	if len(idx) > 0 && sseLeaf <= sseSub {
		nd.leaf = true
		nd.left, nd.right = nil, nil
		return sseLeaf
	}
	return sseSub
}

// Predict implements ml.Regressor.
func (m *Model) Predict(x []float64) float64 {
	if m.root == nil {
		panic("tree: Predict before Fit")
	}
	nd := m.root
	for !nd.leaf {
		if x[nd.attr] <= nd.threshold {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd.value
}

// NumNodes returns the node count of the fitted tree (0 before Fit).
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

// MaxAttr returns the largest split attribute of the fitted tree: Predict
// reads x[0..MaxAttr]. It is -1 for a single leaf or before Fit.
func (m *Model) MaxAttr() int { return maxAttrOf(m.root) }

func maxAttrOf(nd *node) int {
	if nd == nil || nd.leaf {
		return -1
	}
	return max(nd.attr, maxAttrOf(nd.left), maxAttrOf(nd.right))
}

// Depth returns the depth of the fitted tree (a lone leaf has depth 1).
func (m *Model) Depth() int { return depthOf(m.root) }

func depthOf(nd *node) int {
	if nd == nil {
		return 0
	}
	if nd.leaf {
		return 1
	}
	l, r := depthOf(nd.left), depthOf(nd.right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}
