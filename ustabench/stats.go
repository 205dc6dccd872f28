package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of vs (NaN when empty).
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (NaN when empty).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Tail is the highest percentile of a sample that still has at least
// minBeyond samples above it.
type Tail struct {
	Pct   int     // percentile, 0..100
	N     int     // sample count
	Value float64 // the percentile's value
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailOf picks the highest whole percentile p with at least minBeyond of
// the len(vs) samples beyond it, i.e. len(vs)·(1 − p/100) ≥ minBeyond. A
// sample too small to have any such percentile above the median reports
// the median (Pct 50).
func tailOf(vs []float64) Tail {
	n := len(vs)
	p := int(math.Floor(100 * (1 - float64(minBeyond)/float64(n))))
	if p < 50 {
		p = 50
	}
	return Tail{Pct: p, N: n, Value: quantile(vs, float64(p)/100)}
}

func (t Tail) String() string { return fmt.Sprintf("p%d of %d", t.Pct, t.N) }
