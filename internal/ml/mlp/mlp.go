// Package mlp implements a single-hidden-layer multilayer perceptron
// regressor with stochastic gradient descent and momentum — the paper's
// "multilayer perceptron" candidate, with WEKA's defaults: learning rate
// 0.3, momentum 0.2, 500 epochs, hidden size (attributes+1)/2, inputs and
// target min-max normalized to [−1,1], sigmoid hidden units and a linear
// output unit.
package mlp

import (
	"math"
	"math/rand"

	"repro/internal/ml"
)

// Model is an MLP regressor. Construct with New for WEKA-like defaults.
type Model struct {
	// Hidden is the hidden-layer width; 0 selects (attributes+1)/2, min 2.
	Hidden int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the SGD momentum coefficient.
	Momentum float64
	// Epochs is the number of full passes over the training data.
	Epochs int
	// Seed drives weight initialization and per-epoch shuffling.
	Seed int64

	// fitted state
	wIn   [][]float64 // [hidden][inputs+1], last column is bias
	wOut  []float64   // [hidden+1], last entry is bias
	inLo  []float64
	inHi  []float64
	yLo   float64
	yHi   float64
	ready bool
}

var _ ml.Regressor = (*Model)(nil)

// New returns an MLP with the WEKA defaults.
func New(seed int64) *Model {
	return &Model{LearningRate: 0.3, Momentum: 0.2, Epochs: 500, Seed: seed}
}

// Name implements ml.Regressor.
func (m *Model) Name() string { return "MultilayerPerceptron" }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Fit implements ml.Regressor.
func (m *Model) Fit(d *ml.Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	nin := d.NumAttrs()
	hidden := m.Hidden
	if hidden <= 0 {
		hidden = (nin + 1) / 2
		if hidden < 2 {
			hidden = 2
		}
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 500
	}

	// Normalization ranges.
	m.inLo = make([]float64, nin)
	m.inHi = make([]float64, nin)
	for j := 0; j < nin; j++ {
		lo, hi := d.X[0][j], d.X[0][j]
		for _, x := range d.X {
			if x[j] < lo {
				lo = x[j]
			}
			if x[j] > hi {
				hi = x[j]
			}
		}
		m.inLo[j], m.inHi[j] = lo, hi
	}
	m.yLo, m.yHi = d.Y[0], d.Y[0]
	for _, y := range d.Y {
		if y < m.yLo {
			m.yLo = y
		}
		if y > m.yHi {
			m.yHi = y
		}
	}

	rng := rand.New(rand.NewSource(m.Seed))
	m.wIn = make([][]float64, hidden)
	dwIn := make([][]float64, hidden)
	for h := range m.wIn {
		m.wIn[h] = make([]float64, nin+1)
		dwIn[h] = make([]float64, nin+1)
		for j := range m.wIn[h] {
			m.wIn[h][j] = rng.Float64() - 0.5
		}
	}
	m.wOut = make([]float64, hidden+1)
	dwOut := make([]float64, hidden+1)
	for j := range m.wOut {
		m.wOut[j] = rng.Float64() - 0.5
	}

	xn := make([]float64, nin)
	act := make([]float64, hidden)
	order := make([]int, d.Len())
	for i := range order {
		order[i] = i
	}

	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			m.normalize(d.X[idx], xn)
			yt := m.normTarget(d.Y[idx])

			// Forward.
			out := m.wOut[hidden]
			for h := 0; h < hidden; h++ {
				s := m.wIn[h][nin]
				for j := 0; j < nin; j++ {
					s += m.wIn[h][j] * xn[j]
				}
				act[h] = sigmoid(s)
				out += m.wOut[h] * act[h]
			}

			// Backward (linear output, squared error).
			errOut := yt - out
			for h := 0; h < hidden; h++ {
				gOut := errOut * act[h]
				dwOut[h] = m.LearningRate*gOut + m.Momentum*dwOut[h]
				m.wOut[h] += dwOut[h]

				gHidden := errOut * m.wOut[h] * act[h] * (1 - act[h])
				for j := 0; j < nin; j++ {
					dwIn[h][j] = m.LearningRate*gHidden*xn[j] + m.Momentum*dwIn[h][j]
					m.wIn[h][j] += dwIn[h][j]
				}
				dwIn[h][nin] = m.LearningRate*gHidden + m.Momentum*dwIn[h][nin]
				m.wIn[h][nin] += dwIn[h][nin]
			}
			dwOut[hidden] = m.LearningRate*errOut + m.Momentum*dwOut[hidden]
			m.wOut[hidden] += dwOut[hidden]
		}
	}
	m.ready = true
	return nil
}

func (m *Model) normalize(x, dst []float64) {
	for j := range dst {
		lo, hi := m.inLo[j], m.inHi[j]
		if hi == lo {
			dst[j] = 0
			continue
		}
		dst[j] = 2*(x[j]-lo)/(hi-lo) - 1
	}
}

func (m *Model) normTarget(y float64) float64 {
	if m.yHi == m.yLo {
		return 0
	}
	return 2*(y-m.yLo)/(m.yHi-m.yLo) - 1
}

func (m *Model) denormTarget(t float64) float64 {
	if m.yHi == m.yLo {
		return m.yLo
	}
	return (t+1)/2*(m.yHi-m.yLo) + m.yLo
}

// NumInputs returns the feature-vector width the model was fitted on.
func (m *Model) NumInputs() int { return len(m.inLo) }

// Predict implements ml.Regressor.
func (m *Model) Predict(x []float64) float64 {
	if !m.ready {
		panic("mlp: Predict before Fit")
	}
	nin := len(m.inLo)
	xn := make([]float64, nin)
	m.normalize(x, xn)
	hidden := len(m.wIn)
	out := m.wOut[hidden]
	for h := 0; h < hidden; h++ {
		s := m.wIn[h][nin]
		for j := 0; j < nin; j++ {
			s += m.wIn[h][j] * xn[j]
		}
		out += m.wOut[h] * sigmoid(s)
	}
	return m.denormTarget(out)
}
