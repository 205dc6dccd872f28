package ml_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/linreg"
	"repro/internal/ml/m5p"
	"repro/internal/ml/mlp"
	"repro/internal/ml/tree"
)

// TestFitRejectsEmpty: every regressor's Fit rejects every dataset
// Validate refuses — nil or instance-free (ErrEmptyDataset), mismatched
// or ragged shapes, NaN/±Inf features or targets (ErrNonFinite) — with an
// error instead of panicking or fitting silently.
func TestFitRejectsEmpty(t *testing.T) {
	models := []func() ml.Regressor{
		func() ml.Regressor { return tree.New(1) },
		func() ml.Regressor { return m5p.New() },
		func() ml.Regressor { return linreg.New() },
		func() ml.Regressor { return mlp.New(1) },
	}
	// withCell returns a well-formed 20-row dataset with one cell replaced.
	withCell := func(row, col int, v float64) *ml.Dataset {
		d := ml.NewDataset("a", "b")
		for i := 0; i < 20; i++ {
			d.Add([]float64{float64(i), float64(i % 3)}, float64(i%5))
		}
		if col < 0 {
			d.Y[row] = v
		} else {
			d.X[row][col] = v
		}
		return d
	}
	cases := []struct {
		name string
		d    *ml.Dataset
		want error // nil: any error
	}{
		{"nil", nil, ml.ErrEmptyDataset},
		{"no instances", ml.NewDataset("x"), ml.ErrEmptyDataset},
		{"short targets", &ml.Dataset{AttrNames: []string{"a"}, X: [][]float64{{1}, {3}}, Y: []float64{1}}, nil},
		{"ragged row", &ml.Dataset{AttrNames: []string{"a", "b"}, X: [][]float64{{1, 2}, {3}}, Y: []float64{1, 2}}, nil},
		{"NaN feature", withCell(7, 1, math.NaN()), ml.ErrNonFinite},
		{"+Inf feature", withCell(7, 0, math.Inf(1)), ml.ErrNonFinite},
		{"-Inf feature", withCell(7, 1, math.Inf(-1)), ml.ErrNonFinite},
		{"NaN target", withCell(11, -1, math.NaN()), ml.ErrNonFinite},
		{"+Inf target", withCell(11, -1, math.Inf(1)), ml.ErrNonFinite},
		{"-Inf target", withCell(11, -1, math.Inf(-1)), ml.ErrNonFinite},
	}
	for _, newModel := range models {
		for _, tc := range cases {
			m := newModel()
			t.Run(m.Name()+"/"+tc.name, func(t *testing.T) {
				err := m.Fit(tc.d)
				if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
					t.Errorf("%s.Fit(%s) = %v, want %v", m.Name(), tc.name, err, tc.want)
				}
			})
		}
	}
}
