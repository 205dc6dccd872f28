package ml_test

import (
	"errors"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/linreg"
	"repro/internal/ml/m5p"
	"repro/internal/ml/mlp"
	"repro/internal/ml/tree"
)

// TestFitRejectsEmpty: every regressor's Fit returns ErrEmptyDataset on a
// nil or instance-free dataset instead of panicking.
func TestFitRejectsEmpty(t *testing.T) {
	models := []func() ml.Regressor{
		func() ml.Regressor { return tree.New(1) },
		func() ml.Regressor { return m5p.New() },
		func() ml.Regressor { return linreg.New() },
		func() ml.Regressor { return mlp.New(1) },
	}
	for _, newModel := range models {
		for _, d := range []*ml.Dataset{nil, ml.NewDataset("x")} {
			m := newModel()
			if err := m.Fit(d); !errors.Is(err, ml.ErrEmptyDataset) {
				t.Errorf("%s.Fit(%v) = %v, want ErrEmptyDataset", m.Name(), d, err)
			}
		}
	}
}
