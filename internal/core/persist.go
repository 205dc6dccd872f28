package core

// Predictor persistence: the paper's deployment story is "train offline in
// WEKA, ship the fitted tree to the phone". SavePredictor/LoadPredictor
// are that hand-off: a single JSON document with an algorithm tag and the
// two fitted per-target models.

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/ml"
	"repro/internal/ml/linreg"
	"repro/internal/ml/m5p"
	"repro/internal/ml/mlp"
	"repro/internal/ml/tree"
	"repro/internal/sensors"
)

type persistedPredictor struct {
	Algorithm string          `json:"algorithm"`
	Skin      json.RawMessage `json:"skin"`
	Screen    json.RawMessage `json:"screen"`
}

func algorithmOf(r ml.Regressor) (string, error) {
	switch r.(type) {
	case *tree.Model:
		return "REPTree", nil
	case *m5p.Model:
		return "M5P", nil
	case *linreg.Model:
		return "LinearRegression", nil
	case *mlp.Model:
		return "MultilayerPerceptron", nil
	default:
		return "", fmt.Errorf("core: unsupported regressor type %T", r)
	}
}

func emptyModel(algorithm string) (ml.Regressor, error) {
	switch algorithm {
	case "REPTree":
		return &tree.Model{}, nil
	case "M5P":
		return &m5p.Model{}, nil
	case "LinearRegression":
		return &linreg.Model{}, nil
	case "MultilayerPerceptron":
		return &mlp.Model{}, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", algorithm)
	}
}

// SavePredictor serializes a trained predictor to w. Both per-target models
// must be of the same supported algorithm.
func SavePredictor(w io.Writer, p *Predictor) error {
	if p == nil || p.SkinModel == nil || p.ScreenModel == nil {
		return fmt.Errorf("core: predictor is not fully trained")
	}
	algo, err := algorithmOf(p.SkinModel)
	if err != nil {
		return err
	}
	algo2, err := algorithmOf(p.ScreenModel)
	if err != nil {
		return err
	}
	if algo != algo2 {
		return fmt.Errorf("core: mixed-algorithm predictor (%s skin, %s screen) not supported", algo, algo2)
	}
	skin, err := json.Marshal(p.SkinModel)
	if err != nil {
		return fmt.Errorf("core: marshal skin model: %w", err)
	}
	screen, err := json.Marshal(p.ScreenModel)
	if err != nil {
		return fmt.Errorf("core: marshal screen model: %w", err)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(persistedPredictor{Algorithm: algo, Skin: skin, Screen: screen})
}

// checkWidth rejects a decoded model whose Predict would read past the
// canonical feature tuple: predictors arrive over the network, and a
// malformed one must fail to load rather than panic the worker later.
func checkWidth(r ml.Regressor) error {
	n := len(sensors.FeatureNames)
	switch m := r.(type) {
	case *tree.Model:
		if a := m.MaxAttr(); a >= n {
			return fmt.Errorf("split attribute %d out of range for %d features", a, n)
		}
	case *m5p.Model:
		if m.NumAttrs() != n {
			return fmt.Errorf("fitted on %d features, want %d", m.NumAttrs(), n)
		}
	case *linreg.Model:
		if len(m.Coef) != n+1 {
			return fmt.Errorf("%d coefficients, want %d", len(m.Coef), n+1)
		}
	case *mlp.Model:
		if m.NumInputs() != n {
			return fmt.Errorf("fitted on %d inputs, want %d", m.NumInputs(), n)
		}
	}
	return nil
}

// LoadPredictor deserializes a predictor saved by SavePredictor. It
// rejects models that do not fit the canonical feature tuple.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var pp persistedPredictor
	if err := json.NewDecoder(r).Decode(&pp); err != nil {
		return nil, fmt.Errorf("core: decode predictor: %w", err)
	}
	skin, err := emptyModel(pp.Algorithm)
	if err != nil {
		return nil, err
	}
	screen, err := emptyModel(pp.Algorithm)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(pp.Skin, skin); err != nil {
		return nil, fmt.Errorf("core: decode skin model: %w", err)
	}
	if err := json.Unmarshal(pp.Screen, screen); err != nil {
		return nil, fmt.Errorf("core: decode screen model: %w", err)
	}
	if err := checkWidth(skin); err != nil {
		return nil, fmt.Errorf("core: skin model: %w", err)
	}
	if err := checkWidth(screen); err != nil {
		return nil, fmt.Errorf("core: screen model: %w", err)
	}
	return &Predictor{SkinModel: skin, ScreenModel: screen}, nil
}
