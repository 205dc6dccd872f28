package m5p

// JSON persistence for trained model trees (see tree/json.go for the
// rationale).

import (
	"encoding/json"
	"errors"
	"fmt"
)

type jsonNode struct {
	Attr      int       `json:"attr,omitempty"`
	Threshold float64   `json:"thr,omitempty"`
	Left      *jsonNode `json:"l,omitempty"`
	Right     *jsonNode `json:"r,omitempty"`
	LM        []float64 `json:"lm"`
	N         int       `json:"n"`
	Leaf      bool      `json:"leaf"`
}

type jsonModel struct {
	MinInstances int       `json:"min_instances"`
	SmoothingK   float64   `json:"smoothing_k"`
	Unsmoothed   bool      `json:"unsmoothed"`
	SDRStopRatio float64   `json:"sdr_stop_ratio"`
	NumAttrs     int       `json:"num_attrs"`
	Root         *jsonNode `json:"root"`
}

func toJSONNode(nd *node) *jsonNode {
	if nd == nil {
		return nil
	}
	return &jsonNode{
		Attr: nd.attr, Threshold: nd.threshold,
		Left: toJSONNode(nd.left), Right: toJSONNode(nd.right),
		LM: nd.lm, N: nd.n, Leaf: nd.leaf,
	}
}

// fromJSONNode rebuilds a subtree over numAttrs features, rejecting what
// Predict could not evaluate: linear models of the wrong width and split
// attributes outside the feature vector.
func fromJSONNode(jn *jsonNode, numAttrs int) (*node, error) {
	if jn == nil {
		return nil, nil
	}
	if len(jn.LM) != numAttrs+1 {
		return nil, fmt.Errorf("m5p: serialized linear model has %d terms, want %d", len(jn.LM), numAttrs+1)
	}
	nd := &node{attr: jn.Attr, threshold: jn.Threshold, lm: jn.LM, n: jn.N, leaf: jn.Leaf}
	if !nd.leaf {
		if nd.attr < 0 || nd.attr >= numAttrs {
			return nil, fmt.Errorf("m5p: serialized split attribute %d out of range [0,%d)", nd.attr, numAttrs)
		}
		var err error
		if nd.left, err = fromJSONNode(jn.Left, numAttrs); err != nil {
			return nil, err
		}
		if nd.right, err = fromJSONNode(jn.Right, numAttrs); err != nil {
			return nil, err
		}
		if nd.left == nil || nd.right == nil {
			return nil, errors.New("m5p: interior node missing a child")
		}
	}
	return nd, nil
}

// MarshalJSON implements json.Marshaler for a fitted model.
func (m *Model) MarshalJSON() ([]byte, error) {
	if m.root == nil {
		return nil, errors.New("m5p: cannot marshal an unfitted model")
	}
	return json.Marshal(jsonModel{
		MinInstances: m.MinInstances, SmoothingK: m.SmoothingK,
		Unsmoothed: m.Unsmoothed, SDRStopRatio: m.SDRStopRatio,
		NumAttrs: m.numAttrs, Root: toJSONNode(m.root),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(data []byte) error {
	var jm jsonModel
	if err := json.Unmarshal(data, &jm); err != nil {
		return err
	}
	if jm.Root == nil {
		return errors.New("m5p: serialized model has no root")
	}
	if jm.NumAttrs < 0 {
		return errors.New("m5p: serialized attribute count is negative")
	}
	root, err := fromJSONNode(jm.Root, jm.NumAttrs)
	if err != nil {
		return err
	}
	m.MinInstances = jm.MinInstances
	m.SmoothingK = jm.SmoothingK
	m.Unsmoothed = jm.Unsmoothed
	m.SDRStopRatio = jm.SDRStopRatio
	m.numAttrs = jm.NumAttrs
	m.root = root
	return nil
}
