package tree

// JSON persistence for trained trees: a fitted REPTree is what the paper
// ships to the phone, so the model must be serializable independent of the
// training pipeline.

import (
	"encoding/json"
	"errors"
	"math"
)

type jsonNode struct {
	Attr      int       `json:"attr,omitempty"`
	Threshold float64   `json:"thr,omitempty"`
	Left      *jsonNode `json:"l,omitempty"`
	Right     *jsonNode `json:"r,omitempty"`
	Value     float64   `json:"v"`
	Leaf      bool      `json:"leaf"`
	N         int       `json:"n,omitempty"`
}

type jsonModel struct {
	MinInstances int       `json:"min_instances"`
	MaxDepth     int       `json:"max_depth"`
	PruneFolds   int       `json:"prune_folds"`
	Seed         int64     `json:"seed"`
	Root         *jsonNode `json:"root"`
}

func toJSONNode(nd *node) *jsonNode {
	if nd == nil {
		return nil
	}
	return &jsonNode{
		Attr: nd.attr, Threshold: nd.threshold,
		Left: toJSONNode(nd.left), Right: toJSONNode(nd.right),
		Value: nd.value, Leaf: nd.leaf, N: nd.n,
	}
}

func fromJSONNode(jn *jsonNode) (*node, error) {
	if jn == nil {
		return nil, nil
	}
	if !finite(jn.Value) {
		return nil, errors.New("tree: serialized node value is not finite")
	}
	nd := &node{attr: jn.Attr, threshold: jn.Threshold, value: jn.Value, leaf: jn.Leaf, n: jn.N}
	if !nd.leaf {
		if nd.attr < 0 {
			return nil, errors.New("tree: serialized split attribute is negative")
		}
		if !finite(nd.threshold) {
			return nil, errors.New("tree: serialized split threshold is not finite")
		}
		var err error
		if nd.left, err = fromJSONNode(jn.Left); err != nil {
			return nil, err
		}
		if nd.right, err = fromJSONNode(jn.Right); err != nil {
			return nil, err
		}
		if nd.left == nil || nd.right == nil {
			return nil, errors.New("tree: interior node missing a child")
		}
	}
	return nd, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// MarshalJSON implements json.Marshaler for a fitted model.
func (m *Model) MarshalJSON() ([]byte, error) {
	if m.root == nil {
		return nil, errors.New("tree: cannot marshal an unfitted model")
	}
	return json.Marshal(jsonModel{
		MinInstances: m.MinInstances, MaxDepth: m.MaxDepth,
		PruneFolds: m.PruneFolds, Seed: m.Seed,
		Root: toJSONNode(m.root),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(data []byte) error {
	var jm jsonModel
	if err := json.Unmarshal(data, &jm); err != nil {
		return err
	}
	if jm.Root == nil {
		return errors.New("tree: serialized model has no root")
	}
	root, err := fromJSONNode(jm.Root)
	if err != nil {
		return err
	}
	m.MinInstances = jm.MinInstances
	m.MaxDepth = jm.MaxDepth
	m.PruneFolds = jm.PruneFolds
	m.Seed = jm.Seed
	m.root = root
	return nil
}
