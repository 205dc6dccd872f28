package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/linreg"
	"repro/internal/ml/m5p"
	"repro/internal/ml/mlp"
	"repro/internal/sensors"
)

func persistCorpus() []sensors.Record {
	recs := make([]sensors.Record, 0, 400)
	for i := 0; i < 400; i++ {
		f := float64(i)
		recs = append(recs, sensors.Record{
			CPUTempC:     30 + f/10,
			BatteryTempC: 26 + f/25,
			Util:         float64(i%10) / 10,
			FreqMHz:      384 + float64(i%12)*100,
			SkinTempC:    26 + f/20,
			ScreenTempC:  25 + f/22,
		})
	}
	return recs
}

func roundTrip(t *testing.T, factory func() ml.Regressor) *Predictor {
	t.Helper()
	p, err := Train(persistCorpus(), factory)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePredictor(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded predictor must agree with the original everywhere we probe.
	probe := persistCorpus()
	for i := 0; i < len(probe); i += 7 {
		r := probe[i]
		if got, want := back.PredictSkin(r), p.PredictSkin(r); got != want {
			t.Fatalf("skin prediction diverged after round trip: %v vs %v", got, want)
		}
		if got, want := back.PredictScreen(r), p.PredictScreen(r); got != want {
			t.Fatalf("screen prediction diverged after round trip: %v vs %v", got, want)
		}
	}
	return back
}

func TestPersistREPTree(t *testing.T) { roundTrip(t, nil) }

func TestPersistM5P(t *testing.T) {
	roundTrip(t, func() ml.Regressor { return m5p.New() })
}

func TestPersistLinearRegression(t *testing.T) {
	roundTrip(t, func() ml.Regressor { return linreg.New() })
}

func TestPersistMLP(t *testing.T) {
	roundTrip(t, func() ml.Regressor {
		m := mlp.New(3)
		m.Epochs = 20
		return m
	})
}

func TestSaveRejectsNilPredictor(t *testing.T) {
	var buf bytes.Buffer
	if err := SavePredictor(&buf, nil); err == nil {
		t.Fatal("nil predictor accepted")
	}
	if err := SavePredictor(&buf, &Predictor{}); err == nil {
		t.Fatal("empty predictor accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadPredictor(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadPredictor(strings.NewReader(`{"algorithm":"Mystery","skin":{},"screen":{}}`)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := LoadPredictor(strings.NewReader(`{"algorithm":"REPTree","skin":{"root":null},"screen":{"root":null}}`)); err == nil {
		t.Fatal("rootless tree accepted")
	}
}

func TestUnfittedModelsRefuseToMarshal(t *testing.T) {
	var buf bytes.Buffer
	p := &Predictor{SkinModel: &mlp.Model{}, ScreenModel: &mlp.Model{}}
	if err := SavePredictor(&buf, p); err == nil {
		t.Fatal("unfitted MLP marshalled")
	}
}

// malformedPredictors are documents LoadPredictor must reject: each decodes
// cleanly but would make PredictSkin or PredictScreen index past the
// four-feature tuple (or was found by FuzzLoadPredictor).
var malformedPredictors = []struct{ name, doc string }{
	{"REPTree split attribute past the features", `{"algorithm":"REPTree","skin":{"root":{"attr":99,"leaf":false,"v":0,"thr":1,"l":{"v":1,"leaf":true},"r":{"v":2,"leaf":true}}},"screen":{"root":{"v":1,"leaf":true}}}`},
	{"REPTree negative split attribute", `{"algorithm":"REPTree","skin":{"root":{"v":1,"leaf":true}},"screen":{"root":{"attr":-1,"leaf":false,"v":0,"thr":1,"l":{"v":1,"leaf":true},"r":{"v":2,"leaf":true}}}}`},
	{"M5P fitted on more features", `{"algorithm":"M5P","skin":{"num_attrs":9,"root":{"attr":8,"leaf":false,"thr":1,"lm":[0,0,0,0,0,0,0,0,0,0],"n":4,"l":{"lm":[0,0,0,0,0,0,0,0,0,0],"n":2,"leaf":true},"r":{"lm":[0,0,0,0,0,0,0,0,0,0],"n":2,"leaf":true}}},"screen":{"num_attrs":4,"root":{"lm":[0,0,0,0,0],"n":1,"leaf":true}}}`},
	{"M5P linear model too short", `{"algorithm":"M5P","skin":{"num_attrs":4,"root":{"lm":[1],"n":1,"leaf":true}},"screen":{"num_attrs":4,"root":{"lm":[0,0,0,0,0],"n":1,"leaf":true}}}`},
	{"M5P split attribute past num_attrs", `{"algorithm":"M5P","skin":{"num_attrs":4,"root":{"attr":4,"leaf":false,"thr":1,"lm":[0,0,0,0,0],"n":4,"l":{"lm":[0,0,0,0,0],"n":2,"leaf":true},"r":{"lm":[0,0,0,0,0],"n":2,"leaf":true}}},"screen":{"num_attrs":4,"root":{"lm":[0,0,0,0,0],"n":1,"leaf":true}}}`},
	{"LinearRegression without coefficients", `{"algorithm":"LinearRegression","skin":null,"screen":{"Coef":[0,0,0,0,0]}}`},
	{"LinearRegression too few coefficients", `{"algorithm":"LinearRegression","skin":{"Coef":[0,0,0,0,0]},"screen":{"Coef":[1,2]}}`},
	{"MLP mismatched normalization ranges", `{"algorithm":"MultilayerPerceptron","skin":{"w_in":[[0,0,0,0,0]],"w_out":[0,0],"in_lo":[0,0,0,0],"in_hi":[1]},"screen":{"w_in":[[0,0,0,0,0]],"w_out":[0,0],"in_lo":[0,0,0,0],"in_hi":[1,1,1,1]}}`},
	{"MLP fitted on more inputs", `{"algorithm":"MultilayerPerceptron","skin":{"w_in":[[0,0,0,0,0,0,0]],"w_out":[0,0],"in_lo":[0,0,0,0,0,0],"in_hi":[1,1,1,1,1,1]},"screen":{"w_in":[[0,0,0,0,0]],"w_out":[0,0],"in_lo":[0,0,0,0],"in_hi":[1,1,1,1]}}`},
}

func TestLoadPredictorRejectsMalformed(t *testing.T) {
	for _, tc := range malformedPredictors {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadPredictor(strings.NewReader(tc.doc)); err == nil {
				t.Fatalf("accepted %s", tc.doc)
			}
		})
	}
}

// FuzzLoadPredictor: any input either fails to load or yields a predictor
// that evaluates a zero record without panicking.
func FuzzLoadPredictor(f *testing.F) {
	for _, factory := range []func() ml.Regressor{nil, func() ml.Regressor { return m5p.New() }} {
		p, err := Train(persistCorpus(), factory)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SavePredictor(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, tc := range malformedPredictors {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPredictor(bytes.NewReader(data))
		if err != nil {
			return
		}
		p.PredictSkin(sensors.Record{})
		p.PredictScreen(sensors.Record{})
	})
}
