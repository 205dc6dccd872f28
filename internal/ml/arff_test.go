package ml

import (
	"strings"
	"testing"
)

func TestARFFRoundTrip(t *testing.T) {
	d := NewDataset("cpu_temp_c", "cpu_util")
	d.Add([]float64{55.5, 0.8}, 38.2)
	d.Add([]float64{42.1, 0.3}, 33.0)

	var sb strings.Builder
	if err := WriteARFF(&sb, "usta corpus", d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadARFF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if got.Len() != 2 || got.NumAttrs() != 2 {
		t.Fatalf("round trip shape: %d x %d", got.Len(), got.NumAttrs())
	}
	for i := range d.Y {
		if got.Y[i] != d.Y[i] {
			t.Fatalf("target[%d] = %v want %v", i, got.Y[i], d.Y[i])
		}
		for j := range d.X[i] {
			if got.X[i][j] != d.X[i][j] {
				t.Fatalf("X[%d][%d] = %v want %v", i, j, got.X[i][j], d.X[i][j])
			}
		}
	}
	if got.AttrNames[0] != "cpu_temp_c" {
		t.Fatalf("attr name = %q", got.AttrNames[0])
	}
}

func TestARFFQuotesSpacedNames(t *testing.T) {
	d := NewDataset("has space")
	d.Add([]float64{1}, 2)
	var sb strings.Builder
	if err := WriteARFF(&sb, "rel name", d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "'has space'") {
		t.Fatalf("spaced attribute not quoted:\n%s", sb.String())
	}
}

func TestARFFReadSkipsCommentsAndBlanks(t *testing.T) {
	in := `% a comment
@RELATION test

@ATTRIBUTE x NUMERIC
@ATTRIBUTE target NUMERIC

@DATA
% data comment
1.5, 3.0

2.5, 5.0
`
	d, err := ReadARFF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d want 2", d.Len())
	}
	if d.Y[1] != 5 {
		t.Fatalf("Y[1] = %v", d.Y[1])
	}
}

func TestARFFReadErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no data section", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n"},
		{"nominal attribute", "@RELATION r\n@ATTRIBUTE x {a,b}\n@ATTRIBUTE target NUMERIC\n@DATA\na,1\n"},
		{"data before @data", "@RELATION r\n1,2\n"},
		{"arity mismatch", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n@DATA\n1,2,3\n"},
		{"bad number", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n@DATA\nfoo,2\n"},
		{"bad target", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n@DATA\n1,bar\n"},
		{"attribute after data", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n@DATA\n@ATTRIBUTE y NUMERIC\n"},
		{"too few attributes", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@DATA\n1\n"},
		{"malformed attribute", "@RELATION r\n@ATTRIBUTE x\n"},
	}
	for _, tc := range cases {
		if _, err := ReadARFF(strings.NewReader(tc.in)); err == nil {
			t.Fatalf("%s: error expected", tc.name)
		}
	}
}

func TestARFFTrainableAfterImport(t *testing.T) {
	// End to end: a corpus exported and re-imported trains identically.
	d := NewDataset("x")
	for i := 0; i < 50; i++ {
		v := float64(i)
		d.Add([]float64{v}, 2*v+1)
	}
	var sb strings.Builder
	if err := WriteARFF(&sb, "lin", d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadARFF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	m := &meanModel{}
	if err := m.Fit(back); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, y := range d.Y {
		want += y
	}
	want /= float64(d.Len())
	if got := m.Predict(nil); got != want {
		t.Fatalf("mean after round trip = %v want %v", got, want)
	}
}

// FuzzReadARFF feeds arbitrary bytes to the ARFF reader. It must never
// panic, and any stream it accepts must survive a WriteARFF → ReadARFF
// round trip with the same shape: attribute count, row count and the
// attribute names.
func FuzzReadARFF(f *testing.F) {
	d := NewDataset("cpu_temp_c", "has space")
	d.Add([]float64{55.5, 0.8}, 38.2)
	d.Add([]float64{42.1, 0.3}, 33.0)
	var sb strings.Builder
	if err := WriteARFF(&sb, "usta corpus", d); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	f.Add("% a comment\n@RELATION test\n\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n\n@DATA\n% data comment\n1.5, 3.0\n\n2.5, 5.0\n")
	f.Add("@RELATION r\n@ATTRIBUTE x REAL\n@ATTRIBUTE target INTEGER\n@DATA\nNaN,+Inf\n-0,1e308\n")
	// Regression row: an empty quoted name must be written quoted, or the
	// re-read fails with "malformed @attribute".
	f.Add("@RELATION r\n@ATTRIBUTE '' NUMERIC\n@ATTRIBUTE target NUMERIC\n@DATA\n1,2\n")
	f.Add("@RELATION r\n@ATTRIBUTE x {a,b}\n@ATTRIBUTE target NUMERIC\n@DATA\na,1\n")
	f.Add("@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n@DATA\n1,2,3\n")
	f.Fuzz(func(t *testing.T, in string) {
		got, err := ReadARFF(strings.NewReader(in))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := WriteARFF(&out, "fuzz", got); err != nil {
			t.Fatalf("WriteARFF of an accepted dataset: %v", err)
		}
		back, err := ReadARFF(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-read of written dataset: %v\n%s", err, out.String())
		}
		if back.Len() != got.Len() || back.NumAttrs() != got.NumAttrs() {
			t.Fatalf("round trip shape %d x %d, want %d x %d", back.Len(), back.NumAttrs(), got.Len(), got.NumAttrs())
		}
		for i, name := range got.AttrNames {
			if back.AttrNames[i] != name {
				t.Fatalf("attribute %d round-trips as %q, want %q", i, back.AttrNames[i], name)
			}
		}
	})
}
