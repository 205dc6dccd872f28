package ml

// ARFF import/export. The paper's authors trained their models in WEKA,
// whose native corpus format is ARFF; supporting it lets a user move the
// simulated corpus into real WEKA (or a real device's WEKA-collected log
// into this library) unchanged. Only the numeric subset of ARFF is
// implemented — every attribute in this problem is numeric.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteARFF writes the dataset in ARFF format with the given relation name.
// The target is emitted as the final attribute, named "target".
func WriteARFF(w io.Writer, relation string, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if relation == "" {
		relation = "dataset"
	}
	fmt.Fprintf(bw, "@RELATION %s\n\n", sanitizeName(relation))
	for _, a := range d.AttrNames {
		fmt.Fprintf(bw, "@ATTRIBUTE %s NUMERIC\n", sanitizeName(a))
	}
	fmt.Fprintf(bw, "@ATTRIBUTE target NUMERIC\n\n@DATA\n")
	for i, x := range d.X {
		for _, v := range x {
			fmt.Fprintf(bw, "%g,", v)
		}
		fmt.Fprintf(bw, "%g\n", d.Y[i])
	}
	return bw.Flush()
}

// sanitizeName quotes a name that would not survive ReadARFF's field
// split: one with a separator in it, or an empty one.
func sanitizeName(s string) string {
	if s == "" || strings.ContainsAny(s, " \t,") {
		return "'" + s + "'"
	}
	return s
}

// ReadARFF parses a numeric-only ARFF stream. The final attribute becomes
// the dataset target. Nominal attributes, sparse data and quoted strings
// with embedded commas are not supported and return an error.
func ReadARFF(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	var attrs []string
	inData := false
	var d *Dataset
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		lower := strings.ToLower(text)
		switch {
		case strings.HasPrefix(lower, "@relation"):
			// Name is informational only.
		case strings.HasPrefix(lower, "@attribute"):
			if inData {
				return nil, fmt.Errorf("ml: arff line %d: @attribute after @data", line)
			}
			fields := strings.Fields(text)
			if len(fields) < 3 {
				return nil, fmt.Errorf("ml: arff line %d: malformed @attribute", line)
			}
			typ := strings.ToLower(fields[len(fields)-1])
			if typ != "numeric" && typ != "real" && typ != "integer" {
				return nil, fmt.Errorf("ml: arff line %d: unsupported attribute type %q", line, fields[len(fields)-1])
			}
			attrs = append(attrs, strings.Trim(fields[1], "'"))
		case strings.HasPrefix(lower, "@data"):
			if len(attrs) < 2 {
				return nil, fmt.Errorf("ml: arff needs at least one feature and a target")
			}
			d = NewDataset(attrs[:len(attrs)-1]...)
			inData = true
		default:
			if !inData {
				return nil, fmt.Errorf("ml: arff line %d: data before @data", line)
			}
			parts := strings.Split(text, ",")
			if len(parts) != len(attrs) {
				return nil, fmt.Errorf("ml: arff line %d: %d values for %d attributes", line, len(parts), len(attrs))
			}
			row := make([]float64, len(parts)-1)
			for i, p := range parts[:len(parts)-1] {
				v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
				if err != nil {
					return nil, fmt.Errorf("ml: arff line %d: %w", line, err)
				}
				row[i] = v
			}
			y, err := strconv.ParseFloat(strings.TrimSpace(parts[len(parts)-1]), 64)
			if err != nil {
				return nil, fmt.Errorf("ml: arff line %d: %w", line, err)
			}
			d.Add(row, y)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("ml: arff stream has no @data section")
	}
	return d, nil
}
