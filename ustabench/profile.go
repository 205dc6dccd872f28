package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the layers CPU time is attributed to, each with the
// package-path prefixes of the frames it owns. See cpuFractions for how a
// sample picks its frame.
var cpuLayers = []struct {
	layer    string
	prefixes []string
}{
	{"thermal", []string{"repro/internal/thermal", "repro/internal/mat"}},
	{"device", []string{"repro/internal/device", "repro/internal/soc", "repro/internal/battery"}},
	{"sensors", []string{"repro/internal/sensors"}},
	{"governor", []string{"repro/internal/governor"}},
	{"workload", []string{"repro/internal/workload"}},
	{"core", []string{"repro/internal/core"}},
	{"ml", []string{"repro/internal/ml"}},
	{"fleet", []string{"repro/internal/fleet", "net", "internal/poll", "syscall"}},
	{"sink", []string{"repro/internal/sink", "repro/internal/analytics", "repro/internal/obs", "repro/internal/trace"}},
	{"scenario", []string{"repro/internal/scenario"}},
	{"runtime", []string{"runtime", "internal/runtime"}},
	{"bench", []string{"main", "repro/ustabench"}}, // the binary; its test binary
}

// CPULayerNames lists the layers cpuFractions reports, "other" last.
func CPULayerNames() []string {
	names := make([]string, 0, len(cpuLayers)+1)
	for _, l := range cpuLayers {
		names = append(names, l.layer)
	}
	return append(names, "other")
}

// layerOf maps a package path to its layer.
func layerOf(pkg string) string {
	for _, l := range cpuLayers {
		for _, p := range l.prefixes {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return l.layer
			}
		}
	}
	return "other"
}

// packageOf extracts the package path from a symbol name such as
// "repro/internal/thermal.(*Ladder).AdvanceComposite" or "runtime.mallocgc".
func packageOf(fn string) string {
	head := fn // type arguments and receivers may contain slashes of their own
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		head = fn[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuFractions decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) and returns each layer's share of self CPU time, keyed by
// the names CPULayerNames lists. A sample is charged to the layer of its
// leaf frame (the innermost inlined function at the sampled PC); a leaf in
// a standard-library package no layer owns (math, sort, encoding/json, ...)
// is charged to the nearest caller frame a layer does own, so math.Exp
// under the thermal model counts as thermal. Runtime leaves (allocation,
// GC, scheduling) stay runtime. Samples with no owned frame are "other".
func cpuFractions(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}    // function id → string index
		locFns   = map[uint64][]uint64{} // location id → function ids, leaf first
		samples  []pbSample
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			s, err := parseSample(b)
			samples = append(samples, s)
			return err
		case 4: // location
			return parseLocation(b, locFns)
		case 5: // function
			return parseFunction(b, funcName)
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, n := range CPULayerNames() {
		out[n] = 0
	}
	var total float64
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		layer := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if si, ok := funcName[fn]; ok && si >= 0 && int(si) < len(strs) {
					if l := layerOf(packageOf(strs[si])); l != "other" {
						layer = l
						break frames
					}
				}
			}
		}
		w := float64(s.values[0])
		out[layer] += w
		total += w
	}
	if total == 0 {
		return out, nil
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

func parseSample(b []byte) (pbSample, error) {
	var s pbSample
	err := pbFields(b, func(field, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			return pbRepeated(wire, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
		case 2:
			return pbRepeated(wire, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
		}
		return nil
	})
	return s, err
}

// parseLocation records the location's function ids: its Line entries,
// innermost inlined function first, its callers after.
func parseLocation(b []byte, fns map[uint64][]uint64) error {
	var id uint64
	var ids []uint64
	err := pbFields(b, func(field, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			id = v
		case 4:
			return pbFields(sub, func(f, _ int, lv uint64, _ []byte) error {
				if f == 1 {
					ids = append(ids, lv)
				}
				return nil
			})
		}
		return nil
	})
	fns[id] = ids
	return err
}

func parseFunction(b []byte, names map[uint64]int64) error {
	var id uint64
	var name int64
	err := pbFields(b, func(field, _ int, v uint64, _ []byte) error {
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	names[id] = name
	return err
}

// pbRepeated decodes a repeated varint field in packed or unpacked form.
func pbRepeated(wire int, v uint64, b []byte, emit func(uint64)) error {
	if wire == 0 {
		emit(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		emit(x)
		b = b[n:]
	}
	return nil
}

// pbFields walks a protobuf message, calling fn with each field's number,
// wire type and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
