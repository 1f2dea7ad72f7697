package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
)

// The traced run folds a CPU profile and an allocation profile by layer.
// The profiles are gzipped profile.proto messages; the decoder below reads
// only the fields folding needs (sample types, samples, locations,
// functions and the string table), so the benchmark needs no module
// beyond the standard library.

// frame is one function in a sample's stack.
type frame struct {
	fn, file string
}

// profSample is one stack (leaf first) with its value of the chosen
// sample type.
type profSample struct {
	stack []frame
	value int64
}

// parseProfile decodes a gzipped pprof profile and returns its samples
// valued by the sample type named typ ("cpu", "alloc_space", ...).
func parseProfile(data []byte, typ string) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		types     []int64 // sample types, as string-table indexes
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64][2]int64{} // function id -> (name, filename) string indexes
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			types = append(types, typ)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcNames[id] = [2]int64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	vi := -1
	for i, t := range types {
		if str(t) == typ {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile: no %q sample type", typ)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			continue
		}
		ps := profSample{value: s.values[vi]}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				f := funcNames[fid]
				ps.stack = append(ps.stack, frame{fn: str(f[0]), file: str(f[1])})
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendPacked appends a repeated integer field that may be encoded
// packed (wire type 2) or as one varint.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, integer value (varint and fixed types) and payload
// (length-delimited type).
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// modulePrefix is the import-path prefix of the program's packages.
const modulePrefix = "asmsim/internal/"

// layerOf names the layer a sample's self time belongs to: the leaf
// frame's package, with the simulator split by function (tick loop,
// skip-ahead, alone-run ground truth), the observers folded into one
// layer, and the runtime split into GC, allocation, map and other work.
func layerOf(stack []frame) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf.fn, modulePrefix):
		pkg := leaf.fn[len(modulePrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "sim":
			switch {
			case strings.Contains(leaf.fn, "skipAhead"):
				return "sim.skip"
			case strings.HasPrefix(path.Base(leaf.file), "alone"):
				return "sim.alone"
			}
			return "sim.tick"
		case "telemetry", "dash", "slo", "evtrace":
			return "telemetry"
		}
		return pkg
	case strings.HasPrefix(leaf.fn, "runtime.") || strings.HasPrefix(leaf.fn, "internal/runtime/"):
		for _, f := range stack {
			switch f.fn {
			case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
				"runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge", "runtime.GC":
				return "runtime.gc"
			}
		}
		if strings.HasPrefix(leaf.fn, "runtime.map") || strings.HasPrefix(leaf.fn, "internal/runtime/maps.") {
			return "runtime.map"
		}
		for _, f := range stack {
			if strings.HasPrefix(f.fn, "runtime.mallocgc") || f.fn == "runtime.newobject" || f.fn == "runtime.growslice" {
				return "runtime.malloc"
			}
		}
		return "runtime.other"
	}
	return "other"
}

// foldByLayer sums sample values per layer.
func foldByLayer(samples []profSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += s.value
	}
	return out
}

// shares turns per-layer totals into fractions of their sum.
func shares(folded map[string]int64) map[string]float64 {
	var total int64
	for _, v := range folded {
		total += v
	}
	out := make(map[string]float64, len(folded))
	for k, v := range folded {
		out[k] = ratio(float64(v), float64(total))
	}
	return out
}

// subFolded returns after - before per layer, dropping non-positive
// differences (cumulative allocation profiles only grow).
func subFolded(after, before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// formatFolded renders per-layer totals as "layer value share" lines,
// largest first.
func formatFolded(folded map[string]int64) string {
	keys := make([]string, 0, len(folded))
	for k := range folded {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if folded[keys[i]] != folded[keys[j]] {
			return folded[keys[i]] > folded[keys[j]]
		}
		return keys[i] < keys[j]
	})
	sh := shares(folded)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-16s %14d %7.4f\n", k, folded[k], sh[k])
	}
	return b.String()
}
