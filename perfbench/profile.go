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

// shareLayers are the layers a CPU profile's samples are attributed to;
// every sample lands in exactly one, so the shares sum to 1.
var shareLayers = []string{
	"sim", "proc", "mesh", "dir", "cache", "ext", "proto", "memtier",
	"machine", "apps", "sweep", "litmus", "mc", "runtime", "other",
}

// hostShares sums a runtime/pprof CPU profile by layer and reports how
// many samples it holds. A sample is charged to the innermost simulator
// frame on its stack, so allocation, map operations, channel wake-ups
// and library calls count against the layer that made them. Garbage
// collection is the runtime's: a mark assist below that frame, or a
// stack with no simulator frame at all (background marking, the idle
// scheduler). Stacks with neither a simulator nor a runtime leaf are
// other.
func hostShares(gz []byte) (shares map[string]float64, samples int, err error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	totals := map[string]int64{}
	var all int64
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			frames = append(frames, p.locFuncs[loc]...)
		}
		l := layerOf(frames)
		totals[l] += s.value
		all += s.value
	}
	out := map[string]float64{}
	for _, l := range shareLayers {
		if all > 0 {
			out[l] = float64(totals[l]) / float64(all)
		}
	}
	return out, len(p.samples), nil
}

// layerOf attributes one stack, leaf first.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcAssist") || strings.HasPrefix(f, "runtime.gcDrain") {
			return "runtime"
		}
		if l, ok := moduleLayer(pkgOf(f)); ok {
			return l
		}
	}
	if len(frames) > 0 && isRuntime(pkgOf(frames[0])) {
		return "runtime"
	}
	return "other"
}

// moduleLayer maps a package path of the simulator's module (or the
// benchmark itself) to its layer; packages without their own entry count
// as other.
func moduleLayer(pkg string) (string, bool) {
	const prefix = "swex/internal/"
	if !strings.HasPrefix(pkg, prefix) {
		if pkg == "swex" || pkg == "main" {
			return "other", true
		}
		return "", false
	}
	name := strings.TrimPrefix(pkg, prefix)
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	for _, l := range shareLayers {
		if l == name {
			return l, true
		}
	}
	return "other", true
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// pkgOf extracts the package path from a symbol name such as
// "swex/internal/sim.(*Engine).Step".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof profile the shares need.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes the gzipped protocol buffer runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), keeping only samples,
// locations, functions and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]int64{} // function id -> string index
	locLines := map[uint64][]uint64{}
	p := &profile{locFuncs: map[uint64][]string{}}
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []int64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, fns := range locLines {
		for _, fn := range fns {
			idx := funcName[fn]
			if idx < 0 || int(idx) >= len(strs) {
				return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
			}
			p.locFuncs[loc] = append(p.locFuncs[loc], strs[idx])
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// fields walks one protocol buffer message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func fields(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
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
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field in either encoding: one value,
// or a packed run.
func varints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
