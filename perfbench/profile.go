package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The CPU profiles are read with a minimal decoder for the pprof
// protobuf format (profile.proto), so the benchmark needs nothing beyond
// the standard library. Only the fields attribution uses are decoded:
// samples, locations, functions and the string table.

// cpuProfile is a decoded CPU profile: one entry per sample, holding the
// sample count and the function names of its stack, leaf first.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	count int64
	stack []string // function names, leaf first
}

// readCPUProfile decodes a (gzip-compressed) pprof CPU profile file.
func readCPUProfile(path string) (*cpuProfile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseCPUProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decode profile %s: %w", path, err)
	}
	return p, nil
}

func parseCPUProfile(raw []byte) (*cpuProfile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
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
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("sample without values")
		}
		ps := profSample{count: s.values[0]}
		for _, loc := range s.locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("sample names unknown location %d", loc)
			}
			for _, fn := range fns {
				idx, ok := funcNames[fn]
				if !ok || idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("location %d names unknown function %d", loc, fn)
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the payload. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// layerOf names the layer a function belongs to: the simulator package
// under bufsim/internal (a subpackage counts as its parent, so
// workload/profile is "workload"), "runtime" for the Go runtime and its
// internal packages (GC, malloc, scheduling and the map implementation),
// and "other" for everything else.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "bufsim/internal/"):
		rest := strings.TrimPrefix(pkg, "bufsim/internal/")
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// layerShares returns each layer's share of the profile's self samples,
// attributing every sample to the layer of its leaf frame.
func (p *cpuProfile) layerShares() map[string]float64 {
	var total int64
	counts := map[string]int64{}
	for _, s := range p.samples {
		total += s.count
		layer := "other"
		if len(s.stack) > 0 {
			layer = layerOf(s.stack[0])
		}
		counts[layer] += s.count
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for layer, c := range counts {
		shares[layer] = float64(c) / float64(total)
	}
	return shares
}

// gcRoots are the runtime entry points of garbage-collection work: the
// background mark workers, mutator assists, the background sweeper and
// mark termination.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.gcMarkTermination": true,
}

// gcShare returns the share of samples whose stack passes through a
// garbage-collector entry point.
func (p *cpuProfile) gcShare() float64 {
	var total, gc int64
	for _, s := range p.samples {
		total += s.count
		for _, fn := range s.stack {
			if gcRoots[fn] {
				gc += s.count
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(gc) / float64(total)
}
