package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bufsim/internal/sim.(*Scheduler).fire":                "sim",
		"bufsim/internal/link.(*Link).OnEvent":                 "link",
		"bufsim/internal/tcp.(*Sender).Handle.func1":           "tcp",
		"bufsim/internal/workload/profile.Curve.At":            "workload",
		"runtime.mallocgc":                                     "runtime",
		"runtime.gcBgMarkWorker":                               "runtime",
		"runtime.scanobject":                                   "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "runtime",
		"runtime/internal/atomic.Load":                         "runtime",
		"main.(*timedQueue).Enqueue":                           "other",
		"sync/atomic.(*Int64).Add":                             "other",
		"bufsim/internal/experiment.RunCCFamily.func2":         "experiment",
		"bufsim/internal/queue.(*DropTail).Enqueue":            "queue",
		"bufsim/internal/node.(*Host).Handle":                  "node",
		"bufsim/internal/topology.(*Dumbbell).AddFlow":         "topology",
		"slices.SortFunc[go.shape.[]float64,go.shape.float64]": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protoBuf encodes the few protobuf constructs a pprof profile uses.
type protoBuf struct{ bytes.Buffer }

func (b *protoBuf) varint(num int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *protoBuf) bytesField(num int, p []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(p))))
	b.Write(p)
}

func (b *protoBuf) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytesField(num, p)
}

// syntheticProfile builds a profile whose samples have the given stacks
// (function names, leaf first) and counts. Every function gets its own
// location, except that the frames of inlined share one location, leaf
// first, the way the Go runtime records inlining; a stack that starts
// with inlined[0] is that location alone.
func syntheticProfile(stacks [][]string, counts []uint64, inlined []string) []byte {
	var prof protoBuf
	strs := []string{""}
	funcID := map[string]uint64{}
	intern := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		strs = append(strs, name)
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		var fn protoBuf
		fn.varint(1, id)
		fn.varint(2, uint64(len(strs)-1))
		prof.bytesField(5, fn.Bytes())
		return id
	}
	nextLoc := uint64(1)
	location := func(names ...string) uint64 {
		var loc protoBuf
		loc.varint(1, nextLoc)
		for _, n := range names {
			var line protoBuf
			line.varint(1, intern(n))
			loc.bytesField(4, line.Bytes())
		}
		prof.bytesField(4, loc.Bytes())
		nextLoc++
		return nextLoc - 1
	}
	if len(inlined) > 0 {
		location(inlined...)
	}
	for i, stack := range stacks {
		var locs []uint64
		for _, fn := range stack {
			if len(inlined) > 0 && fn == inlined[0] {
				locs = append(locs, 1)
				break
			}
			locs = append(locs, location(fn))
		}
		var s protoBuf
		if len(locs) > 2 {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, counts[i], counts[i]*10e6)
		prof.bytesField(2, s.Bytes())
	}
	for _, str := range strs {
		prof.bytesField(6, []byte(str))
	}
	return prof.Bytes()
}

func TestLayerSharesAttributeLeafFrame(t *testing.T) {
	raw := syntheticProfile([][]string{
		// A malloc under TCP is runtime time, not TCP time.
		{"runtime.mallocgc", "bufsim/internal/tcp.(*Sender).SendNew", "bufsim/internal/sim.(*Scheduler).Run"},
		{"bufsim/internal/sim.siftDown", "bufsim/internal/sim.(*Scheduler).Run"},
		// GC work is runtime time, and counts towards the GC share.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// The inlined leaf decides, not the function it was inlined into.
		{"bufsim/internal/queue.(*DropTail).Len", "bufsim/internal/link.(*Link).Send"},
		{"main.main"},
	}, []uint64{3, 4, 2, 1, 10}, []string{"bufsim/internal/queue.(*DropTail).Len", "bufsim/internal/link.(*Link).Send"})

	p, err := parseCPUProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 5 {
		t.Fatalf("decoded %d samples, want 5", len(p.samples))
	}
	if got := p.samples[3].stack; len(got) != 2 || got[0] != "bufsim/internal/queue.(*DropTail).Len" {
		t.Errorf("inlined location decoded as %q, want the inlined leaf first", got)
	}
	shares := p.layerShares()
	for layer, want := range map[string]float64{"runtime": 5.0 / 20, "sim": 4.0 / 20, "queue": 1.0 / 20, "other": 10.0 / 20, "tcp": 0, "link": 0} {
		if got := shares[layer]; math.Abs(got-want) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", layer, got, want)
		}
	}
	if got := p.gcShare(); math.Abs(got-2.0/20) > 1e-12 {
		t.Errorf("gcShare = %v, want %v", got, 2.0/20)
	}
}

func TestParseRejectsCorruptProfile(t *testing.T) {
	raw := syntheticProfile([][]string{{"runtime.mallocgc"}}, []uint64{1}, nil)
	if _, err := parseCPUProfile(raw[:len(raw)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

func TestParseRuntimeProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a second")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(time.Second)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples decoded from a one-second profile")
	}
	sum := 0.0
	for _, s := range p.layerShares() {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	found := false
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no sample passes through the spinning function")
	}
}
