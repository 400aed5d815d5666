package metrics

import (
	"bytes"
	"math"
	"testing"
)

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(3)
	g.SetMax(9)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("z", []float64{1, 2})
	h.Observe(1.5)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram accumulated")
	}
	r.OnCollect(func() { t.Fatal("collector on nil registry ran") })
	r.Collect()
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Gauges != nil {
		t.Fatal("nil registry snapshot not empty")
	}
	r.Merge("p", New())
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("events") != c {
		t.Fatal("same name returned a different counter")
	}
	c.Set(42)
	if c.Value() != 42 {
		t.Fatal("Set did not overwrite")
	}
	g := r.Gauge("depth")
	g.SetMax(3)
	g.SetMax(1)
	if g.Value() != 3 {
		t.Fatalf("SetMax kept %v, want 3", g.Value())
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.counts[0]; got != 2 { // <= 1
		t.Fatalf("bucket0 = %d, want 2", got)
	}
	if got := h.counts[3]; got != 1 { // overflow
		t.Fatalf("overflow = %d, want 1", got)
	}
	if h.min != 0.5 || h.max != 500 {
		t.Fatalf("min/max = %v/%v", h.min, h.max)
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("median bound = %v, want 10", q)
	}
	if q := h.Quantile(1); q != 500 {
		t.Fatalf("q100 = %v, want observed max 500", q)
	}
	if m := h.Mean(); math.Abs(m-(0.5+0.7+5+50+500)/5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.1, 10, 4)
	want := []float64{0.1, 1, 10, 100}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-9 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestCollectorsRunAtSnapshot(t *testing.T) {
	r := New()
	g := r.Gauge("live")
	n := 0
	r.OnCollect(func() { n++; g.Set(float64(n)) })
	snap := r.Snapshot()
	if snap.Gauges["live"] != 1 {
		t.Fatalf("gauge = %v, want 1", snap.Gauges["live"])
	}
	r.Snapshot()
	if n != 2 {
		t.Fatalf("collector ran %d times, want 2", n)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		r.Gauge("g").Set(0.5)
		r.Histogram("h", []float64{1, 2}).Observe(1.5)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("non-deterministic JSON:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if b1.Len() == 0 {
		t.Fatal("empty JSON")
	}
}

func TestMerge(t *testing.T) {
	parent := New()
	for i := 0; i < 2; i++ {
		child := New()
		child.Counter("drops").Add(3)
		child.Gauge("occ").Set(float64(i))
		child.Histogram("soj", []float64{1, 10}).Observe(5)
		parent.Merge("cell", child)
	}
	snap := parent.Snapshot()
	if got := snap.Counters["cell/drops"]; got != 6 {
		t.Fatalf("merged counter = %d, want 6", got)
	}
	if got := snap.Gauges["cell/occ"]; got != 1 {
		t.Fatalf("merged gauge = %v, want 1 (last wins)", got)
	}
	h := snap.Histograms["cell/soj"]
	if h.Count != 2 || h.Buckets[1].Count != 2 {
		t.Fatalf("merged histogram = %+v", h)
	}
}

func TestMergeRunsChildCollectors(t *testing.T) {
	parent := New()
	child := New()
	g := child.Gauge("v")
	child.OnCollect(func() { g.Set(7) })
	parent.Merge("c", child)
	if got := parent.Gauge("c/v").Value(); got != 7 {
		t.Fatalf("collector-populated gauge = %v, want 7", got)
	}
}
