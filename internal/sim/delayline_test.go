package sim

import (
	"fmt"
	"reflect"
	"testing"

	"bufsim/internal/units"
)

// logActor records the string payload of every event it receives.
type logActor struct{ got []string }

func (a *logActor) OnEvent(_ int32, arg any) { a.got = append(a.got, arg.(string)) }

// TestDelayLineKeepsOriginalSeq pins the delay line's ordering contract.
// Packets p1 (arrives at 10) and p2 (arrives at 20) enter the wire at
// time 0. Event y at 20 is scheduled before p2 enters; event x at 20
// after it, but before p1's delivery re-posts the head for p2. The
// events must fire in original schedule order: p1, y, p2, x — exactly
// what one PostAt per packet produces. A head re-posted under a fresh
// sequence number would put p2 behind x.
func TestDelayLineKeepsOriginalSeq(t *testing.T) {
	run := func(push func(s *Scheduler, a *logActor, d *DelayLine, at units.Time, name string)) []string {
		s := NewScheduler()
		a := &logActor{}
		d := s.NewDelayLine(a, 0)
		push(s, a, &d, 10, "p1")
		s.PostAt(20, a, 0, "y")
		push(s, a, &d, 20, "p2")
		s.PostAt(20, a, 0, "x")
		s.Run(100)
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
		return a.got
	}
	viaLine := run(func(_ *Scheduler, _ *logActor, d *DelayLine, at units.Time, name string) { d.Push(at, name) })
	perPacket := run(func(s *Scheduler, a *logActor, _ *DelayLine, at units.Time, name string) { s.PostAt(at, a, 0, name) })
	want := []string{"p1", "y", "p2", "x"}
	if !reflect.DeepEqual(perPacket, want) {
		t.Fatalf("per-packet reference fired %v, want %v", perPacket, want)
	}
	if !reflect.DeepEqual(viaLine, want) {
		t.Errorf("delay line fired %v, want %v", viaLine, want)
	}
}

// TestDelayLineMatchesPerPacketEvents drives a delay line and a stream
// of unrelated timers through a long schedule, twice: once with the
// line, once posting one event per packet. The delivery order, and so
// the whole event order, must be identical, and the line must hold at
// most one heap entry.
func TestDelayLineMatchesPerPacketEvents(t *testing.T) {
	const n = 5000
	run := func(useLine bool) ([]string, int) {
		s := NewScheduler()
		a := &logActor{}
		d := s.NewDelayLine(a, 0)
		rng := NewRNG(3)
		// A feeder puts a packet on the wire every 1..4 ticks with a
		// fixed 50-tick delay, and schedules a timer at a colliding
		// instant now and then.
		var feed func()
		i := 0
		feed = func() {
			at := s.Now().Add(50)
			name := fmt.Sprintf("p%d", i)
			if useLine {
				d.Push(at, name)
			} else {
				s.PostAt(at, a, 0, name)
			}
			if i%3 == 0 {
				s.PostAt(at, a, 0, fmt.Sprintf("t%d", i))
			}
			i++
			if i < n {
				s.After(units.Duration(1+rng.Intn(4)), feed)
			}
		}
		s.At(0, feed)
		s.Run(units.Never - 1)
		return a.got, s.MaxPending()
	}
	lineOrder, linePeak := run(true)
	refOrder, refPeak := run(false)
	if !reflect.DeepEqual(lineOrder, refOrder) {
		for k := range refOrder {
			if lineOrder[k] != refOrder[k] {
				t.Fatalf("orders diverge at event %d: line %q, per-packet %q", k, lineOrder[k], refOrder[k])
			}
		}
		t.Fatalf("orders differ in length: %d vs %d", len(lineOrder), len(refOrder))
	}
	if linePeak >= refPeak {
		t.Errorf("heap peak with the line = %d, per-packet = %d; the line should keep packets out of the heap", linePeak, refPeak)
	}
}

// TestDelayLineBoundedRing keeps a wire busy for 10^6 packets — each
// arrival puts another packet on — and requires the ring to stay within
// twice the peak number in flight. An implementation that only advanced
// a head index over an ever-growing slice would keep every packet ever
// pushed.
func TestDelayLineBoundedRing(t *testing.T) {
	s := NewScheduler()
	w := &wire{s: s, left: 1_000_000}
	w.line = s.NewDelayLine(w, 0)
	if w.line.Cap() != 0 {
		t.Fatalf("ring allocated before the first push: cap %d", w.line.Cap())
	}
	for k := 0; k < 37; k++ {
		w.line.Push(units.Time(k), nil)
	}
	s.Run(units.Never - 1)
	if w.delivered != 1_000_000+37 {
		t.Fatalf("delivered %d packets, want %d", w.delivered, 1_000_000+37)
	}
	peak, cap := w.line.Peak(), w.line.Cap()
	if peak != 37 {
		t.Errorf("peak in flight = %d, want 37", peak)
	}
	if cap > 2*peak {
		t.Errorf("ring capacity %d exceeds twice the peak in flight (%d)", cap, peak)
	}
	if w.line.Len() != 0 || s.Pending() != 0 {
		t.Errorf("after drain: %d in flight, %d pending", w.line.Len(), s.Pending())
	}
}

// wire re-pushes a packet 100 ticks out for every arrival until left
// runs out, so the number in flight stays at its initial level.
type wire struct {
	s         *Scheduler
	line      DelayLine
	left      int
	delivered int
}

func (w *wire) OnEvent(int32, any) {
	w.delivered++
	if w.left > 0 {
		w.left--
		w.line.Push(w.s.Now().Add(100), nil)
	}
}

func TestDelayLineRejectsMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := NewScheduler()
	d := s.NewDelayLine(&logActor{}, 0)
	d.Push(20, "a")
	mustPanic("push before the tail's arrival", func() { d.Push(10, "b") })
	s.Run(30)
	mustPanic("push into the past", func() { d.Push(25, "c") })
}
