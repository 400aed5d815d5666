package sim

import (
	"fmt"

	"bufsim/internal/units"
)

// DelayLine is a FIFO of payloads in propagation, delivered to one actor
// in the order they were pushed. Only the head is a heap event; the rest
// wait in a power-of-two ring. Each payload keeps the sequence number it
// drew when pushed, and the head is re-posted under that number, so the
// kernel fires deliveries in exactly the (time, seq) order one PostAt per
// payload would have produced (see the package doc).
//
// The ring is allocated on the first Push and doubles only when full, so
// its capacity never exceeds twice the peak number of payloads in flight.
// The kernel holds a pointer to the line while it carries payloads, so a
// DelayLine must not be copied after its first Push.
type DelayLine struct {
	s    *Scheduler
	dst  Actor
	op   int32
	ring []lineEntry
	head int // ring index of the oldest payload
	n    int // payloads in flight
	peak int
}

// lineEntry is one payload in flight with its reserved (at, seq) key.
type lineEntry struct {
	at  units.Time
	seq uint64
	arg any
}

// NewDelayLine returns an empty line delivering each payload as
// dst.OnEvent(op, payload). It is a value so an owner can embed it
// without a separate allocation.
func (s *Scheduler) NewDelayLine(dst Actor, op int32) DelayLine {
	return DelayLine{s: s, dst: dst, op: op}
}

// Push puts arg on the line for delivery at t. Arrival times must not
// decrease along the line — a fixed-delay wire fed by one transmitter
// guarantees it — and t may not lie in the past; either violation
// panics.
func (d *DelayLine) Push(t units.Time, arg any) {
	s := d.s
	if t < s.now {
		panic(fmt.Sprintf("sim: delay line push at %v before now %v", t, s.now))
	}
	if d.n > 0 {
		if tail := d.ring[(d.head+d.n-1)&(len(d.ring)-1)].at; t < tail {
			panic(fmt.Sprintf("sim: delay line push at %v before the tail's arrival %v", t, tail))
		}
	}
	if d.n == len(d.ring) {
		d.grow()
	}
	seq := s.seq
	s.seq++
	d.ring[(d.head+d.n)&(len(d.ring)-1)] = lineEntry{at: t, seq: seq, arg: arg}
	d.n++
	if d.n > d.peak {
		d.peak = d.n
	}
	if d.n == 1 {
		s.slots[s.insert(t, seq)].line = d
	}
}

// grow doubles the ring (allocating two slots on first use), unwrapping
// the payloads so the head sits at index 0.
func (d *DelayLine) grow() {
	size := 2 * len(d.ring)
	if size == 0 {
		size = 2
	}
	ring := make([]lineEntry, size)
	for i := 0; i < d.n; i++ {
		ring[i] = d.ring[(d.head+i)&(len(d.ring)-1)]
	}
	d.ring = ring
	d.head = 0
}

// fireHead delivers the head payload; the kernel has already advanced
// the clock to its arrival. The head's heap entry sits at the root, in
// slot id. If another payload follows, it takes over the root under its
// original sequence number and sifts down — usually only a level or two,
// since the next arrival on a busy wire is close behind — and the slot
// stays with the line. Otherwise the root is popped and the slot freed.
func (d *DelayLine) fireHead(id int32) {
	s := d.s
	mask := len(d.ring) - 1
	e := &d.ring[d.head]
	arg := e.arg
	e.arg = nil
	d.head = (d.head + 1) & mask
	d.n--
	if d.n > 0 {
		next := &d.ring[d.head]
		s.heap[0] = entry{at: next.at, seq: next.seq, slot: id}
		s.siftDown(0)
	} else {
		s.popRoot()
		s.release(id)
	}
	d.dst.OnEvent(d.op, arg)
}

// Len returns the number of payloads in flight.
func (d *DelayLine) Len() int { return d.n }

// Peak returns the most payloads ever in flight at once.
func (d *DelayLine) Peak() int { return d.peak }

// Cap returns the ring's current capacity (0 before the first Push).
func (d *DelayLine) Cap() int { return len(d.ring) }
