// Package sim implements the discrete-event simulation kernel that drives
// everything else: a clock, a pending-event priority queue, cancellable
// timers, and FIFO delay lines for propagating packets.
//
// The kernel is deliberately single-threaded. Determinism matters more for
// a reproduction study than parallel speed: two runs with the same seed
// must schedule, drop and acknowledge exactly the same packets. Events at
// the same instant fire in the order they were scheduled (stable FIFO
// tie-break by sequence number). Sweeps get their multi-core throughput
// from running independent simulations side by side, not from splitting
// one.
//
// # Throughput design
//
// Sweeping the paper's figures means hundreds of packet-level runs, so the
// kernel is built to schedule and fire tens of millions of events per
// second without allocating on the hot path:
//
//   - Events live in a pooled slot array, recycled through a free list.
//     Handles (Event) carry a generation counter, so Cancel on a handle
//     whose slot has been recycled is a safe no-op rather than a
//     use-after-free.
//   - The pending queue is a concrete 4-ary min-heap of inline
//     {time, seq, slot} entries — no interface boxing, no per-node heap
//     allocation, and a shallower tree with better cache locality than
//     container/heap's pointer-based binary heap.
//   - Hot callers schedule typed events (an Actor owner, an opcode, and a
//     pointer-shaped argument) via PostAt/PostAfter instead of closures,
//     so steady-state simulation allocates nothing per event. The
//     closure-based At/After remain for cold paths (experiment setup,
//     sampling) where convenience beats the one closure allocation.
//   - Packets in propagation do not sit in the heap. A link with a fixed
//     delay delivers in FIFO order, so each such link owns a DelayLine: a
//     power-of-two ring of (time, seq, payload) whose head alone is a heap
//     event. Push draws the sequence number at the moment the packet
//     enters the wire — exactly when a per-packet event would have drawn
//     it — and the head is re-posted under that original number, so pops
//     follow the identical (time, seq) total order and every result is
//     bit-identical to scheduling one event per packet. Each delivery
//     still fires as one kernel event (Processed counts it), but the heap
//     holds one entry per busy wire instead of one per packet.
//
// Heap depth (Pending, MaxPending, the sim.heap_depth gauges) therefore
// counts timers, transmissions in progress and one head per non-empty
// delay line — not every propagating packet. Links report their own
// in-flight counts (link.Instrument's in_flight gauges).
package sim

import (
	"fmt"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/units"
)

// Actor receives typed events. Components on the per-packet path (TCP
// senders and receivers, links, traffic generators) implement OnEvent and
// schedule themselves with PostAt/PostAfter; op is an opcode private to
// the actor and arg is the payload it passed when scheduling (typically a
// *packet.Packet or nil — pointer-shaped values avoid boxing).
type Actor interface {
	OnEvent(op int32, arg any)
}

// Event is a handle to a scheduled event, issued by At/After and
// PostAt/PostAfter. It is a small value, not a pointer: the event's
// storage belongs to the scheduler's pool and is recycled after the event
// fires or is cancelled. A stale handle (kept after its event fired) is
// detected by generation counter, so Cancel and Active on it are safe.
// The zero Event is a valid "no event" handle.
type Event struct {
	id  int32  // slot index + 1; 0 is the zero handle
	gen uint32 // slot generation this handle was issued for
}

// posFree is slot.pos for a slot on the free list; a pending slot's pos
// is its heap index.
const posFree int32 = -1

// slot is the pooled storage behind one scheduled event. An event
// fires line's head delivery if line is set, else actor.OnEvent(op, arg)
// if actor is set, else fn.
type slot struct {
	gen   uint32 // incremented on every recycle; stale handles mismatch
	pos   int32  // index in the heap while pending, else posFree
	op    int32
	actor Actor
	arg   any
	fn    func()
	line  *DelayLine
}

// entry is one pending-queue element. The ordering key (time, then
// scheduling sequence for FIFO ties) is stored inline so heap sifts never
// chase pointers.
type entry struct {
	at   units.Time
	seq  uint64
	slot int32
}

// before reports whether a fires strictly before b.
func before(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Scheduler is the simulation event loop. The zero value is not usable;
// call NewScheduler.
type Scheduler struct {
	now        units.Time
	seq        uint64
	heap       []entry
	slots      []slot
	free       []int32
	maxPending int
	stopped    bool
	aud        *audit.Auditor

	// Processed counts the events executed so far; useful for
	// benchmarking the kernel itself.
	Processed uint64
}

// NewScheduler returns a scheduler with the clock at the simulation epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() units.Time { return s.now }

// SetAuditor attaches an invariant checker to the kernel: every fired
// event is checked for clock monotonicity and slot/heap cross-link
// consistency. A nil auditor (the default) disables the checks.
func (s *Scheduler) SetAuditor(a *audit.Auditor) { s.aud = a }

// Pending returns the number of events waiting in the heap. A delay line
// contributes only its head, however many packets it carries.
func (s *Scheduler) Pending() int { return len(s.heap) }

// MaxPending returns the deepest the event heap has been (see Pending).
func (s *Scheduler) MaxPending() int { return s.maxPending }

// Active reports whether e refers to an event that is still pending: not
// yet fired, not cancelled, and not a recycled slot now owned by some
// later event. The zero Event is never active.
func (s *Scheduler) Active(e Event) bool {
	if e.id == 0 {
		return false
	}
	sl := &s.slots[e.id-1]
	return sl.gen == e.gen && sl.pos >= 0
}

// EventTime returns the instant a pending event is scheduled to fire, and
// whether the handle is still active.
func (s *Scheduler) EventTime(e Event) (units.Time, bool) {
	if !s.Active(e) {
		return 0, false
	}
	return s.heap[s.slots[e.id-1].pos].at, true
}

// allocSlot takes a slot from the free list, growing the pool on demand.
func (s *Scheduler) allocSlot() int32 {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	s.slots = append(s.slots, slot{})
	return int32(len(s.slots) - 1)
}

// release recycles a slot: the generation bump invalidates every
// outstanding handle, and clearing the references lets fired payloads be
// collected.
func (s *Scheduler) release(id int32) {
	sl := &s.slots[id]
	sl.gen++
	sl.pos = posFree
	sl.actor = nil
	sl.arg = nil
	sl.fn = nil
	sl.line = nil
	s.free = append(s.free, id)
}

// schedule is the shared path behind At/After/PostAt/PostAfter: it
// draws the next sequence number and inserts the event. Scheduling in
// the past panics: it always indicates a logic error in a component, and
// silently reordering time would corrupt every downstream measurement.
func (s *Scheduler) schedule(t units.Time, fn func(), a Actor, op int32, arg any) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	id := s.insert(t, s.seq)
	s.seq++
	sl := &s.slots[id]
	sl.fn = fn
	sl.actor = a
	sl.op = op
	sl.arg = arg
	return Event{id: id + 1, gen: sl.gen}
}

// insert puts an entry for a fresh slot into the heap under an already
// drawn sequence number and returns the slot for the caller to fill.
// Delay lines use it to post their head under the number reserved when
// the packet entered the wire.
func (s *Scheduler) insert(t units.Time, seq uint64) int32 {
	id := s.allocSlot()
	i := len(s.heap)
	s.heap = append(s.heap, entry{at: t, seq: seq, slot: id})
	s.siftUp(i)
	if len(s.heap) > s.maxPending {
		s.maxPending = len(s.heap)
	}
	return id
}

// At schedules fn to run at the absolute time t.
func (s *Scheduler) At(t units.Time, fn func()) Event {
	return s.schedule(t, fn, nil, 0, nil)
}

// After schedules fn to run d from now.
func (s *Scheduler) After(d units.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.schedule(s.now.Add(d), fn, nil, 0, nil)
}

// PostAt schedules a typed event: at time t the kernel calls
// a.OnEvent(op, arg). This is the allocation-free path hot components use
// instead of closures.
func (s *Scheduler) PostAt(t units.Time, a Actor, op int32, arg any) Event {
	return s.schedule(t, nil, a, op, arg)
}

// PostAfter schedules a typed event d from now.
func (s *Scheduler) PostAfter(d units.Duration, a Actor, op int32, arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.schedule(s.now.Add(d), nil, a, op, arg)
}

// Cancel removes a pending event. Cancelling the zero handle, an event
// that already fired, one already cancelled, or a handle whose slot has
// been recycled by a later event is a no-op, so callers can cancel
// unconditionally.
func (s *Scheduler) Cancel(e Event) {
	if !s.Active(e) {
		return
	}
	id := e.id - 1
	s.removeAt(int(s.slots[id].pos))
	s.release(id)
}

// Reschedule cancels e (if pending) and schedules fn at t, returning the
// new event. It is the common pattern for retransmission timers.
func (s *Scheduler) Reschedule(e Event, t units.Time, fn func()) Event {
	s.Cancel(e)
	return s.At(t, fn)
}

// removeAt deletes the heap entry at index i, restoring heap order.
func (s *Scheduler) removeAt(i int) {
	last := len(s.heap) - 1
	if i == last {
		s.heap = s.heap[:last]
		return
	}
	moved := s.heap[last]
	s.heap = s.heap[:last]
	s.heap[i] = moved
	s.slots[moved.slot].pos = int32(i)
	if p := (i - 1) / 4; i > 0 && before(moved, s.heap[p]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}

// siftUp restores heap order from index i toward the root.
func (s *Scheduler) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !before(e, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.slots[s.heap[i].slot].pos = int32(i)
		i = p
	}
	s.heap[i] = e
	s.slots[e.slot].pos = int32(i)
}

// siftDown restores heap order from index i toward the leaves.
func (s *Scheduler) siftDown(i int) {
	e := s.heap[i]
	n := len(s.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(s.heap[j], s.heap[m]) {
				m = j
			}
		}
		if !before(s.heap[m], e) {
			break
		}
		s.heap[i] = s.heap[m]
		s.slots[s.heap[i].slot].pos = int32(i)
		i = m
	}
	s.heap[i] = e
	s.slots[e.slot].pos = int32(i)
}

// popRoot removes and returns the heap minimum, restoring heap order.
func (s *Scheduler) popRoot() entry {
	top := s.heap[0]
	last := len(s.heap) - 1
	if last > 0 {
		moved := s.heap[last]
		s.heap = s.heap[:last]
		s.heap[0] = moved
		s.slots[moved.slot].pos = 0
		s.siftDown(0)
	} else {
		s.heap = s.heap[:0]
	}
	return top
}

// fire pops the earliest event, advances the clock and dispatches it. The
// slot is recycled before dispatch, so the handler is free to schedule
// (possibly reusing the very slot that just fired). A delay line's head
// is handed to the line, which pops it or reuses its root entry and slot
// for the next payload.
func (s *Scheduler) fire() {
	top := s.heap[0]
	if s.aud != nil {
		if top.at < s.now {
			s.aud.Violationf(s.now, "sim", "clock-monotonic",
				"event at %v fires after clock reached %v", top.at, s.now)
		}
		if sl := &s.slots[top.slot]; sl.pos != 0 {
			s.aud.Violationf(s.now, "sim", "slot-heap-link",
				"heap root references slot %d with pos %d (stale or recycled slot about to fire)", top.slot, sl.pos)
		}
	}
	s.now = top.at
	s.Processed++
	if d := s.slots[top.slot].line; d != nil {
		d.fireHead(top.slot)
		return
	}
	s.popRoot()
	sl := &s.slots[top.slot]
	fn, actor, op, arg := sl.fn, sl.actor, sl.op, sl.arg
	s.release(top.slot)
	if actor != nil {
		actor.OnEvent(op, arg)
	} else {
		fn()
	}
}

// Instrument registers the kernel's telemetry into reg: events processed,
// current and peak heap depth, and the simulated clock. Values are
// published by a snapshot-time collector, so instrumentation adds no
// per-event work and cannot perturb scheduling. A nil registry is a no-op.
func (s *Scheduler) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	events := reg.Counter("sim.events_processed")
	depth := reg.Gauge("sim.heap_depth")
	depthMax := reg.Gauge("sim.heap_depth_max")
	clock := reg.Gauge("sim.time_seconds")
	reg.OnCollect(func() {
		events.Set(int64(s.Processed))
		depth.Set(float64(len(s.heap)))
		depthMax.Set(float64(s.maxPending))
		clock.Set(s.now.Seconds())
	})
}

// Stop makes Run return after the event currently executing completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events in order until the clock would pass `until`, no
// events remain, or Stop is called. The clock is left at `until` (or at
// the last event time if the queue drained first and that is earlier).
func (s *Scheduler) Run(until units.Time) {
	s.stopped = false
	for len(s.heap) > 0 && !s.stopped {
		if s.heap[0].at > until {
			break
		}
		s.fire()
	}
	if !s.stopped && s.now < until {
		s.now = until
	}
}

// Step executes exactly one event if any is pending and returns whether an
// event was executed. Useful in tests.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	s.fire()
	return true
}

// VerifyInvariants exhaustively checks the kernel's internal structure:
// heap order, heap-entry/slot cross-links, free-list consistency, and
// that no slot is both pending and free. It is O(pool size) and meant for
// tests and the fuzz harness, not the hot path. It returns the first
// problem found, or nil.
func (s *Scheduler) VerifyInvariants() error {
	for i := 1; i < len(s.heap); i++ {
		p := (i - 1) / 4
		if before(s.heap[i], s.heap[p]) {
			return fmt.Errorf("sim: heap order violated at index %d: child (at=%v seq=%d) before parent (at=%v seq=%d)",
				i, s.heap[i].at, s.heap[i].seq, s.heap[p].at, s.heap[p].seq)
		}
	}
	inHeap := make(map[int32]int, len(s.heap))
	for i, e := range s.heap {
		if e.at < s.now {
			return fmt.Errorf("sim: pending event at %v is before now %v", e.at, s.now)
		}
		if e.slot < 0 || int(e.slot) >= len(s.slots) {
			return fmt.Errorf("sim: heap index %d references slot %d outside pool of %d", i, e.slot, len(s.slots))
		}
		if prev, dup := inHeap[e.slot]; dup {
			return fmt.Errorf("sim: slot %d appears in heap twice (indexes %d and %d)", e.slot, prev, i)
		}
		inHeap[e.slot] = i
		if got := s.slots[e.slot].pos; got != int32(i) {
			return fmt.Errorf("sim: slot %d at heap index %d records pos %d", e.slot, i, got)
		}
	}
	inFree := make(map[int32]bool, len(s.free))
	for _, id := range s.free {
		if id < 0 || int(id) >= len(s.slots) {
			return fmt.Errorf("sim: free list references slot %d outside pool of %d", id, len(s.slots))
		}
		if inFree[id] {
			return fmt.Errorf("sim: slot %d appears in free list twice", id)
		}
		inFree[id] = true
		if _, pending := inHeap[id]; pending {
			return fmt.Errorf("sim: slot %d is both pending and free", id)
		}
		if got := s.slots[id].pos; got != posFree {
			return fmt.Errorf("sim: free slot %d records pos %d", id, got)
		}
	}
	if len(s.heap)+len(s.free) != len(s.slots) {
		return fmt.Errorf("sim: %d pending + %d free != %d slots", len(s.heap), len(s.free), len(s.slots))
	}
	return nil
}
