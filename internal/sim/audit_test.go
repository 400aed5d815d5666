package sim

import (
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/units"
)

// TestKernelCleanUnderAudit runs a busy schedule — zero-duration events,
// same-instant bursts, cancels of live and stale handles, reschedules,
// heavy slot recycling — with the auditor attached, and requires zero
// violations plus a structurally sound kernel at every step.
func TestKernelCleanUnderAudit(t *testing.T) {
	aud := audit.New()
	s := NewScheduler()
	s.SetAuditor(aud)
	verify := func() {
		t.Helper()
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	// Zero-duration events: fire at the current instant, in FIFO order.
	var order []int
	s.At(10, func() {
		s.After(0, func() { order = append(order, 1) })
		s.After(0, func() { order = append(order, 2) })
	})
	s.Run(20)
	verify()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("zero-duration events fired as %v, want [1 2]", order)
	}

	// Stale handles: cancel after fire, cancel after recycle, reschedule
	// a stale handle — all while the auditor watches the heap/slot links.
	e1 := s.At(30, func() {})
	s.Run(40)
	s.Cancel(e1)
	fired := false
	e2 := s.At(50, func() { fired = true })
	s.Cancel(e1) // stale again, e2 likely occupies e1's slot
	verify()
	if !s.Active(e2) {
		t.Fatal("stale cancel killed a live event")
	}
	e3 := s.Reschedule(e1, 60, func() {})
	verify()
	s.Run(70)
	verify()
	if !fired || s.Active(e3) {
		t.Fatalf("fired=%v active(e3)=%v after run", fired, s.Active(e3))
	}

	// Churn: interleaved schedule/cancel across many recycles.
	var handles []Event
	for i := 0; i < 200; i++ {
		handles = append(handles, s.At(units.Time(100+i%7), func() {}))
		if i%3 == 0 {
			s.Cancel(handles[i/2])
		}
	}
	verify()
	s.Run(200)
	verify()
	if aud.Count() != 0 {
		t.Fatalf("kernel audit violations: %v", aud.Err())
	}
}

// FuzzSchedulerInvariants decodes an arbitrary byte stream into kernel
// operations (schedule closure/typed, cancel, reschedule, step, run) and
// checks the full structural invariant set after every operation, with
// the auditor attached throughout.
func FuzzSchedulerInvariants(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x41, 0x02, 0x83, 0x00, 0xc1, 0x07})
	f.Add([]byte("schedule, cancel, step, repeat"))
	f.Fuzz(func(t *testing.T, data []byte) {
		aud := audit.New()
		s := NewScheduler()
		s.SetAuditor(aud)
		a := &testActor{}
		line := s.NewDelayLine(a, 9)
		var tail units.Time
		var handles []Event
		for i := 0; i+1 < len(data); i += 2 {
			op, b := data[i]>>6, data[i]&0x3f
			switch op {
			case 0: // schedule a closure event b ticks out
				handles = append(handles, s.After(units.Duration(b), func() {}))
			case 1: // schedule a typed event b ticks out, or (odd b) put a
				// packet on the delay line b ticks out, kept FIFO
				if b%2 == 0 {
					handles = append(handles, s.PostAfter(units.Duration(b), a, int32(b), nil))
				} else {
					at := s.Now().Add(units.Duration(b))
					if at < tail {
						at = tail
					}
					line.Push(at, nil)
					tail = at
				}
			case 2: // cancel an arbitrary handle (live, fired, or recycled)
				if len(handles) > 0 {
					s.Cancel(handles[int(b)%len(handles)])
				}
			case 3: // advance: either one step or a bounded run
				if b%2 == 0 {
					s.Step()
				} else {
					s.Run(s.Now() + units.Time(b))
				}
			}
			_ = data[i+1]
			if err := s.VerifyInvariants(); err != nil {
				t.Fatalf("after op %d: %v", i/2, err)
			}
		}
		s.Run(s.Now() + 1000)
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
		if line.Len() != 0 {
			t.Fatalf("%d packets left on the delay line after draining", line.Len())
		}
		if aud.Count() != 0 {
			t.Fatalf("audit violations: %v", aud.Err())
		}
	})
}
