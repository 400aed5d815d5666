package node

import (
	"fmt"
	"strings"
	"testing"

	"bufsim/internal/packet"
)

type sink struct{ got []*packet.Packet }

func (s *sink) Handle(p *packet.Packet) { s.got = append(s.got, p) }

func TestRouterForwardsByDestination(t *testing.T) {
	r := NewRouter(1, "r1")
	a, b := &sink{}, &sink{}
	r.AddRoute(10, a)
	r.AddRoute(11, b)
	r.Handle(&packet.Packet{Dst: 10})
	r.Handle(&packet.Packet{Dst: 11})
	r.Handle(&packet.Packet{Dst: 10})
	if len(a.got) != 2 || len(b.got) != 1 {
		t.Errorf("routed %d/%d, want 2/1", len(a.got), len(b.got))
	}
}

// panicText runs fn and returns the string it panicked with ("" if it
// returned normally). A runtime error (an index out of range, say) is a
// runtime.Error, not a string, and comes back formatted with a prefix
// the callers' message checks reject.
func panicText(fn func()) (msg string) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case string:
			msg = v
		default:
			msg = fmt.Sprintf("non-string panic %T: %v", v, v)
		}
	}()
	fn()
	return ""
}

func TestRouterDuplicateRoutePanics(t *testing.T) {
	r := NewRouter(1, "r1")
	r.AddRoute(10, &sink{})
	r.AddRoute(3, &sink{}) // a lower ID after a higher one
	for _, dst := range []packet.NodeID{10, 3} {
		got := panicText(func() { r.AddRoute(dst, &sink{}) })
		want := fmt.Sprintf("node: router r1 already has a route for %d", dst)
		if got != want {
			t.Errorf("duplicate route for %d panicked with %q, want %q", dst, got, want)
		}
	}
}

func TestRouterUnroutablePanics(t *testing.T) {
	r := NewRouter(1, "r1")
	r.AddRoute(2, &sink{})
	r.AddRoute(5, &sink{})
	// 0 and 3 fall inside the table on unset slots, -1 and the extreme
	// negative would index before it, 6 and 99 past its end.
	for _, dst := range []packet.NodeID{0, 3, -1, -1 << 31, 6, 99} {
		got := panicText(func() { r.Handle(&packet.Packet{Dst: dst}) })
		if !strings.HasPrefix(got, "node: router r1 has no route for ") {
			t.Errorf("packet for %d panicked with %q, want a \"no route\" panic", dst, got)
		}
	}
	if got := panicText(func() { r.AddRoute(-1, &sink{}) }); !strings.HasPrefix(got, "node: router r1 ") {
		t.Errorf("negative destination route panicked with %q", got)
	}
}

func TestHostDemuxByFlow(t *testing.T) {
	h := NewHost(5, "h")
	f1, f2 := &sink{}, &sink{}
	h.Attach(1, f1)
	h.Attach(2, f2)
	h.Handle(&packet.Packet{Flow: 1})
	h.Handle(&packet.Packet{Flow: 2})
	h.Handle(&packet.Packet{Flow: 1})
	if len(f1.got) != 2 || len(f2.got) != 1 {
		t.Errorf("demuxed %d/%d, want 2/1", len(f1.got), len(f2.got))
	}
	if h.ID() != 5 {
		t.Errorf("ID = %d", h.ID())
	}
}

func TestHostDetachDropsSilently(t *testing.T) {
	h := NewHost(5, "h")
	f, g, k := &sink{}, &sink{}, &sink{}
	h.Attach(1, f)
	h.Attach(2, g)
	h.Attach(3, k)
	h.Detach(1)                       // swap-removes: flow 3 moves into flow 1's place
	h.Detach(7)                       // never attached: a no-op
	h.Handle(&packet.Packet{Flow: 1}) // must not panic
	h.Handle(&packet.Packet{Flow: 2})
	h.Handle(&packet.Packet{Flow: 3})
	if len(f.got) != 0 {
		t.Error("detached agent still received packets")
	}
	if len(g.got) != 1 || len(k.got) != 1 {
		t.Errorf("remaining agents got %d/%d packets, want 1/1", len(g.got), len(k.got))
	}
	// Re-attach after detach is allowed (flow IDs are unique in practice,
	// but the host should not care).
	h.Attach(1, f)
	h.Handle(&packet.Packet{Flow: 1})
	if len(f.got) != 1 {
		t.Error("re-attached agent did not receive its packet")
	}
}

func TestHostDuplicateAttachPanics(t *testing.T) {
	h := NewHost(5, "h")
	h.Attach(1, &sink{})
	h.Attach(2, &sink{})
	h.Detach(1)
	h.Attach(1, &sink{})
	for _, f := range []packet.FlowID{1, 2} {
		got := panicText(func() { h.Attach(f, &sink{}) })
		want := fmt.Sprintf("node: host h already has an agent for flow %d", f)
		if got != want {
			t.Errorf("duplicate attach of flow %d panicked with %q, want %q", f, got, want)
		}
	}
}
