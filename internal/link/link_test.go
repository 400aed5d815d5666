package link

import (
	"testing"

	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

type collector struct {
	pkts  []*packet.Packet
	times []units.Time
	sched *sim.Scheduler
}

func (c *collector) Handle(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, c.sched.Now())
}

func newTestLink(t *testing.T, rate units.BitRate, delay units.Duration, limit int) (*sim.Scheduler, *Link, *collector) {
	t.Helper()
	s := sim.NewScheduler()
	c := &collector{sched: s}
	l := New("test", s, rate, delay, queue.NewDropTail(queue.PacketLimit(limit)), c)
	return s, l, c
}

func mkpkt(seq int64, size units.ByteSize) *packet.Packet {
	return &packet.Packet{Seq: seq, Size: size}
}

func TestSinglePacketLatency(t *testing.T) {
	// 1000 B at 10 Mb/s = 800 us serialization, plus 5 ms propagation.
	s, l, c := newTestLink(t, 10*units.Mbps, 5*units.Millisecond, 10)
	l.Send(mkpkt(0, 1000))
	s.Run(units.Time(units.Second))
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(c.pkts))
	}
	want := units.Time(800*units.Microsecond + 5*units.Millisecond)
	if c.times[0] != want {
		t.Errorf("delivery at %v, want %v", c.times[0], want)
	}
}

func TestBackToBackSerialization(t *testing.T) {
	// Two packets sent at t=0 are delivered one transmission time apart:
	// the wire pipelines propagation but the transmitter serializes.
	s, l, c := newTestLink(t, 10*units.Mbps, 5*units.Millisecond, 10)
	l.Send(mkpkt(0, 1000))
	l.Send(mkpkt(1, 1000))
	s.Run(units.Time(units.Second))
	if len(c.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(c.pkts))
	}
	gap := c.times[1].Sub(c.times[0])
	if gap != 800*units.Microsecond {
		t.Errorf("inter-delivery gap = %v, want 800us", gap)
	}
}

func TestDeliveryPreservesOrder(t *testing.T) {
	s, l, c := newTestLink(t, 100*units.Mbps, units.Millisecond, 100)
	for i := int64(0); i < 50; i++ {
		l.Send(mkpkt(i, 500))
	}
	s.Run(units.Time(units.Second))
	if len(c.pkts) != 50 {
		t.Fatalf("delivered %d packets, want 50", len(c.pkts))
	}
	for i, p := range c.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("out of order at %d: seq %d", i, p.Seq)
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s, l, c := newTestLink(t, units.Mbps, 0, 2)
	var dropped []*packet.Packet
	l.OnDrop = func(p *packet.Packet) { dropped = append(dropped, p) }
	// First packet starts transmitting immediately (dequeued), next two
	// occupy the buffer, the rest drop.
	for i := int64(0); i < 6; i++ {
		l.Send(mkpkt(i, 1000))
	}
	s.Run(units.Time(units.Second))
	if len(c.pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(c.pkts))
	}
	if len(dropped) != 3 {
		t.Fatalf("dropped %d packets, want 3", len(dropped))
	}
	if dropped[0].Seq != 3 {
		t.Errorf("first drop seq %d, want 3 (tail drop)", dropped[0].Seq)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	// One 1000-B packet at 10 Mb/s in a 8 ms window: busy 800us -> 10%.
	s, l, _ := newTestLink(t, 10*units.Mbps, 0, 10)
	l.Send(mkpkt(0, 1000))
	s.Run(units.Time(8 * units.Millisecond))
	util := l.Utilization(0, 0)
	if util < 0.099 || util > 0.101 {
		t.Errorf("utilization = %v, want 0.1", util)
	}
}

func TestUtilizationFullySaturated(t *testing.T) {
	s, l, _ := newTestLink(t, 10*units.Mbps, 0, 1000)
	// 100 x 1000 B = 80 ms of serialization; run exactly that long.
	for i := int64(0); i < 100; i++ {
		l.Send(mkpkt(i, 1000))
	}
	s.Run(units.Time(80 * units.Millisecond))
	util := l.Utilization(0, 0)
	if util < 0.999 {
		t.Errorf("utilization = %v, want 1.0", util)
	}
}

func TestUtilizationWindowed(t *testing.T) {
	// Snapshot busy time mid-run and measure only the second window.
	s, l, _ := newTestLink(t, 10*units.Mbps, 0, 1000)
	l.Send(mkpkt(0, 1000)) // busy only during the first window
	s.Run(units.Time(10 * units.Millisecond))
	snap := l.BusyTime()
	from := s.Now()
	s.Run(units.Time(20 * units.Millisecond))
	if u := l.Utilization(snap, from); u != 0 {
		t.Errorf("second-window utilization = %v, want 0", u)
	}
}

func TestBusyTimeIncludesInProgress(t *testing.T) {
	s := sim.NewScheduler()
	c := &collector{sched: s}
	l := New("t", s, units.Mbps, 0, queue.NewDropTail(queue.PacketLimit(10)), c)
	l.Send(mkpkt(0, 1000)) // 8 ms serialization
	s.Run(units.Time(4 * units.Millisecond))
	if bt := l.BusyTime(); bt != 4*units.Millisecond {
		t.Errorf("BusyTime mid-transmission = %v, want 4ms", bt)
	}
}

func TestOnDequeueReportsQueueingDelay(t *testing.T) {
	s, l, _ := newTestLink(t, 10*units.Mbps, 0, 10)
	var delays []units.Duration
	l.OnDequeue = func(p *packet.Packet, d units.Duration) { delays = append(delays, d) }
	l.Send(mkpkt(0, 1000))
	l.Send(mkpkt(1, 1000))
	s.Run(units.Time(units.Second))
	if len(delays) != 2 {
		t.Fatalf("observed %d dequeues, want 2", len(delays))
	}
	if delays[0] != 0 {
		t.Errorf("head packet queueing delay = %v, want 0", delays[0])
	}
	if delays[1] != 800*units.Microsecond {
		t.Errorf("second packet queueing delay = %v, want 800us", delays[1])
	}
}

func TestDeliveredCounters(t *testing.T) {
	s, l, _ := newTestLink(t, 100*units.Mbps, 0, 100)
	for i := int64(0); i < 10; i++ {
		l.Send(mkpkt(i, 1500))
	}
	s.Run(units.Time(units.Second))
	if l.DeliveredPackets() != 10 {
		t.Errorf("DeliveredPackets = %d", l.DeliveredPackets())
	}
	if l.DeliveredBytes() != 15000 {
		t.Errorf("DeliveredBytes = %d", l.DeliveredBytes())
	}
}

func TestInvalidConstruction(t *testing.T) {
	s := sim.NewScheduler()
	q := queue.NewDropTail(queue.PacketLimit(1))
	for _, tc := range []struct {
		rate  units.BitRate
		delay units.Duration
	}{{0, 0}, {-1, 0}, {units.Mbps, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(rate=%v, delay=%v) did not panic", tc.rate, tc.delay)
				}
			}()
			New("bad", s, tc.rate, tc.delay, q, packet.HandlerFunc(func(*packet.Packet) {}))
		}()
	}
}

func TestAccessorsAndHandle(t *testing.T) {
	s, l, c := newTestLink(t, 10*units.Mbps, 2*units.Millisecond, 4)
	if l.Name() != "test" || l.Rate() != 10*units.Mbps || l.Delay() != 2*units.Millisecond {
		t.Errorf("accessors: %q %v %v", l.Name(), l.Rate(), l.Delay())
	}
	if l.Queue() == nil {
		t.Error("Queue accessor nil")
	}
	// Handle is the packet.Handler adapter for Send.
	l.Handle(mkpkt(0, 1000))
	s.Run(units.Time(units.Second))
	if len(c.pkts) != 1 {
		t.Errorf("Handle did not deliver")
	}
}

func TestUtilizationEmptyWindow(t *testing.T) {
	s, l, _ := newTestLink(t, 10*units.Mbps, 0, 4)
	s.Run(units.Time(units.Second))
	if got := l.Utilization(0, units.Time(units.Second)); got != 0 {
		t.Errorf("empty-window utilization = %v, want 0", got)
	}
	if got := l.Utilization(0, units.Time(2*units.Second)); got != 0 {
		t.Errorf("future-window utilization = %v, want 0", got)
	}
}

func TestZeroDelayDeliversSynchronously(t *testing.T) {
	s, l, c := newTestLink(t, 10*units.Mbps, 0, 10)
	l.Send(mkpkt(0, 1000))
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after send, want 1 (the transmission)", s.Pending())
	}
	// The transmit completion is the only event: the delivery happens
	// inside it, with no propagation event behind it.
	if !s.Step() {
		t.Fatal("no transmission event")
	}
	if len(c.pkts) != 1 || c.times[0] != units.Time(800*units.Microsecond) {
		t.Fatalf("zero-delay link delivered %d packets at %v, want 1 at the end of serialization", len(c.pkts), c.times)
	}
	if s.Pending() != 0 || s.Processed != 1 {
		t.Errorf("after delivery: %d pending, %d processed; want 0 and 1", s.Pending(), s.Processed)
	}
	if l.InFlight() != 0 || l.InFlightMax() != 0 {
		t.Errorf("zero-delay link reports %d in flight (max %d)", l.InFlight(), l.InFlightMax())
	}
}

// echo sends every packet it receives straight back into the link, so a
// fixed population circulates and the transmitter never idles.
type echo struct {
	l         *Link
	delivered int
	limit     int
	last      units.Time
}

func (e *echo) Handle(p *packet.Packet) {
	e.delivered++
	e.last = e.l.sched.Now()
	if e.delivered < e.limit {
		e.l.Send(p)
	}
}

// TestBusyLinkRingStaysBounded pushes 10^6 packets through a link that
// never idles. The wire holds about delay/transmission-time packets at
// once; its ring may be at most twice that peak, however many packets
// have passed through. Propagating packets also stay out of the heap:
// it holds the transmission and the wire's head, nothing more.
func TestBusyLinkRingStaysBounded(t *testing.T) {
	const n = 1_000_000
	s := sim.NewScheduler()
	e := &echo{limit: n}
	// 1000 B at 1 Gb/s is 8 us; 1 ms of delay holds 125 packets.
	l := New("busy", s, units.Gbps, units.Millisecond, queue.NewDropTail(queue.Unlimited()), e)
	e.l = l
	for i := 0; i < 200; i++ {
		l.Send(mkpkt(int64(i), 1000))
	}
	s.Run(units.Never - 1)
	if e.delivered != n+199 {
		t.Fatalf("delivered %d packets, want %d", e.delivered, n+199)
	}
	// Never idle: the last packet lands one propagation delay after the
	// transmitter's total busy time.
	if busy := l.BusyTime(); e.last != units.Epoch.Add(busy+units.Millisecond) {
		t.Errorf("last delivery at %v after %v busy: the link idled", e.last, busy)
	}
	peak := l.InFlightMax()
	if peak < 125 || peak > 126 {
		t.Errorf("peak in flight = %d, want about 125", peak)
	}
	if got := l.wire.Cap(); got > 2*peak {
		t.Errorf("ring capacity %d exceeds twice the peak in flight (%d)", got, peak)
	}
	if s.MaxPending() > 2 {
		t.Errorf("heap peaked at %d entries; propagating packets leaked into it", s.MaxPending())
	}
}

// TestInstrumentInFlight reads the in-flight gauges through a snapshot.
func TestInstrumentInFlight(t *testing.T) {
	s, l, _ := newTestLink(t, 10*units.Mbps, 5*units.Millisecond, 10)
	reg := metrics.New()
	l.Instrument(reg, "test")
	for i := 0; i < 3; i++ {
		l.Send(mkpkt(int64(i), 1000))
	}
	// By 3 ms all three have left the transmitter (0.8 ms each) and
	// none has arrived (the first lands at 5.8 ms).
	s.Run(units.Time(3 * units.Millisecond))
	reg.Collect()
	if got := reg.Gauge("test.in_flight").Value(); got != 3 {
		t.Errorf("in_flight = %v at 3 ms, want 3", got)
	}
	s.Run(units.Time(units.Second))
	reg.Collect()
	if got := reg.Gauge("test.in_flight").Value(); got != 0 {
		t.Errorf("in_flight = %v after drain, want 0", got)
	}
	if got := reg.Gauge("test.in_flight_max").Value(); got != 3 {
		t.Errorf("in_flight_max = %v, want 3", got)
	}
}
