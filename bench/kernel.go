package main

import (
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// kernelDescription names the kernel generation being measured; it is
// recorded in BENCH_kernel.json so before/after blocks are labelled.
const kernelDescription = "inlined 4-ary min-heap over pooled event slots, typed actor dispatch on hot paths, pluggable congestion-control policy behind a per-flow interface, per-link delay lines (one heap entry per busy wire), dense node demux"

// kernelChurn drives the scheduler through n events with a rolling window
// of 100 pending timers — the steady-state load a packet simulation
// produces (every in-flight packet holds a pending transmit/propagate
// event, every sender an RTO).
func kernelChurn(n int) {
	s := sim.NewScheduler()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < n {
			//lint:ignore eventcapture this benchmark measures the closure-posting path on purpose
			s.After(10*units.Nanosecond, tick)
		}
	}
	for j := 0; j < 100 && j < n; j++ {
		//lint:ignore eventcapture this benchmark measures the closure-posting path on purpose
		s.After(units.Duration(j), tick)
	}
	s.Run(units.Never.Add(-units.Nanosecond))
}
