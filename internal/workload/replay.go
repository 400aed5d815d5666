package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// FlowSpec is one flow of a recorded trace: when it starts and how many
// segments it carries. Start is an offset from wherever the replay
// begins, not an absolute instant — Replay anchors it to the simulated
// time of its call.
type FlowSpec struct {
	Start units.Duration
	Size  int64 // segments
}

// parseTraceCSV scans the two-column CSV trace form
//
//	start_seconds,size_segments
//
// skipping '#' comments, blank lines and a header line. Rows whose start
// time precedes the previous row's are an error: a recorded trace is a
// timeline, and silently reordering it hides corrupted or mis-merged
// inputs.
func parseTraceCSV(r io.Reader) ([]FlowSpec, error) {
	var specs []FlowSpec
	sc := bufio.NewScanner(r)
	line := 0
	sawRow := false
	prevStart := -1.0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("workload: trace line %d: want 2 fields, got %d", line, len(parts))
		}
		start, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			if !sawRow {
				continue // a header row like "start_seconds,size_segments"
			}
			return nil, fmt.Errorf("workload: trace line %d: bad start: %v", line, err)
		}
		sawRow = true
		size, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad size: %v", line, err)
		}
		if start < 0 || math.IsNaN(start) || math.IsInf(start, 0) || size <= 0 {
			return nil, fmt.Errorf("workload: trace line %d: start %v / size %d out of range", line, start, size)
		}
		if start < prevStart {
			return nil, fmt.Errorf("workload: trace line %d: start %vs precedes previous row (%vs); flow records must be ordered by start time", line, start, prevStart)
		}
		prevStart = start
		specs = append(specs, FlowSpec{
			Start: units.DurationFromSeconds(start),
			Size:  size,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return specs, nil
}

// replayRun is the actor driving one Replay call: a typed event per flow
// start and per flow teardown, instead of a scheduled closure per flow.
type replayRun struct {
	d        *topology.Dumbbell
	sched    *sim.Scheduler
	template tcp.Config

	records []*FlowRecord
	started int64
	active  int
	stopped bool
}

// replayFlow is the opReplayStart argument: which station to bind, how
// much to send, and where to record the outcome.
type replayFlow struct {
	size int64
	st   *topology.Station
	rec  *FlowRecord
}

// Replay event opcodes (see sim.Actor).
const (
	opReplayStart  int32 = iota // arg: *replayFlow
	opReplayRemove              // arg: *topology.Flow
)

// OnEvent implements sim.Actor.
func (r *replayRun) OnEvent(op int32, arg any) {
	switch op {
	case opReplayStart:
		if r.stopped {
			return
		}
		rf := arg.(*replayFlow)
		cfg := r.template
		cfg.TotalSegments = rf.size
		f := r.d.AddFlow(rf.st, cfg)
		rf.rec.Start = r.sched.Now()
		r.started++
		r.active++
		f.Receiver.OnComplete = func(now units.Time) {
			rf.rec.Completed = now
			r.active--
			r.sched.PostAfter(f.Station.RTT, r, opReplayRemove, f)
		}
		f.Sender.Start()
	case opReplayRemove:
		r.d.RemoveFlow(arg.(*topology.Flow))
	}
}

// Replay schedules every flow of a trace across the dumbbell's stations
// (round-robin) and returns the records, which fill in as flows complete.
// The trace's start offsets are anchored at the current simulated time.
func Replay(d *topology.Dumbbell, specs []FlowSpec, template tcp.Config) []*FlowRecord {
	return startReplay(d, specs, template).records
}

// startReplay is Replay with access to the driving actor, for the
// Source adapter's Stop and live counters.
func startReplay(d *topology.Dumbbell, specs []FlowSpec, template tcp.Config) *replayRun {
	sched := d.Config().Sched
	base := sched.Now()
	run := &replayRun{d: d, sched: sched, template: template}
	run.records = make([]*FlowRecord, len(specs))
	for i, spec := range specs {
		rec := &FlowRecord{Size: spec.Size, Completed: units.Never}
		run.records[i] = rec
		rf := &replayFlow{size: spec.Size, st: d.Station(i % d.NumStations()), rec: rec}
		sched.PostAt(base.Add(spec.Start), run, opReplayStart, rf)
	}
	return run
}
