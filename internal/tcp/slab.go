package tcp

import "bufsim/internal/units"

// Slab is a struct-of-arrays store for the hot per-flow connection
// state: one column per field, one row per sender. Senders created with
// NewSenderSlab share a slab, so a million flows keep their sequence
// pointers, RTT estimators and congestion windows in thirteen dense
// arrays instead of a million scattered heap objects — the difference
// between cache-line streaming and pointer chasing when the event
// kernel sweeps large flow populations.
//
// Rows are appended by NewSenderSlab and never freed — a finished
// flow's row simply goes cold, matching the topology's own append-only
// flow bookkeeping. Appending may reallocate the columns, so no pointer
// or subslice into a column may be held across a row addition (the
// slabescape analyzer enforces this).
//
// The classic congestion controllers store their window state in the
// cwnd and ssthresh columns (see aimd); the modern controllers (CUBIC,
// BBR) carry richer models and keep their own state.
type Slab struct {
	sndUna []int64 // lowest unacknowledged segment
	sndNxt []int64 // next never-before-sent segment
	rttSeq []int64 // segment being timed; -1 if none

	dupAcks []int32 // consecutive duplicate ACKs toward fast retransmit
	backoff []int32 // RTO exponential-backoff shift

	haveSRTT []bool

	srtt   []units.Duration
	rttvar []units.Duration
	rto    []units.Duration

	rttSentAt []units.Time
	lastSend  []units.Time

	cwnd     []float64 // classic controllers' congestion window
	ssthresh []float64 // classic controllers' slow-start threshold
}

// NewSlab returns an empty slab with room for capacity rows before the
// columns first reallocate.
func NewSlab(capacity int) *Slab {
	if capacity < 1 {
		capacity = 1
	}
	return &Slab{
		sndUna:    make([]int64, 0, capacity),
		sndNxt:    make([]int64, 0, capacity),
		rttSeq:    make([]int64, 0, capacity),
		dupAcks:   make([]int32, 0, capacity),
		backoff:   make([]int32, 0, capacity),
		haveSRTT:  make([]bool, 0, capacity),
		srtt:      make([]units.Duration, 0, capacity),
		rttvar:    make([]units.Duration, 0, capacity),
		rto:       make([]units.Duration, 0, capacity),
		rttSentAt: make([]units.Time, 0, capacity),
		lastSend:  make([]units.Time, 0, capacity),
		cwnd:      make([]float64, 0, capacity),
		ssthresh:  make([]float64, 0, capacity),
	}
}

// addRow appends one zeroed row to every column and returns its index.
func (sl *Slab) addRow() int32 {
	row := int32(len(sl.sndUna))
	sl.sndUna = append(sl.sndUna, 0)
	sl.sndNxt = append(sl.sndNxt, 0)
	sl.rttSeq = append(sl.rttSeq, 0)
	sl.dupAcks = append(sl.dupAcks, 0)
	sl.backoff = append(sl.backoff, 0)
	sl.haveSRTT = append(sl.haveSRTT, false)
	sl.srtt = append(sl.srtt, 0)
	sl.rttvar = append(sl.rttvar, 0)
	sl.rto = append(sl.rto, 0)
	sl.rttSentAt = append(sl.rttSentAt, 0)
	sl.lastSend = append(sl.lastSend, 0)
	sl.cwnd = append(sl.cwnd, 0)
	sl.ssthresh = append(sl.ssthresh, 0)
	return row
}

// Rows returns the number of senders the slab holds.
func (sl *Slab) Rows() int { return len(sl.sndUna) }
