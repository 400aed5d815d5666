//go:build slabmutation

package tcp

// seedStaleColumnAlias is a deliberately seeded slab-aliasing bug,
// compiled only under the slabmutation build tag: it holds a pointer
// into the cwnd column across addRow, whose append may reallocate the
// column and leave the pointer reading a dead copy. Normal builds never
// see this file; the lint test suite loads it with the tag on and
// asserts the slabescape analyzer reports it.
func seedStaleColumnAlias(sl *Slab) float64 {
	w := &sl.cwnd[0]
	sl.addRow()
	return *w
}
