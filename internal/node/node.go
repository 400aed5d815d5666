// Package node provides the two kinds of network elements the topologies
// are wired from: Routers (output-queued, statically routed) and Hosts
// (endpoints that demultiplex packets to protocol agents by flow).
package node

import (
	"fmt"

	"bufsim/internal/packet"
)

// Router forwards packets toward their destination over per-destination
// next hops. It is output-queued: the only buffering is in each output
// link's queue, which is the router-buffer B the paper sizes. Forwarding
// itself is instantaneous (the paper's experiments never stress the
// switching fabric; its GSR showed "no input queueing"). A next hop is
// usually a *link.Link, but locally attached hosts can be wired directly.
type Router struct {
	id   packet.NodeID
	name string
	// routes is indexed by destination NodeID: topologies allocate node
	// IDs densely from 1, so a slice lookup replaces a map probe on the
	// per-packet path. A nil entry means no route.
	routes []packet.Handler
}

// NewRouter returns an empty router.
func NewRouter(id packet.NodeID, name string) *Router {
	return &Router{id: id, name: name}
}

// ID returns the router's node ID.
func (r *Router) ID() packet.NodeID { return r.id }

// AddRoute directs traffic for dst to the next hop. Adding a duplicate
// route panics: topologies are static and a silent overwrite hides wiring
// bugs. So does a negative dst, which no topology allocates.
func (r *Router) AddRoute(dst packet.NodeID, next packet.Handler) {
	if dst < 0 {
		panic(fmt.Sprintf("node: router %s given negative destination %d", r.name, dst))
	}
	if int(dst) < len(r.routes) && r.routes[dst] != nil {
		panic(fmt.Sprintf("node: router %s already has a route for %d", r.name, dst))
	}
	for int(dst) >= len(r.routes) {
		r.routes = append(r.routes, nil)
	}
	r.routes[dst] = next
}

// Handle implements packet.Handler by forwarding to the route for the
// packet's destination. An unroutable packet panics — topologies are
// closed worlds and a miss means mis-wiring, not a runtime condition.
func (r *Router) Handle(p *packet.Packet) {
	// The uint conversion folds negative IDs into the bounds check.
	if d := uint(p.Dst); d < uint(len(r.routes)) {
		if next := r.routes[d]; next != nil {
			next.Handle(p)
			return
		}
	}
	panic(fmt.Sprintf("node: router %s has no route for %v", r.name, p))
}

// Host is an endpoint. Each flow terminating at the host registers an
// agent; incoming packets demultiplex by flow ID.
type Host struct {
	id   packet.NodeID
	name string
	// agents holds the live flows, scanned linearly: a host carries a
	// handful of concurrent flows, while flow IDs grow without bound
	// over a long short-flow run, so the table is never indexed by ID.
	agents []agent
}

// agent is one attached flow's handler.
type agent struct {
	flow packet.FlowID
	h    packet.Handler
}

// NewHost returns an empty host.
func NewHost(id packet.NodeID, name string) *Host {
	return &Host{id: id, name: name}
}

// ID returns the host's node ID.
func (h *Host) ID() packet.NodeID { return h.id }

// find returns the index of flow f's agent, or -1.
func (h *Host) find(f packet.FlowID) int {
	for i := range h.agents {
		if h.agents[i].flow == f {
			return i
		}
	}
	return -1
}

// Attach registers an agent to receive packets for flow f.
func (h *Host) Attach(f packet.FlowID, a packet.Handler) {
	if h.find(f) >= 0 {
		panic(fmt.Sprintf("node: host %s already has an agent for flow %d", h.name, f))
	}
	h.agents = append(h.agents, agent{flow: f, h: a})
}

// Detach removes a finished flow's agent so long-running workloads (the
// Poisson short-flow generators) do not accumulate state. Packets still in
// flight for a detached flow are dropped silently.
func (h *Host) Detach(f packet.FlowID) {
	if i := h.find(f); i >= 0 {
		last := len(h.agents) - 1
		h.agents[i] = h.agents[last]
		h.agents[last] = agent{}
		h.agents = h.agents[:last]
	}
}

// Handle implements packet.Handler.
func (h *Host) Handle(p *packet.Packet) {
	if i := h.find(p.Flow); i >= 0 {
		h.agents[i].h.Handle(p)
	}
	// Packets for detached (finished) flows fall on the floor, like a
	// host RST-ing a closed port.
}
