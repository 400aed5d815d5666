package topology

import (
	"fmt"

	"bufsim/internal/sim"
)

// FabricConfig describes a fabric: several independent dumbbells
// ("planes") sharing one scheduler. Planes exchange no packets, so each
// evolves exactly as it would standalone; sharing the scheduler lets one
// run drive many bottlenecks on a single clock.
type FabricConfig struct {
	Sched *sim.Scheduler
	// RNG seeds the planes: each plane receives its own fork, in plane
	// order, so a fabric's plane k reproduces a standalone dumbbell
	// built from the same fork sequence. May be nil when the plane
	// template needs no randomness (RTTMin == RTTMax).
	RNG *sim.RNG

	// Planes is the number of dumbbells.
	Planes int

	// Plane is the per-plane template. Sched and RNG are overwritten per
	// plane.
	Plane Config
}

// Fabric is a built set of planes. Drive workloads against each plane's
// Dumbbell and run the shared scheduler as usual.
type Fabric struct {
	planes []*Dumbbell
}

// NewFabric builds the planes on the shared scheduler.
func NewFabric(cfg FabricConfig) *Fabric {
	if cfg.Sched == nil {
		panic("topology: FabricConfig.Sched is required")
	}
	if cfg.Planes <= 0 {
		panic(fmt.Sprintf("topology: FabricConfig.Planes = %d", cfg.Planes))
	}
	f := &Fabric{planes: make([]*Dumbbell, 0, cfg.Planes)}
	for k := 0; k < cfg.Planes; k++ {
		pc := cfg.Plane
		pc.Sched = cfg.Sched
		if cfg.RNG != nil {
			pc.RNG = cfg.RNG.Fork()
		}
		f.planes = append(f.planes, NewDumbbell(pc))
	}
	return f
}

// Planes returns the number of planes.
func (f *Fabric) Planes() int { return len(f.planes) }

// Plane returns plane k's dumbbell.
func (f *Fabric) Plane(k int) *Dumbbell { return f.planes[k] }
