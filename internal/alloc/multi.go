package alloc

// Multi-pool allocation: §II's design goal D2 notes that every
// additional SKU type in a fleet has side effects, but a second
// GreenSKU could serve applications the first cannot. SimulateMulti
// generalises Simulate to a baseline pool plus any number of GreenSKU
// pools, with per-VM, per-pool directives. It runs on the same columnar
// engine as Simulate (colsim.go), with K green pools.

import (
	"context"
	"fmt"

	"github.com/greensku/gsf/internal/trace"
)

// Pool is one homogeneous group of servers in a mixed cluster.
type Pool struct {
	Class ServerClass
	N     int
}

// MultiDecision directs one VM across the green pools: Scales[i] > 0
// permits pool i (in cluster order) with that scaling factor; 0 forbids
// it. Pools are tried in order, so the caller encodes preference by
// ordering pools from most to least carbon-efficient for the workload.
type MultiDecision struct {
	Scales []float64
}

// MultiDecider maps a VM to its per-pool directive.
type MultiDecider func(trace.VM) MultiDecision

// MultiConfig describes the multi-pool cluster.
type MultiConfig struct {
	Base           Pool
	Greens         []Pool
	Policy         Policy
	PreferNonEmpty bool
	// SnapshotEvery controls utilisation snapshots (trace hours);
	// zero defaults to 12h.
	SnapshotEvery float64
}

// MultiResult holds per-pool statistics.
type MultiResult struct {
	Placed    int
	Rejected  int
	Base      ClassStats
	Green     []ClassStats // aligned with the green pools
	Snapshots int
	// BaseProof and GreenProofs (aligned with the green pools) are what
	// the replay proves about other sizes of each pool; see PoolProof.
	BaseProof   PoolProof
	GreenProofs []PoolProof
}

// SimulateMulti replays a trace against a baseline pool plus green
// pools. Full-node VMs pin to the baseline; other VMs try the green
// pools in order (scaled per the directive) and fall back to the
// baseline.
func SimulateMulti(tr trace.Trace, mc MultiConfig, decide MultiDecider) (MultiResult, error) {
	return SimulateMultiContext(context.Background(), tr, mc, decide)
}

// validateMulti applies SimulateMultiContext's cluster checks.
func validateMulti(mc MultiConfig) error {
	total := mc.Base.N
	for _, g := range mc.Greens {
		total += g.N
		if g.N > 0 && (g.Class.Cores <= 0 || g.Class.Memory <= 0) {
			return fmt.Errorf("alloc: green pool %s has no capacity", g.Class.Name)
		}
	}
	if total == 0 {
		return fmt.Errorf("alloc: cluster needs at least one server")
	}
	if mc.Base.N > 0 && (mc.Base.Class.Cores <= 0 || mc.Base.Class.Memory <= 0) {
		return fmt.Errorf("alloc: baseline pool has no capacity")
	}
	return nil
}

// SimulateMultiContext is SimulateMulti with cancellation, polled every
// 1024 VMs like SimulateContext. Invariant violations go to the process
// default checker (audit.SetDefault).
func SimulateMultiContext(ctx context.Context, tr trace.Trace, mc MultiConfig, decide MultiDecider) (MultiResult, error) {
	if err := tr.Validate(); err != nil {
		return MultiResult{}, err
	}
	if err := validateMulti(mc); err != nil {
		return MultiResult{}, err
	}
	if decide == nil {
		decide = func(trace.VM) MultiDecision { return MultiDecision{} }
	}
	s := newSim(tr.Name, multiBaseConfig(mc), mc.Greens)
	s.decideMulti = decide
	res, err := s.run(ctx, trace.NewSliceSource(tr))
	if err != nil {
		return MultiResult{}, err
	}
	out := MultiResult{
		Placed:      res.Placed,
		Rejected:    res.Rejected,
		Base:        res.Base,
		Green:       make([]ClassStats, len(mc.Greens)),
		Snapshots:   res.Snapshots,
		BaseProof:   res.BaseProof,
		GreenProofs: make([]PoolProof, len(mc.Greens)),
	}
	for i := range out.Green {
		out.Green[i] = s.aggs[1+i].stats()
		out.GreenProofs[i] = s.pools[1+i].proof()
	}
	return out, nil
}

// multiBaseConfig carries a MultiConfig's baseline pool and rules in
// the Config shape both engines take.
func multiBaseConfig(mc MultiConfig) Config {
	return Config{
		Base: mc.Base.Class, NBase: mc.Base.N,
		Policy: mc.Policy, PreferNonEmpty: mc.PreferNonEmpty,
		SnapshotEvery: mc.SnapshotEvery,
	}
}
