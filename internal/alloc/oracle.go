package alloc

// The linear-scan oracle: the placement rule in its plainest form. One
// heap-allocated struct per configured server, and every placement
// scans its pool in id order for the server the policy prefers. It is
// O(servers) per VM and materializes the whole fleet up front, so no
// production path runs it. It is what the columnar engine (colsim.go)
// is proven against: the differential suite and the placement-index
// fuzzer compare decisions with it, the audit canary breaks it on
// purpose, and gsfbench times the engine against it.

import (
	"context"
	"math"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

type server struct {
	class     *ServerClass
	coresFree float64
	memFree   float64
	vms       int
	// maxMemTouched accumulates the resident VMs' maximum touched
	// memory in GB (request * MaxMemFrac), the Fig. 10 metric.
	maxMemTouched float64
	// opened and forced record the server's first placement for the
	// pool's PoolProof: forced is whether the replay with the pool
	// capped at this server's id would have rejected that VM.
	opened, forced bool
}

func (s *server) fits(cores, mem float64) bool {
	return s.coresFree >= cores && s.memFree >= mem
}

func makeServers(class *ServerClass, n int) []*server {
	out := make([]*server, n)
	for i := range out {
		out[i] = &server{class: class, coresFree: float64(class.Cores), memFree: float64(class.Memory)}
	}
	return out
}

// observe folds one snapshot of a pool into the aggregator, visiting
// non-empty servers in id order.
func (a *aggregator) observe(servers []*server) {
	if len(servers) == 0 {
		return
	}
	var allocC, capC, allocM, capM float64
	for _, s := range servers {
		if s.vms == 0 {
			continue
		}
		allocC += float64(s.class.Cores) - s.coresFree
		capC += float64(s.class.Cores)
		allocM += float64(s.class.Memory) - s.memFree
		capM += float64(s.class.Memory)
		a.observeServer(s.class, s.maxMemTouched)
	}
	a.observePacking(allocC, capC, allocM, capM)
}

// pick selects a feasible server under the configured policy by
// linear scan, returning its id or nilNode.
func pick(servers []*server, cores, mem float64, pol Policy, preferNonEmpty bool) int32 {
	best := nilNode
	for i, s := range servers {
		if !s.fits(cores, mem) && !testIgnoreCapacity {
			continue
		}
		if best == nilNode {
			best = int32(i)
			continue
		}
		b := servers[best]
		if better(s.coresFree, s.memFree, s.vms > 0, b.coresFree, b.memFree, b.vms > 0, pol, preferNonEmpty) {
			best = int32(i)
		}
	}
	return best
}

// testIgnoreCapacity, when true, makes the oracle's pick skip the
// feasibility check — a deliberately broken allocator. It exists only
// so tests can prove the audit layer catches oversubscription; never
// set it outside a test.
var testIgnoreCapacity bool

// testObserve, when non-nil, receives every successful placement
// (VM ID, pool, server id) in decision order from either engine. The
// differential suite uses it to compare placement sequences, not just
// aggregate Results. Never set it outside a test.
var testObserve func(vmID int, pool int, serverID int32)

// SimulateOracle replays tr through the linear-scan oracle under the
// same rules as SimulateContext, with which it is decision-identical.
// It is a test and benchmark reference: O(servers) per placement, with
// every configured server built up front.
func SimulateOracle(ctx context.Context, tr trace.Trace, cfg Config, decide Decider) (Result, error) {
	if err := tr.Validate(); err != nil {
		return Result{}, err
	}
	if err := validateConfig(cfg); err != nil {
		return Result{}, err
	}
	if decide == nil {
		decide = AdoptNone
	}
	res, _, _, err := oracleReplay(ctx, &router{cfg: cfg, decide: decide}, tr, []Pool{{Class: cfg.Green, N: cfg.NGreen}})
	return res, err
}

// simulateOracleMulti is SimulateOracle for a multi-pool cluster.
func simulateOracleMulti(ctx context.Context, tr trace.Trace, mc MultiConfig, decide MultiDecider) (MultiResult, error) {
	if err := tr.Validate(); err != nil {
		return MultiResult{}, err
	}
	if err := validateMulti(mc); err != nil {
		return MultiResult{}, err
	}
	if decide == nil {
		decide = func(trace.VM) MultiDecision { return MultiDecision{} }
	}
	res, green, proofs, err := oracleReplay(ctx, &router{cfg: multiBaseConfig(mc), decideMulti: decide}, tr, mc.Greens)
	if err != nil {
		return MultiResult{}, err
	}
	return MultiResult{Placed: res.Placed, Rejected: res.Rejected, Base: res.Base, Green: green, Snapshots: res.Snapshots,
		BaseProof: res.BaseProof, GreenProofs: proofs}, nil
}

// oracleProof derives a pool's PoolProof from its servers' first
// placements: the high-water is one past the highest id ever used.
func oracleProof(servers []*server) PoolProof {
	h := 0
	for id, s := range servers {
		if s.opened {
			h = id + 1
		}
	}
	p := PoolProof{HighWater: h, Forced: make([]bool, h)}
	for id := range p.Forced {
		p.Forced[id] = servers[id].forced
	}
	return p
}

// cappedRejects reports whether a replay with pool capped at k servers
// would reject vm in the current state: it reruns the VM's placement
// scans with the pool cut to ids [0, k).
func (o *router) cappedRejects(pools [][]*server, pool, k int, vm trace.VM, d Decision, md MultiDecision) bool {
	base := pools[0]
	if vm.FullNode {
		capC, capM := float64(o.cfg.Base.Cores), float64(o.cfg.Base.Memory)
		for _, s := range base[:k] {
			if s.vms == 0 && s.fits(capC, capM) {
				return false
			}
		}
		return true
	}
	pol, prefer := o.cfg.Policy, o.cfg.PreferNonEmpty
	for g := 1; g < len(pools); g++ {
		scale, ok := o.offer(g, d, md)
		if !ok {
			continue
		}
		servers := pools[g]
		if g == pool {
			servers = servers[:k]
		}
		if pick(servers, float64(vm.Cores)*scale, float64(vm.Memory)*scale, pol, prefer) != nilNode {
			return false
		}
	}
	if pool == 0 {
		base = base[:k]
	}
	return pick(base, float64(vm.Cores), float64(vm.Memory), pol, prefer) == nilNode
}

// oracleReplay is the oracle's event loop over the baseline pool plus
// the green pools, under r's directives. It returns the Result (Green
// is the first green pool's) and every green pool's statistics and
// proof.
func oracleReplay(ctx context.Context, o *router, tr trace.Trace, greens []Pool) (Result, []ClassStats, []PoolProof, error) {
	classes := make([]ServerClass, 1+len(greens))
	pools := make([][]*server, len(classes))
	aggs := make([]aggregator, len(classes))
	classes[0] = o.cfg.Base
	pools[0] = makeServers(&classes[0], o.cfg.NBase)
	for i, g := range greens {
		classes[1+i] = g.Class
		pools[1+i] = makeServers(&classes[1+i], g.N)
	}
	snapEvery := o.cfg.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = 12
	}
	chk := audit.Resolve(o.cfg.Audit)
	pol, prefer := o.cfg.Policy, o.cfg.PreferNonEmpty

	var deps colDepHeap
	var res Result
	release := func(until float64) {
		for len(deps) > 0 && deps[0].at <= until {
			d := colDepPop(&deps)
			s := pools[d.pool][d.id]
			s.coresFree += d.cores
			s.memFree += d.mem
			s.vms--
			s.maxMemTouched -= d.touched
			if chk != nil {
				auditServerBounds(chk, s.class, s.coresFree, s.memFree, s.vms, s.maxMemTouched, "release")
			}
		}
	}
	observe := func() {
		for i := range pools {
			aggs[i].observe(pools[i])
		}
		res.Snapshots++
	}
	nextSnap := snapEvery
	for i, vm := range tr.VMs {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, nil, nil, err
			}
		}
		for nextSnap <= vm.Arrive {
			release(nextSnap)
			observe()
			nextSnap += snapEvery
		}
		release(vm.Arrive)

		d, md := o.decideFor(vm)
		pool, placed := 0, nilNode
		var cores, mem float64
		if vm.FullNode {
			// Full-node VMs take the first empty baseline server that
			// fits a whole node.
			cores, mem = float64(classes[0].Cores), float64(classes[0].Memory)
			for id, s := range pools[0] {
				if s.vms == 0 && s.fits(cores, mem) {
					placed = int32(id)
					break
				}
			}
		} else {
			for g := 1; g < len(pools) && placed == nilNode; g++ {
				scale, ok := o.offer(g, d, md)
				if !ok {
					continue
				}
				cores = float64(vm.Cores) * scale
				mem = float64(vm.Memory) * scale
				pool, placed = g, pick(pools[g], cores, mem, pol, prefer)
			}
			if placed == nilNode {
				cores, mem = float64(vm.Cores), float64(vm.Memory)
				pool, placed = 0, pick(pools[0], cores, mem, pol, prefer)
			}
		}
		if placed == nilNode {
			res.Rejected++
			if vm.Deferrable {
				res.DeferrableRejected++
			}
			continue
		}
		s := pools[pool][placed]
		if !s.opened {
			s.opened = true
			s.forced = o.cappedRejects(pools, pool, int(placed), vm, d, md)
		}
		if chk != nil && !admissible(s.coresFree, s.memFree, cores, mem) {
			audit.Failf(chk, "alloc", "admissibility",
				"VM %d (%gc/%gGB) placed on %s with only %gc/%gGB free",
				vm.ID, cores, mem, s.class.Name, s.coresFree, s.memFree)
		}
		touched := mem * vm.MaxMemFrac
		s.coresFree -= cores
		s.memFree -= mem
		s.vms++
		s.maxMemTouched += touched
		if chk != nil {
			auditServerBounds(chk, s.class, s.coresFree, s.memFree, s.vms, s.maxMemTouched, "place")
		}
		if testObserve != nil {
			testObserve(vm.ID, pool, placed)
		}
		colDepPush(&deps, colDeparture{at: vm.Depart, cores: cores, mem: mem, touched: touched, id: placed, pool: int32(pool)})
		res.Placed++
		if vm.Deferrable {
			res.DeferrablePlaced++
		}
	}
	// Keep snapshotting through the tail of the trace, then take a
	// final observation at the horizon.
	for nextSnap <= tr.Horizon {
		release(nextSnap)
		observe()
		nextSnap += snapEvery
	}
	release(tr.Horizon)
	observe()

	if chk != nil {
		// Conservation: once every VM has departed, every server must
		// be exactly full-capacity free again.
		release(math.Inf(1))
		for _, servers := range pools {
			for id, s := range servers {
				auditDrained(chk, s.class, int32(id), s.coresFree, s.memFree, s.vms, s.maxMemTouched)
			}
		}
	}

	res.Base = aggs[0].stats()
	res.BaseProof = oracleProof(pools[0])
	green := make([]ClassStats, len(greens))
	proofs := make([]PoolProof, len(greens))
	for i := range green {
		green[i] = aggs[1+i].stats()
		proofs[i] = oracleProof(pools[1+i])
	}
	if len(green) > 0 {
		res.Green = green[0]
		res.GreenProof = proofs[0]
	}
	return res, green, proofs, nil
}
