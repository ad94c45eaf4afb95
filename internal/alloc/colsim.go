package alloc

// The columnar streaming simulator: the one allocation engine. Every
// replay runs here — single-green sizing (SimulateContext,
// SimulateSource), multi-pool diversity studies (SimulateMultiContext),
// and gsfd's checkpointed what-if forks (snapshot.go). It rests on two
// ideas:
//
//   - Columnar fleet state. A pool is four parallel slices
//     (coresFree, memFree, vms, touched) indexed by server id, plus
//     the ixCore placement index (index.go) attached over those ids.
//     Snapshot sweeps walk flat float64 arrays; the whole fleet is a
//     handful of allocations regardless of size.
//
//   - A virgin frontier. Servers at an id at or past `frontier` have
//     never hosted a VM, so they are all byte-identical: full free
//     capacity, empty. They exist implicitly — no column entries, no
//     index nodes — until first touched. Because every placement that
//     opens a new server provably lands on the lowest virgin id (see
//     pick), the touched set is always exactly the prefix
//     [0, frontier), and a replay's memory footprint is
//     O(servers touched), not O(servers configured). The same
//     invariant lets a replay prove facts about other pool sizes
//     (PoolProof), which cluster sizing uses to skip replays.
//
// A cluster is a baseline pool plus K green pools, tried in order. The
// simulator (Sim) is a push-style event consumer: NewSim → Step per
// arrival → Finish at the horizon. Decision identity with the linear
// scan oracle (oracle.go) — same placements, same rejections, same
// Result bits — is proven by the differential suite and cross-checked
// at runtime on every audited placement.

import (
	"context"
	"fmt"
	"math"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

// fleet is one pool of identical servers in columnar form. Ids in
// [0, frontier) are materialized in the parallel slices and attached
// to ix; ids in [frontier, n) are virgin — implicitly at full free
// capacity, empty, and absent from the index.
type fleet struct {
	class      ServerClass
	capC, capM float64 // float64(class.Cores), float64(class.Memory)
	n          int32   // configured pool size
	frontier   int32   // touched servers are exactly [0, frontier)
	coresFree  []float64
	memFree    []float64
	vms        []int32
	touched    []float64 // resident VMs' aggregate touched memory, GB
	ix         ixCore
	// forced[k] records, for each opened server k, whether a pool
	// capped at k would have rejected the VM that opened it
	// (PoolProof.Forced). Only a Sim keeps it.
	forced []bool
}

func newFleet(class ServerClass, n int) fleet {
	f := fleet{
		class: class,
		capC:  float64(class.Cores),
		capM:  float64(class.Memory),
		n:     int32(n),
	}
	// The ixCore zero value has roots at node 0, a valid id; an empty
	// core must point at nilNode.
	f.ix.rootNE, f.ix.rootE = nilNode, nilNode
	return f
}

// state reports a server's free capacity and occupancy, answering for
// virgins without materializing them.
func (f *fleet) state(id int32) (cores, mem float64, nonEmpty bool) {
	if id < f.frontier {
		return f.coresFree[id], f.memFree[id], f.vms[id] > 0
	}
	return f.capC, f.capM, false
}

// pick selects a feasible server decision-identically to the oracle's
// scan over all n servers; choose explains how.
func (f *fleet) pick(cores, mem float64, pol Policy, preferNonEmpty bool) int32 {
	id, _ := f.choose(cores, mem, pol, preferNonEmpty)
	return id
}

// choose is pick that also reports whether any touched server was
// feasible, which PoolProof.Forced needs when the pick opens a new
// server; the index answers both at once.
//
// The oracle's scan visits ids ascending, so it reduces to: scan [0, frontier) — which the index answers — then
// offer the first virgin (id == frontier) as one more candidate. Later
// virgins are identical to the first and the scan's preference
// predicate is strict (ties keep the incumbent), so they can never win
// and need not be considered; this is also why a placement opening a
// new server always opens id frontier, keeping the touched set a
// prefix.
func (f *fleet) choose(cores, mem float64, pol Policy, preferNonEmpty bool) (id int32, touchedFit bool) {
	virgin := f.frontier < f.n && f.capC >= cores && f.capM >= mem
	if f.frontier == 0 {
		if virgin {
			return f.frontier, false
		}
		return nilNode, false
	}
	if preferNonEmpty {
		// The virgin is empty, so any feasible non-empty server beats
		// it outright; it only competes in the empty phase.
		if t := f.ix.pickClass(cores, mem, pol, true); t != nilNode {
			return t, true
		}
		t := f.ix.pickClass(cores, mem, pol, false)
		return f.combine(t, virgin, pol), t != nilNode
	}
	t := f.ix.pickNode(cores, mem, pol, false)
	return f.combine(t, virgin, pol), t != nilNode
}

// combine resolves the touched winner t against the virgin candidate
// (full capacity, id frontier) under the scan's preference predicate.
// The virgin has the highest id, so every tie keeps t.
func (f *fleet) combine(t int32, virgin bool, pol Policy) int32 {
	if !virgin {
		return t
	}
	if t == nilNode {
		return f.frontier
	}
	nd := &f.ix.nodes[t]
	switch pol {
	case BestFit:
		if f.capC != nd.cores {
			if f.capC < nd.cores {
				return f.frontier
			}
			return t
		}
		if f.capM < nd.mem {
			return f.frontier
		}
		return t
	case WorstFit:
		if f.capC != nd.cores {
			if f.capC > nd.cores {
				return f.frontier
			}
			return t
		}
		if f.capM > nd.mem {
			return f.frontier
		}
		return t
	default: // FirstFit: the lower (touched) id always wins.
		return t
	}
}

// firstEmptyFitting is the single-green full-node rule: the lowest id
// of an empty server fitting (cores, mem). Touched empties all precede
// the first virgin.
func (f *fleet) firstEmptyFitting(cores, mem float64) int32 {
	if f.frontier > 0 {
		if t := f.ix.firstEmptyFittingNode(cores, mem); t != nilNode {
			return t
		}
	}
	if f.frontier < f.n && f.capC >= cores && f.capM >= mem {
		return f.frontier
	}
	return nilNode
}

// firstEmpty is the multi-pool full-node rule: the lowest id of an
// empty server, with no capacity condition.
func (f *fleet) firstEmpty() int32 {
	if t := f.ix.segFirstEmpty(); t != nilNode {
		return t
	}
	if f.frontier < f.n {
		return f.frontier
	}
	return nilNode
}

// place applies a placement to a server, materializing it first if it
// is the frontier virgin.
func (f *fleet) place(id int32, cores, mem, touched float64) {
	if id == f.frontier {
		f.coresFree = append(f.coresFree, f.capC)
		f.memFree = append(f.memFree, f.capM)
		f.vms = append(f.vms, 0)
		f.touched = append(f.touched, 0)
		f.ix.grow(f.frontier + 1)
		f.ix.attachID(f.frontier, f.capC, f.capM, false)
		f.frontier++
	}
	f.ix.detachID(id)
	f.coresFree[id] -= cores
	f.memFree[id] -= mem
	f.vms[id]++
	f.touched[id] += touched
	f.ix.attachID(id, f.coresFree[id], f.memFree[id], f.vms[id] > 0)
}

// proof reports what the replay so far proves about other sizes of
// the pool.
func (f *fleet) proof() PoolProof {
	return PoolProof{HighWater: int(f.frontier), Forced: f.forced[:f.frontier:f.frontier]}
}

// release returns a departure's resources. Departing VMs were placed,
// so id is always materialized. A drained server stays materialized
// and indexed: its accumulated float drift is part of decision
// identity with the oracle, which never forgets a server either.
func (f *fleet) release(id int32, cores, mem, touched float64) {
	f.ix.detachID(id)
	f.coresFree[id] += cores
	f.memFree[id] += mem
	f.vms[id]--
	f.touched[id] -= touched
	f.ix.attachID(id, f.coresFree[id], f.memFree[id], f.vms[id] > 0)
}

// limit is one past the highest id a scan needs to visit: the touched
// prefix plus the first virgin, which stands for all of them.
func (f *fleet) limit() int32 {
	if f.frontier < f.n {
		return f.frontier + 1
	}
	return f.frontier
}

// scanPick is the columnar scan: the oracle's preference predicate
// (better in oracle.go) run over the touched prefix plus the first
// virgin. Audited runs re-derive every indexed decision through it.
func (f *fleet) scanPick(cores, mem float64, pol Policy, preferNonEmpty bool) int32 {
	best := nilNode
	var bc, bm float64
	bne := false
	for id := int32(0); id < f.limit(); id++ {
		c, m, ne := f.state(id)
		if !(c >= cores && m >= mem) {
			continue
		}
		if best == nilNode || better(c, m, ne, bc, bm, bne, pol, preferNonEmpty) {
			best, bc, bm, bne = id, c, m, ne
		}
	}
	return best
}

// observeInto folds one snapshot of the fleet into the aggregator,
// visiting non-empty servers in id order — the same sequence the
// oracle's observe sees, so the running sums stay bit-identical.
// Virgins are empty by definition and contribute nothing.
func (f *fleet) observeInto(a *aggregator) {
	if f.n == 0 {
		return
	}
	var allocC, capC, allocM, capM float64
	for id := int32(0); id < f.frontier; id++ {
		if f.vms[id] == 0 {
			continue
		}
		allocC += f.capC - f.coresFree[id]
		capC += f.capC
		allocM += f.capM - f.memFree[id]
		capM += f.capM
		a.observeServer(&f.class, f.touched[id])
	}
	a.observePacking(allocC, capC, allocM, capM)
}

// colDeparture is a pending departure: the server is named by pool
// (0 = baseline, then the green pools in order) and id, not pointer,
// so the heap is flat data the snapshot codec can carry verbatim.
type colDeparture struct {
	at         float64
	cores, mem float64
	touched    float64
	id         int32
	pool       int32
}

// colDepHeap is a min-heap of pending departures ordered by time. It
// uses typed push/pop rather than container/heap, whose interface API
// would box every departure (one heap allocation per placement). The
// sift moves mirror container/heap's exactly, so equal-time departures
// pop in a fixed order — part of decision identity, since the order of
// float additions on a server decides its drift.
type colDepHeap []colDeparture

func colDepPush(h *colDepHeap, d colDeparture) {
	*h = append(*h, d)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if hh[parent].at <= hh[i].at {
			break
		}
		hh[parent], hh[i] = hh[i], hh[parent]
		i = parent
	}
}

func colDepPop(h *colDepHeap) colDeparture {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	hh[n] = colDeparture{}
	*h = hh[:n]
	colDepSiftDown(hh[:n], 0)
	return top
}

func colDepSiftDown(h colDepHeap, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].at < h[l].at {
			m = r
		}
		if h[i].at <= h[m].at {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Sim is the streaming columnar simulator: feed arrivals with Step in
// trace order, close with Finish. Between Steps its entire state is
// flat data — Snapshot/Restore (snapshot.go) checkpoint it exactly.
//
// A Sim built by NewSim (or Restore) runs the Config rules: two pools,
// one Decider, full-node VMs on the first empty baseline server that
// fits a whole node. SimulateMultiContext builds one with K green pools
// and a MultiDecider, whose full-node rule takes the first empty
// baseline server with no fit check.
type Sim struct {
	router
	chk  audit.Checker
	name string

	pools []fleet      // [0] baseline, then the green pools in try order
	aggs  []aggregator // aligned with pools
	deps  colDepHeap

	res        Result
	nextSnap   float64
	snapEvery  float64
	lastArrive float64
	events     int
}

// validateConfig applies NewSim's cluster checks; Restore applies them
// to a decoded configuration too.
func validateConfig(cfg Config) error {
	if cfg.NBase < 0 || cfg.NGreen < 0 || cfg.NBase+cfg.NGreen == 0 {
		return fmt.Errorf("alloc: cluster needs at least one server")
	}
	if cfg.NBase > 0 && (cfg.Base.Cores <= 0 || cfg.Base.Memory <= 0) {
		return fmt.Errorf("alloc: baseline class has no capacity")
	}
	if cfg.NGreen > 0 && (cfg.Green.Cores <= 0 || cfg.Green.Memory <= 0) {
		return fmt.Errorf("alloc: green class has no capacity")
	}
	return nil
}

// NewSim validates the cluster configuration and returns an empty
// simulator.
func NewSim(name string, cfg Config, decide Decider) (*Sim, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if decide == nil {
		decide = AdoptNone
	}
	s := newSim(name, cfg, []Pool{{Class: cfg.Green, N: cfg.NGreen}})
	s.decide = decide
	return s, nil
}

// newSim builds an empty simulator over cfg's baseline pool and the
// given green pools. Callers have validated the cluster.
func newSim(name string, cfg Config, greens []Pool) *Sim {
	snapEvery := cfg.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = 12
	}
	s := &Sim{
		router:     router{cfg: cfg},
		chk:        audit.Resolve(cfg.Audit),
		name:       name,
		pools:      make([]fleet, 1+len(greens)),
		aggs:       make([]aggregator, 1+len(greens)),
		nextSnap:   snapEvery,
		snapEvery:  snapEvery,
		lastArrive: math.Inf(-1),
	}
	s.pools[0] = newFleet(cfg.Base, cfg.NBase)
	for i, g := range greens {
		s.pools[1+i] = newFleet(g.Class, g.N)
	}
	return s
}

// Events reports how many arrivals the simulator has consumed.
func (s *Sim) Events() int { return s.events }

func (s *Sim) release(until float64) {
	for len(s.deps) > 0 && s.deps[0].at <= until {
		d := colDepPop(&s.deps)
		f := &s.pools[d.pool]
		f.release(d.id, d.cores, d.mem, d.touched)
		if s.chk != nil {
			f.auditBounds(s.chk, d.id, "release")
		}
	}
}

func (s *Sim) observe() {
	for i := range s.pools {
		s.pools[i].observeInto(&s.aggs[i])
	}
	s.res.Snapshots++
}

// fullNodePick applies the sim's full-node rule to the baseline pool.
func (s *Sim) fullNodePick() int32 {
	base := &s.pools[0]
	if s.decideMulti != nil {
		return base.firstEmpty()
	}
	return base.firstEmptyFitting(base.capC, base.capM)
}

// Step consumes one arrival. Events must arrive in trace order; each
// is validated on the way in (trace.CheckVM), so malformed streams are
// rejected at the first bad event with the same message Validate gives.
func (s *Sim) Step(vm trace.VM) error {
	if err := trace.CheckVM(s.name, s.events, s.lastArrive, vm); err != nil {
		return err
	}
	// Take snapshots and release departed VMs up to this arrival.
	for s.nextSnap <= vm.Arrive {
		s.release(s.nextSnap)
		s.observe()
		s.nextSnap += s.snapEvery
	}
	s.release(vm.Arrive)

	d, md := s.decideFor(vm)
	pool, placed := 0, nilNode
	var cores, mem float64
	// touchedFit is whether the chosen pool had a feasible touched
	// server. It stays false for full-node VMs: they take the first
	// empty server, so opening a new one means none was empty.
	var touchedFit bool
	if vm.FullNode {
		placed = s.fullNodePick()
		if s.chk != nil {
			s.auditFullNodePick(placed)
		}
		cores, mem = s.pools[0].capC, s.pools[0].capM
	} else {
		for g := 1; g < len(s.pools) && placed == nilNode; g++ {
			scale, ok := s.offer(g, d, md)
			if !ok {
				continue
			}
			cores = float64(vm.Cores) * scale
			mem = float64(vm.Memory) * scale
			placed, touchedFit = s.pickFrom(&s.pools[g], cores, mem)
			pool = g
		}
		if placed == nilNode {
			cores = float64(vm.Cores)
			mem = float64(vm.Memory)
			placed, touchedFit = s.pickFrom(&s.pools[0], cores, mem)
			pool = 0
		}
	}
	s.lastArrive = vm.Arrive
	s.events++
	if placed == nilNode {
		if s.chk != nil {
			s.auditRejection(vm, d, md)
		}
		s.res.Rejected++
		if vm.Deferrable {
			s.res.DeferrableRejected++
		}
		return nil
	}
	f := &s.pools[pool]
	if s.chk != nil {
		if fc, fm, _ := f.state(placed); !admissible(fc, fm, cores, mem) {
			audit.Failf(s.chk, "alloc", "admissibility",
				"VM %d (%gc/%gGB) placed on %s with only %gc/%gGB free",
				vm.ID, cores, mem, f.class.Name, fc, fm)
		}
		if vm.Depart <= vm.Arrive {
			audit.Failf(s.chk, "alloc", "placed-after-departure",
				"VM %d placed at t=%g after its departure t=%g", vm.ID, vm.Arrive, vm.Depart)
		}
	}
	if placed == f.frontier {
		f.forced = append(f.forced, !touchedFit && !s.fallbackTakes(vm, pool, d, md))
	}
	touched := mem * vm.MaxMemFrac
	f.place(placed, cores, mem, touched)
	if s.chk != nil {
		f.auditBounds(s.chk, placed, "place")
	}
	if testObserve != nil {
		testObserve(vm.ID, pool, placed)
	}
	colDepPush(&s.deps, colDeparture{at: vm.Depart, cores: cores, mem: mem, touched: touched, id: placed, pool: int32(pool)})
	s.res.Placed++
	if vm.Deferrable {
		s.res.DeferrablePlaced++
	}
	return nil
}

// fallbackTakes reports whether a pool tried after pool (later green
// pools, then the baseline) has a feasible server for vm: had pool
// been capped, vm would have gone there instead of being rejected.
// Step asks only when a placement opens a new server.
func (s *Sim) fallbackTakes(vm trace.VM, pool int, d Decision, md MultiDecision) bool {
	if vm.FullNode || pool == 0 {
		return false
	}
	pol, prefer := s.cfg.Policy, s.cfg.PreferNonEmpty
	for g := pool + 1; g < len(s.pools); g++ {
		if scale, ok := s.offer(g, d, md); ok &&
			s.pools[g].pick(float64(vm.Cores)*scale, float64(vm.Memory)*scale, pol, prefer) != nilNode {
			return true
		}
	}
	return s.pools[0].pick(float64(vm.Cores), float64(vm.Memory), pol, prefer) != nilNode
}

// pickFrom picks through the index, reporting whether any touched
// server was feasible; with auditing on, the decision is re-derived by
// the columnar scan and any disagreement reported.
func (s *Sim) pickFrom(f *fleet, cores, mem float64) (int32, bool) {
	id, touchedFit := f.choose(cores, mem, s.cfg.Policy, s.cfg.PreferNonEmpty)
	if s.chk != nil {
		if ref := f.scanPick(cores, mem, s.cfg.Policy, s.cfg.PreferNonEmpty); ref != id {
			audit.Failf(s.chk, "alloc", "index-divergence",
				"%s pick(%gc/%gGB, %v, preferNonEmpty=%v): index chose server %d, scan chose %d",
				f.class.Name, cores, mem, s.cfg.Policy, s.cfg.PreferNonEmpty, id, ref)
		}
	}
	return id, touchedFit
}

// auditFullNodePick cross-checks the full-node selection against a
// scan for the lowest empty server (that fits a whole node, under the
// Config rule).
func (s *Sim) auditFullNodePick(got int32) {
	base := &s.pools[0]
	want := nilNode
	for id := int32(0); id < base.limit(); id++ {
		c, m, ne := base.state(id)
		if !ne && (s.decideMulti != nil || c >= base.capC && m >= base.capM) {
			want = id
			break
		}
	}
	if got != want {
		audit.Failf(s.chk, "alloc", "index-divergence",
			"full-node pick: index chose server %d, scan chose %d", got, want)
	}
}

// auditRejection verifies a rejection was genuine: no feasible server
// exists in any pool the VM was offered to.
func (s *Sim) auditRejection(vm trace.VM, d Decision, md MultiDecision) {
	if vm.FullNode {
		// auditFullNodePick has already scanned for an empty server.
		return
	}
	pol, prefer := s.cfg.Policy, s.cfg.PreferNonEmpty
	if s.pools[0].scanPick(float64(vm.Cores), float64(vm.Memory), pol, prefer) != nilNode {
		audit.Failf(s.chk, "alloc", "spurious-rejection",
			"VM %d (%dc/%gGB) rejected with feasible baseline server", vm.ID, vm.Cores, float64(vm.Memory))
	}
	for g := 1; g < len(s.pools); g++ {
		scale, ok := s.offer(g, d, md)
		if !ok {
			continue
		}
		c, m := float64(vm.Cores)*scale, float64(vm.Memory)*scale
		if s.pools[g].scanPick(c, m, pol, prefer) != nilNode {
			audit.Failf(s.chk, "alloc", "spurious-rejection",
				"adopting VM %d (%gc/%gGB scaled) rejected with feasible %s server", vm.ID, c, m, s.pools[g].class.Name)
		}
	}
}

// auditBounds checks one mutated server's columns.
func (f *fleet) auditBounds(chk audit.Checker, id int32, op string) {
	auditServerBounds(chk, &f.class, f.coresFree[id], f.memFree[id], int(f.vms[id]), f.touched[id], op)
}

// Finish runs the tail snapshots through the horizon, takes the final
// observation, drains the audit checks, and returns the Result. On a
// multi-pool sim Result.Green is the first green pool's.
func (s *Sim) Finish(horizon float64) Result {
	for s.nextSnap <= horizon {
		s.release(s.nextSnap)
		s.observe()
		s.nextSnap += s.snapEvery
	}
	s.release(horizon)
	s.observe()

	if s.chk != nil {
		s.release(math.Inf(1))
		for i := range s.pools {
			f := &s.pools[i]
			for id := int32(0); id < f.frontier; id++ {
				auditDrained(s.chk, &f.class, id, f.coresFree[id], f.memFree[id], int(f.vms[id]), f.touched[id])
			}
			f.ix.auditIntegrityCore(s.chk, f.class.Name, f.frontier, f.state)
		}
	}

	res := s.res
	res.Base = s.aggs[0].stats()
	res.BaseProof = s.pools[0].proof()
	if len(s.aggs) > 1 {
		res.Green = s.aggs[1].stats()
		res.GreenProof = s.pools[1].proof()
	}
	return res
}

// run streams src through the simulator, polling ctx every 1024
// events, and closes it at the source's horizon.
func (s *Sim) run(ctx context.Context, src trace.Source) (Result, error) {
	for i := 0; ; i++ {
		vm, ok := src.Next()
		if !ok {
			break
		}
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if err := s.Step(vm); err != nil {
			return Result{}, err
		}
	}
	if err := src.Err(); err != nil {
		return Result{}, err
	}
	return s.Finish(src.Horizon()), nil
}

// SimulateSource replays a streaming event source through the columnar
// simulator — the path SimulateContext takes, and the only way to
// consume a binary trace without materializing it. Cancellation is
// polled every 1024 events.
func SimulateSource(ctx context.Context, src trace.Source, cfg Config, decide Decider) (Result, error) {
	sim, err := NewSim(src.Name(), cfg, decide)
	if err != nil {
		return Result{}, err
	}
	return sim.run(ctx, src)
}
