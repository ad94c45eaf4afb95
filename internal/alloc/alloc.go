// Package alloc implements GSF's VM allocation component (§IV-C, §V): a
// VM placement simulator capturing the key rules of Azure's production
// scheduler — best-fit placement to reduce fragmentation, a preference
// for non-empty servers, and placement constraints (full-node VMs pin to
// baseline SKUs; only adopting VMs may land on GreenSKUs, with their
// requests scaled by the application's scaling factor).
//
// The simulator replays a trace against a fixed cluster of baseline and
// GreenSKU servers and reports rejections, packing densities, and
// per-server memory-utilisation snapshots — the measurements behind
// Figs. 9 and 10.
//
// There is one engine: the columnar streaming simulator (colsim.go),
// which holds each pool as flat columns under an O(log S) placement
// index (index.go) and materializes only the servers a replay touches.
// Single-green and multi-pool replays (multi.go) both run on it. The
// linear-scan oracle (oracle.go) states the same rule in its plainest
// form; tests and gsfbench compare the engine against it.
package alloc

import (
	"context"
	"fmt"
	"math"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
	"github.com/greensku/gsf/internal/units"
)

// ServerClass describes one SKU's capacity as seen by the scheduler.
type ServerClass struct {
	Name   string
	Cores  int
	Memory units.GB
	// LocalMemory is the direct-attached (DDR5) portion; memory above
	// it is served from CXL. Equal to Memory when the SKU has no CXL.
	LocalMemory units.GB
	Green       bool
}

// Decision is the adoption component's directive for one VM.
type Decision struct {
	// Adopt permits placement on GreenSKU servers.
	Adopt bool
	// Scale multiplies the VM's core and memory request when placed
	// on a GreenSKU (the application's scaling factor; >= 1).
	Scale float64
}

// Decider maps a VM to its placement directive.
type Decider func(trace.VM) Decision

// AdoptAll places every non-full-node VM on GreenSKUs unscaled; useful
// as a baseline policy and in tests.
func AdoptAll(trace.VM) Decision { return Decision{Adopt: true, Scale: 1} }

// AdoptNone keeps every VM on baseline servers.
func AdoptNone(trace.VM) Decision { return Decision{} }

// Policy selects among feasible servers.
type Policy int

const (
	// BestFit picks the feasible server with the least free cores
	// (ties: least free memory) — the production default.
	BestFit Policy = iota
	// FirstFit picks the lowest-indexed feasible server.
	FirstFit
	// WorstFit picks the feasible server with the most free cores
	// (ties: most free memory), the spreading counterpart of BestFit.
	WorstFit
)

func (p Policy) String() string {
	switch p {
	case BestFit:
		return "best-fit"
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy is String's inverse; the empty string selects BestFit,
// the production default.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "best-fit":
		return BestFit, nil
	case "first-fit":
		return FirstFit, nil
	case "worst-fit":
		return WorstFit, nil
	}
	return 0, fmt.Errorf("alloc: unknown policy %q (want best-fit, first-fit, or worst-fit)", s)
}

// Config describes the simulated cluster.
type Config struct {
	Base   ServerClass
	NBase  int
	Green  ServerClass
	NGreen int
	Policy Policy
	// PreferNonEmpty applies the production rule of packing onto
	// already-occupied servers when possible.
	PreferNonEmpty bool
	// SnapshotEvery controls how often (in trace hours) utilisation
	// snapshots are taken. Zero defaults to 12h.
	SnapshotEvery float64
	// Audit receives invariant violations (core/memory conservation,
	// placement admissibility, spurious rejections). Nil falls back to
	// the process default (audit.SetDefault); if that is also nil,
	// checking is disabled and costs nothing.
	Audit audit.Checker
}

// ClassStats aggregates snapshot measurements for one server class.
type ClassStats struct {
	// CorePacking and MemPacking are mean packing densities across
	// snapshots: allocated/allocatable on non-empty servers.
	CorePacking float64
	MemPacking  float64
	// MaxMemUtil is the mean per-server maximum memory utilisation:
	// the resident VMs' aggregate touched memory over server memory.
	MaxMemUtil float64
	// CXLServedFrac is the mean fraction of touched memory that
	// spills past local DDR5 onto CXL (zero for non-CXL classes).
	CXLServedFrac float64
	// LocalFitsFrac is the fraction of snapshot server observations
	// whose touched memory fits entirely in local DDR5.
	LocalFitsFrac float64
}

// Result summarises one simulation.
type Result struct {
	Placed   int
	Rejected int
	// DeferrablePlaced/DeferrableRejected split the counts for
	// delay-tolerant VMs, so carbon-aware re-timing experiments can
	// see whether shifting starved the deferrable class specifically.
	DeferrablePlaced   int
	DeferrableRejected int
	Base               ClassStats
	Green              ClassStats
	Snapshots          int
	// BaseProof and GreenProof are what the replay proves about other
	// sizes of each pool (see PoolProof). Cluster sizing answers its
	// search probes from them.
	BaseProof  PoolProof
	GreenProof PoolProof
}

// PoolProof is what one replay proves about the same replay with one
// pool resized, every other pool and directive unchanged. Both facts
// follow from the frontier invariant (colsim.go): a placement that
// opens a new server always takes the lowest never-used id.
//
//   - HighWater is the number of the pool's servers the replay ever
//     used. At any size N with HighWater <= N <= the replayed size, the
//     replay makes exactly the same decisions, so its outcome (in
//     particular its rejection count) is the same.
//   - Forced[k], for k < HighWater, is true when, at the moment the
//     replay opened server k, the pool had no feasible server among
//     ids [0, k) and no pool tried after it (later green pools, then
//     the baseline) would take the VM. A replay with the pool capped
//     at k makes the same decisions up to that moment and then rejects
//     the VM, so at size k the trace does not fit.
//
// A false Forced[k] proves nothing. A Sim resumed from a snapshot
// reports false for the servers opened before the snapshot, whose
// opening the snapshot does not record.
type PoolProof struct {
	HighWater int
	Forced    []bool
}

// Simulate replays the trace against the configured cluster.
func Simulate(tr trace.Trace, cfg Config, decide Decider) (Result, error) {
	return SimulateContext(context.Background(), tr, cfg, decide)
}

// SimulateContext is Simulate with cancellation: the replay polls ctx
// every 1024 VMs and returns the context error once observed. It
// validates the trace, then streams it through the columnar simulator
// (colsim.go).
func SimulateContext(ctx context.Context, tr trace.Trace, cfg Config, decide Decider) (Result, error) {
	if err := tr.Validate(); err != nil {
		return Result{}, err
	}
	return SimulateSource(ctx, trace.NewSliceSource(tr), cfg, decide)
}

// router interprets a replay's directives — the parts of the placement
// rule that do not depend on how servers are stored, shared by the
// engine and the oracle.
type router struct {
	cfg         Config // Policy, PreferNonEmpty and the baseline pool
	decide      Decider
	decideMulti MultiDecider // non-nil on multi-pool replays
}

// decideFor consults the decider. A Config replay asks about every VM,
// full-node ones included, and clamps the scale to >= 1; a multi-pool
// replay asks only about the VMs it routes.
func (r *router) decideFor(vm trace.VM) (d Decision, md MultiDecision) {
	if r.decideMulti == nil {
		d = r.decide(vm)
		if d.Scale < 1 {
			d.Scale = 1
		}
	} else if !vm.FullNode {
		md = r.decideMulti(vm)
	}
	return d, md
}

// offer reports the scaling factor at which green pool g (1-based) is
// offered to a VM, or ok=false when it is not. A Config replay offers
// its one green pool to adopters; a multi-pool replay offers pool g
// when its directive's scale is positive.
func (r *router) offer(g int, d Decision, md MultiDecision) (scale float64, ok bool) {
	if r.decideMulti == nil {
		return d.Scale, d.Adopt && r.cfg.NGreen > 0
	}
	i := g - 1
	if i >= len(md.Scales) || md.Scales[i] <= 0 {
		return 0, false
	}
	scale = md.Scales[i]
	if scale < 1 {
		scale = 1
	}
	return scale, true
}

// better reports whether a feasible candidate with free capacity
// (c, m) and occupancy ne beats the incumbent (bc, bm, bne): non-empty
// first under PreferNonEmpty, then BestFit's least free cores (then
// memory) or WorstFit's most. Ties keep the incumbent, which a scan in
// id order met first; FirstFit therefore never replaces it.
func better(c, m float64, ne bool, bc, bm float64, bne bool, pol Policy, preferNonEmpty bool) bool {
	if preferNonEmpty && ne != bne {
		return ne
	}
	switch pol {
	case BestFit:
		if c != bc {
			return c < bc
		}
		return m < bm
	case WorstFit:
		if c != bc {
			return c > bc
		}
		return m > bm
	}
	return false
}

// admissible is the audit's placement check: the server had the free
// capacity the VM took. Every placement rule checks fit exactly, so
// the check is exact too.
func admissible(coresFree, memFree, cores, mem float64) bool {
	return coresFree >= cores && memFree >= mem
}

// auditServerBounds checks one mutated server's free capacity stays in
// [0, capacity] (within audit.SimTol for accumulated rounding).
func auditServerBounds(chk audit.Checker, class *ServerClass, coresFree, memFree float64, vms int, touched float64, op string) {
	const tol = audit.SimTol
	if coresFree < -tol || coresFree > float64(class.Cores)+tol {
		audit.Failf(chk, "alloc", "core-conservation",
			"%s on %s: free cores %g outside [0, %d]", op, class.Name, coresFree, class.Cores)
	}
	if memFree < -tol || memFree > float64(class.Memory)+tol {
		audit.Failf(chk, "alloc", "memory-conservation",
			"%s on %s: free memory %g outside [0, %g]", op, class.Name, memFree, float64(class.Memory))
	}
	if vms < 0 {
		audit.Failf(chk, "alloc", "vm-count", "%s on %s: resident VM count %d < 0", op, class.Name, vms)
	}
	if touched < -tol {
		audit.Failf(chk, "alloc", "memory-conservation",
			"%s on %s: touched memory %g < 0", op, class.Name, touched)
	}
}

// auditDrained checks that a server of a fully-drained pool returned
// to its initial state: free capacity equals class capacity and
// nothing is resident.
func auditDrained(chk audit.Checker, class *ServerClass, id int32, coresFree, memFree float64, vms int, touched float64) {
	if !audit.Close(coresFree, float64(class.Cores), audit.SimTol) {
		audit.Failf(chk, "alloc", "core-conservation",
			"server %d (%s): %g cores free after drain, want %d", id, class.Name, coresFree, class.Cores)
	}
	if !audit.Close(memFree, float64(class.Memory), audit.SimTol) {
		audit.Failf(chk, "alloc", "memory-conservation",
			"server %d (%s): %g GB free after drain, want %g", id, class.Name, memFree, float64(class.Memory))
	}
	if vms != 0 {
		audit.Failf(chk, "alloc", "vm-count",
			"server %d (%s): %d VMs resident after drain", id, class.Name, vms)
	}
	if !audit.Close(touched, 0, audit.SimTol) {
		audit.Failf(chk, "alloc", "memory-conservation",
			"server %d (%s): %g GB touched after drain", id, class.Name, touched)
	}
}

// aggregator accumulates snapshot observations for one class as
// running sums — O(1) memory however many snapshots a replay takes,
// and flat enough that the simulator checkpoint codec (snapshot.go)
// can carry it verbatim. Each sum accumulates in exactly the order the
// old per-snapshot slices were appended and summed, so the reported
// means are bit-identical to the slice implementation's.
type aggregator struct {
	corePackSum, memPackSum float64
	packObs                 int
	maxMemUtilSum           float64
	cxlFracSum              float64
	cxlObs                  int
	localFits, observed     int
}

// observeServer folds one non-empty server's snapshot observation into
// the per-server sums. Both engines funnel through it: the oracle
// passes a server's fields, the columnar fleet its column entries.
func (a *aggregator) observeServer(class *ServerClass, maxMemTouched float64) {
	util := maxMemTouched / float64(class.Memory)
	a.maxMemUtilSum += util
	local := float64(class.LocalMemory)
	if local <= 0 || local > float64(class.Memory) {
		local = float64(class.Memory)
	}
	over := maxMemTouched - local
	if over < 0 {
		over = 0
		a.localFits++
	}
	a.observed++
	if maxMemTouched > 0 {
		a.cxlFracSum += over / maxMemTouched
		a.cxlObs++
	}
}

// observePacking folds one snapshot's pool-wide packing densities in.
func (a *aggregator) observePacking(allocC, capC, allocM, capM float64) {
	if capC > 0 {
		a.corePackSum += allocC / capC
		a.memPackSum += allocM / capM
		a.packObs++
	}
}

func (a *aggregator) stats() ClassStats {
	var cs ClassStats
	cs.CorePacking = meanOf(a.corePackSum, a.packObs)
	cs.MemPacking = meanOf(a.memPackSum, a.packObs)
	cs.MaxMemUtil = meanOf(a.maxMemUtilSum, a.observed)
	cs.CXLServedFrac = meanOf(a.cxlFracSum, a.cxlObs)
	if a.observed > 0 {
		cs.LocalFitsFrac = float64(a.localFits) / float64(a.observed)
	}
	return cs
}

// meanOf is sum/n with the empty-sample convention (NaN) the
// per-snapshot slices had.
func meanOf(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// ClassOf derives a ServerClass from SKU capacities.
func ClassOf(name string, cores int, memory, localMemory units.GB, green bool) ServerClass {
	return ServerClass{Name: name, Cores: cores, Memory: memory, LocalMemory: localMemory, Green: green}
}
