// Package cluster implements GSF's cluster-sizing component (§IV-D,
// §V): it right-sizes a baseline-only cluster for a VM trace, then
// finds the smallest mixed cluster of GreenSKUs plus baseline SKUs that
// still hosts the trace without rejecting any VM, and compares the two
// clusters' lifetime carbon.
package cluster

import (
	"context"
	"fmt"
	"math"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/trace"
	"github.com/greensku/gsf/internal/units"
)

// Sizer runs right-sizing searches for one workload and SKU pair.
type Sizer struct {
	Base   alloc.ServerClass
	Green  alloc.ServerClass
	Policy alloc.Policy
	// Decide is the adoption component's per-VM directive used when
	// GreenSKUs are present.
	Decide alloc.Decider
	// MaxServers caps the search (guards against unhostable traces).
	MaxServers int
	// Audit receives invariant violations from the sizing search and is
	// forwarded to every allocation simulation it runs. Nil falls back
	// to the process default (audit.SetDefault). An audited sizing also
	// replays every probe a proof answered (proof.go), so it runs as
	// many replays as a plain bisection.
	Audit audit.Checker
}

// simulate replays the trace against nBase + nGreen servers.
func (s *Sizer) simulate(ctx context.Context, tr trace.Trace, nBase, nGreen int, decide alloc.Decider) (alloc.Result, error) {
	return alloc.SimulateContext(ctx, tr, alloc.Config{
		Base: s.Base, NBase: nBase,
		Green: s.Green, NGreen: nGreen,
		Policy: s.Policy, PreferNonEmpty: true,
		Audit: s.Audit,
	}, decide)
}

func (s *Sizer) maxServers(tr trace.Trace) int {
	if s.MaxServers > 0 {
		return s.MaxServers
	}
	st := trace.Summarise(tr)
	perCores := int(math.Ceil(float64(st.PeakCoreDmd)/float64(s.Base.Cores))) + st.FullNodeVMs
	perMem := int(math.Ceil(float64(st.PeakMemoryDmd) / float64(s.Base.Memory)))
	n := perCores
	if perMem > n {
		n = perMem
	}
	// Fragmentation means the right size can exceed the fluid bound;
	// 3x plus slack is a safe ceiling.
	return 3*n + 8
}

// stage returns the proof table of one sizing search: counts maps the
// searched pool's count (pool 0 the baseline, 1 the GreenSKUs) to the
// cluster replayed.
func (s *Sizer) stage(ctx context.Context, tr trace.Trace, what string, pool int, counts func(n int) (nBase, nGreen int)) *proofTable {
	return newProofTable(audit.Resolve(s.Audit), tr.Name+": "+what, pool, func(n int) (outcome, error) {
		nBase, nGreen := counts(n)
		if nBase+nGreen == 0 {
			// An empty cluster hosts only an empty trace, and uses no
			// server of either pool.
			return outcome{fits: len(tr.VMs) == 0, proofs: make([]alloc.PoolProof, 2)}, nil
		}
		res, err := s.simulate(ctx, tr, nBase, nGreen, s.Decide)
		if err != nil {
			return outcome{}, err
		}
		return outcome{fits: res.Rejected == 0, proofs: []alloc.PoolProof{res.BaseProof, res.GreenProof}}, nil
	})
}

// searchMin is a bisection for the smallest n in [0, hi] at which
// ok(n) holds. It first requires ok(hi) and fails without it. Since
// fragmentation can make "fits" non-monotone, the result need not be
// the smallest such n overall; what the bisection guarantees is a
// boundary: ok(lo) holds, and ok(lo-1) does not when lo > 0. Sizing
// probes go through a proof table (proof.go), which answers what
// earlier replays prove and replays the rest, so the probes, their
// answers and the result are those of replaying every probe.
func searchMin(hi int, ok func(int) (bool, error)) (int, error) {
	if fits, err := ok(hi); err != nil {
		return 0, err
	} else if !fits {
		return 0, fmt.Errorf("cluster: workload does not fit within %d servers", hi)
	}
	lo := 0
	for lo < hi {
		mid := (lo + hi) / 2
		fits, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if fits {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// RightSizeBaseline returns the minimum number of baseline servers that
// host the trace with no rejections (the paper's first sizing step).
func (s *Sizer) RightSizeBaseline(tr trace.Trace) (int, error) {
	return s.RightSizeBaselineContext(context.Background(), tr)
}

// RightSizeBaselineContext is RightSizeBaseline with cancellation.
func (s *Sizer) RightSizeBaselineContext(ctx context.Context, tr trace.Trace) (int, error) {
	if err := tr.Validate(); err != nil {
		return 0, err
	}
	return s.stage(ctx, tr, "baseline-only count", 0, func(n int) (int, int) { return n, 0 }).search(s.maxServers(tr))
}

// Mix is a sized mixed cluster.
type Mix struct {
	BaselineOnly int // right-sized all-baseline cluster
	NBase        int // baseline servers kept in the mixed cluster
	NGreen       int // GreenSKU servers in the mixed cluster
}

// MixedSize performs the paper's incremental-replacement search: after
// right-sizing the baseline-only cluster, it finds the fewest baseline
// servers that must remain (hosting non-adopting and full-node VMs) and
// then the fewest GreenSKUs that, together with them, host everything.
func (s *Sizer) MixedSize(tr trace.Trace) (Mix, error) {
	return s.MixedSizeContext(context.Background(), tr)
}

// MixedSizeContext is MixedSize with cancellation.
func (s *Sizer) MixedSizeContext(ctx context.Context, tr trace.Trace) (Mix, error) {
	var m Mix
	n0, err := s.RightSizeBaselineContext(ctx, tr)
	if err != nil {
		return m, err
	}
	m.BaselineOnly = n0
	if s.Green.Cores == 0 {
		m.NBase = n0
		return m, nil
	}
	// Plenty of green capacity while minimising baseline count.
	greenCap := s.maxServers(tr)
	kept := s.stage(ctx, tr, "kept baseline count", 0, func(n int) (int, int) { return n, greenCap })
	if m.NBase, err = kept.search(n0); err != nil {
		return m, err
	}
	green := s.stage(ctx, tr, "GreenSKU count", 1, func(n int) (int, int) { return m.NBase, n })
	green.carry(greenCap, kept, m.NBase)
	if m.NGreen, err = green.search(greenCap); err != nil {
		return m, err
	}
	s.auditMix(tr, m)
	return m, nil
}

// auditMix verifies a sizing result: counts are non-negative, the mixed
// cluster never keeps more baseline servers than the all-baseline
// right-sizing, and (because it hosts the trace with zero rejections,
// and GreenSKU placement only inflates requests) its core and memory
// capacity cover the trace's peak concurrent demand.
func (s *Sizer) auditMix(tr trace.Trace, m Mix) {
	chk := audit.Resolve(s.Audit)
	if chk == nil {
		return
	}
	if m.BaselineOnly < 0 || m.NBase < 0 || m.NGreen < 0 {
		audit.Failf(chk, "cluster", "negative-size", "mix %+v has a negative count", m)
	}
	if m.NBase > m.BaselineOnly {
		audit.Failf(chk, "cluster", "baseline-shrinks",
			"mixed cluster keeps %d baseline servers, more than the %d right-sized", m.NBase, m.BaselineOnly)
	}
	// A placed VM consumes at least its requested resources (GreenSKU
	// placement scales requests up, never down), so a rejection-free
	// cluster's capacity bounds the requested peak — except for
	// full-node VMs requesting more than one baseline server, which
	// consume only the server they pin.
	for _, v := range tr.VMs {
		if v.FullNode && (v.Cores > s.Base.Cores || float64(v.Memory) > float64(s.Base.Memory)) {
			return
		}
	}
	st := trace.Summarise(tr)
	cores := m.NBase*s.Base.Cores + m.NGreen*s.Green.Cores
	if cores < st.PeakCoreDmd {
		audit.Failf(chk, "cluster", "capacity-below-peak",
			"trace %s: mixed capacity %d cores below peak demand %d", tr.Name, cores, st.PeakCoreDmd)
	}
	mem := float64(m.NBase)*float64(s.Base.Memory) + float64(m.NGreen)*float64(s.Green.Memory)
	if mem < float64(st.PeakMemoryDmd) {
		audit.Failf(chk, "cluster", "capacity-below-peak",
			"trace %s: mixed capacity %g GB below peak demand %g", tr.Name, mem, float64(st.PeakMemoryDmd))
	}
}

// Emissions computes a cluster's lifetime carbon from per-core
// emissions (rack-amortised) at a given carbon intensity.
func Emissions(n int, class alloc.ServerClass, pc carbon.PerCore) units.KgCO2e {
	return units.KgCO2e(float64(n) * float64(class.Cores) * float64(pc.Total()))
}

// SavingsInput bundles what the savings calculation needs per SKU.
type SavingsInput struct {
	Class   alloc.ServerClass
	PerCore carbon.PerCore
}

// Savings returns the relative carbon reduction of the mixed cluster
// versus the right-sized all-baseline cluster (Fig. 11's y-axis).
func Savings(m Mix, base, green SavingsInput) float64 {
	all := Emissions(m.BaselineOnly, base.Class, base.PerCore)
	mixed := Emissions(m.NBase, base.Class, base.PerCore) + Emissions(m.NGreen, green.Class, green.PerCore)
	if all == 0 {
		return 0
	}
	return 1 - float64(mixed)/float64(all)
}

// PackingComparison holds the Fig. 9/10 measurements for one trace:
// packing densities and memory utilisation for the right-sized
// all-baseline cluster and for the GreenSKUs of the mixed cluster.
type PackingComparison struct {
	Trace string
	Mix   Mix
	// Baseline stats come from the all-baseline right-sized cluster.
	Baseline alloc.ClassStats
	// Green stats come from the GreenSKU servers of the mixed cluster.
	Green alloc.ClassStats
}

// ComparePacking right-sizes both cluster shapes for the trace and
// returns their packing measurements.
func (s *Sizer) ComparePacking(tr trace.Trace) (PackingComparison, error) {
	return s.ComparePackingContext(context.Background(), tr)
}

// ComparePackingContext is ComparePacking with cancellation.
func (s *Sizer) ComparePackingContext(ctx context.Context, tr trace.Trace) (PackingComparison, error) {
	var pc PackingComparison
	pc.Trace = tr.Name
	m, err := s.MixedSizeContext(ctx, tr)
	if err != nil {
		return pc, err
	}
	pc.Mix = m
	baseRes, err := s.simulate(ctx, tr, m.BaselineOnly, 0, alloc.AdoptNone)
	if err != nil {
		return pc, err
	}
	pc.Baseline = baseRes.Base
	mixRes, err := s.simulate(ctx, tr, m.NBase, m.NGreen, s.Decide)
	if err != nil {
		return pc, err
	}
	pc.Green = mixRes.Green
	return pc, nil
}
