package cluster

// Multi-SKU cluster sizing: extends the single-GreenSKU search to
// clusters deploying several GreenSKU types at once, the diversity
// question of §II's design goal D2 (every extra SKU type adds
// operational complexity — is the carbon worth it?).

import (
	"context"
	"fmt"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

// MultiSizer sizes a baseline pool plus N green pools.
type MultiSizer struct {
	Base   alloc.ServerClass
	Greens []alloc.ServerClass
	Policy alloc.Policy
	Decide alloc.MultiDecider
	// MaxServers caps each pool's search.
	MaxServers int
}

// MultiMix is a sized multi-SKU cluster.
type MultiMix struct {
	BaselineOnly int
	NBase        int
	NGreens      []int // aligned with Greens
}

func (s *MultiSizer) maxServers(tr trace.Trace) int {
	if s.MaxServers > 0 {
		return s.MaxServers
	}
	single := &Sizer{Base: s.Base}
	return single.maxServers(tr)
}

// simulate replays the trace against nBase baseline servers and
// nGreens[i] servers of each green pool.
func (s *MultiSizer) simulate(ctx context.Context, tr trace.Trace, nBase int, nGreens []int) (alloc.MultiResult, error) {
	pools := make([]alloc.Pool, len(s.Greens))
	for i, g := range s.Greens {
		pools[i] = alloc.Pool{Class: g, N: nGreens[i]}
	}
	return alloc.SimulateMultiContext(ctx, tr, alloc.MultiConfig{
		Base:           alloc.Pool{Class: s.Base, N: nBase},
		Greens:         pools,
		Policy:         s.Policy,
		PreferNonEmpty: true,
	}, s.Decide)
}

// stage returns the proof table of the search over one pool's count
// (0 the baseline, i+1 green pool i), the other pools held at counts.
// Its replays audit through the process default checker, as the
// MultiSizer's allocation replays do.
func (s *MultiSizer) stage(ctx context.Context, tr trace.Trace, pool int, counts []int) *proofTable {
	what := fmt.Sprintf("%s: pool %d count", tr.Name, pool)
	return newProofTable(audit.Resolve(nil), what, pool, func(n int) (outcome, error) {
		trial := append([]int(nil), counts...)
		trial[pool] = n
		total := 0
		for _, c := range trial {
			total += c
		}
		if total == 0 {
			return outcome{fits: len(tr.VMs) == 0, proofs: make([]alloc.PoolProof, len(trial))}, nil
		}
		res, err := s.simulate(ctx, tr, trial[0], trial[1:])
		if err != nil {
			return outcome{}, err
		}
		return outcome{fits: res.Rejected == 0, proofs: append([]alloc.PoolProof{res.BaseProof}, res.GreenProofs...)}, nil
	})
}

// Size right-sizes the multi-SKU cluster: minimal baseline count with
// all green pools abundant, then each green pool minimised in turn
// (later pools abundant while earlier ones are fixed). Pool order is
// the preference order the decider uses, so earlier pools absorb the
// workload they are preferred for. Each search is a bisection through
// a proof table, like Sizer's; the last search's boundary guarantee
// (searchMin) means the returned cluster hosts the trace.
func (s *MultiSizer) Size(tr trace.Trace) (MultiMix, error) {
	return s.SizeContext(context.Background(), tr)
}

// SizeContext is Size with cancellation.
func (s *MultiSizer) SizeContext(ctx context.Context, tr trace.Trace) (MultiMix, error) {
	var m MultiMix
	if len(s.Greens) == 0 {
		return m, fmt.Errorf("cluster: MultiSizer needs at least one green class")
	}
	if err := tr.Validate(); err != nil {
		return m, err
	}
	single := &Sizer{Base: s.Base, Policy: s.Policy, Decide: alloc.AdoptNone, MaxServers: s.MaxServers}
	n0, err := single.RightSizeBaselineContext(ctx, tr)
	if err != nil {
		return m, err
	}
	m.BaselineOnly = n0
	cap := s.maxServers(tr)
	// counts is the cluster being sized, baseline first: every green
	// pool abundant until its own search.
	counts := make([]int, 1+len(s.Greens))
	for i := range s.Greens {
		counts[1+i] = cap
	}

	t := s.stage(ctx, tr, 0, counts)
	if counts[0], err = t.search(n0); err != nil {
		return m, err
	}
	for pool := 1; pool < len(counts); pool++ {
		prev := t
		t = s.stage(ctx, tr, pool, counts)
		t.carry(cap, prev, counts[pool-1])
		if counts[pool], err = t.search(cap); err != nil {
			return m, err
		}
	}
	m.NBase = counts[0]
	m.NGreens = counts[1:]
	return m, nil
}

// MultiSavings computes the multi-SKU cluster's carbon saving versus
// the all-baseline cluster.
func MultiSavings(m MultiMix, base SavingsInput, greens []SavingsInput) float64 {
	all := Emissions(m.BaselineOnly, base.Class, base.PerCore)
	mixed := Emissions(m.NBase, base.Class, base.PerCore)
	for i, g := range greens {
		mixed += Emissions(m.NGreens[i], g.Class, g.PerCore)
	}
	if all == 0 {
		return 0
	}
	return 1 - float64(mixed)/float64(all)
}

// TotalGreens sums the green pools.
func (m MultiMix) TotalGreens() int {
	n := 0
	for _, g := range m.NGreens {
		n += g
	}
	return n
}
