package cluster

// The sizing oracle: the same bisection the sizers run, with every
// probe answered by a replay and no proof table. The differential walls
// (wall_test.go) demand byte-identical sizes from it.

import (
	"context"
	"fmt"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/trace"
)

// hosts reports, by replay, whether nBase baseline servers and nGreen
// GreenSKUs host the trace without a rejection.
func (s *Sizer) hosts(ctx context.Context, tr trace.Trace, nBase, nGreen int) (bool, error) {
	if nBase+nGreen == 0 {
		return len(tr.VMs) == 0, nil
	}
	res, err := s.simulate(ctx, tr, nBase, nGreen, s.Decide)
	if err != nil {
		return false, err
	}
	return res.Rejected == 0, nil
}

// hosts is Sizer.hosts for a multi-pool cluster.
func (s *MultiSizer) hosts(ctx context.Context, tr trace.Trace, nBase int, nGreens []int) (bool, error) {
	total := nBase
	for _, n := range nGreens {
		total += n
	}
	if total == 0 {
		return len(tr.VMs) == 0, nil
	}
	res, err := s.simulate(ctx, tr, nBase, nGreens)
	if err != nil {
		return false, err
	}
	return res.Rejected == 0, nil
}

// bisect is the bisection searchMin runs, kept apart from it so the
// oracle does not share its code.
func bisect(hi int, ok func(int) (bool, error)) (int, error) {
	if fits, err := ok(hi); err != nil {
		return 0, err
	} else if !fits {
		return 0, fmt.Errorf("oracle: workload does not fit within %d servers", hi)
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

// memo replays each distinct cluster once: a search's first probe is
// often the cluster the previous search ended on.
type memo map[string]bool

func (m memo) fits(counts []int, replay func() (bool, error)) (bool, error) {
	key := fmt.Sprint(counts)
	if fits, ok := m[key]; ok {
		return fits, nil
	}
	fits, err := replay()
	if err == nil {
		m[key] = fits
	}
	return fits, err
}

// OracleBaselineOnly is the baseline-only right-sizing with every probe
// replayed. MixedSizeContext and MultiSizer.SizeContext share it: with
// no GreenSKUs, every VM lands on the baseline whatever its directive.
func OracleBaselineOnly(ctx context.Context, base alloc.ServerClass, pol alloc.Policy, tr trace.Trace) (int, error) {
	s := &Sizer{Base: base, Policy: pol, Decide: alloc.AdoptNone}
	return bisect(s.maxServers(tr), func(n int) (bool, error) { return s.hosts(ctx, tr, n, 0) })
}

// OracleMixedSize is MixedSizeContext with every probe replayed, given
// the baseline-only size.
func OracleMixedSize(ctx context.Context, s *Sizer, tr trace.Trace, baselineOnly int) (Mix, error) {
	m := Mix{BaselineOnly: baselineOnly}
	if s.Green.Cores == 0 {
		m.NBase = m.BaselineOnly
		return m, nil
	}
	var err error
	hi := s.maxServers(tr)
	seen := memo{}
	ok := func(nBase, nGreen int) (bool, error) {
		return seen.fits([]int{nBase, nGreen}, func() (bool, error) { return s.hosts(ctx, tr, nBase, nGreen) })
	}
	if m.NBase, err = bisect(m.BaselineOnly, func(n int) (bool, error) { return ok(n, hi) }); err != nil {
		return m, err
	}
	m.NGreen, err = bisect(hi, func(n int) (bool, error) { return ok(m.NBase, n) })
	return m, err
}

// OracleMultiSize is MultiSizer.SizeContext with every probe replayed,
// given the baseline-only size.
func OracleMultiSize(ctx context.Context, s *MultiSizer, tr trace.Trace, baselineOnly int) (MultiMix, error) {
	m := MultiMix{BaselineOnly: baselineOnly, NGreens: make([]int, len(s.Greens))}
	var err error
	hi := s.maxServers(tr)
	for i := range m.NGreens {
		m.NGreens[i] = hi
	}
	seen := memo{}
	ok := func(nBase int, nGreens []int) (bool, error) {
		return seen.fits(append([]int{nBase}, nGreens...), func() (bool, error) { return s.hosts(ctx, tr, nBase, nGreens) })
	}
	if m.NBase, err = bisect(m.BaselineOnly, func(n int) (bool, error) { return ok(n, m.NGreens) }); err != nil {
		return m, err
	}
	for i := range m.NGreens {
		m.NGreens[i], err = bisect(hi, func(n int) (bool, error) {
			trial := append([]int(nil), m.NGreens...)
			trial[i] = n
			return ok(m.NBase, trial)
		})
		if err != nil {
			return m, err
		}
	}
	return m, nil
}
