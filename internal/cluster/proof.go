package cluster

// The proof table: how sizing answers most bisection probes without a
// replay. A sizing stage searches one pool's server count with every
// other pool fixed, and each replay it runs proves facts about other
// counts of that pool (alloc.PoolProof): a replay at count P with
// high-water H has the same outcome at every count in [H, P], and each
// Forced[k] proves the trace does not fit at count k. searchMin's
// bisection is unchanged — the same probes in the same order — but a
// probe a recorded fact covers is answered from it, and only the rest
// are replayed. The answers are the ones the replays would give, so
// the sizes are byte-identical to bisecting with every probe replayed.

import (
	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
)

// outcome is what one replay of a sizing stage observed: whether the
// cluster hosted the trace, and each pool's proof ([0] the baseline,
// then the green pools in try order).
type outcome struct {
	fits   bool
	proofs []alloc.PoolProof
}

// fact is an outcome together with the searched pool's count it was
// replayed at.
type fact struct {
	n int
	outcome
}

// proofTable answers the probes of one sizing stage.
type proofTable struct {
	pool   int // the searched pool: 0 the baseline, then the green pools
	replay func(n int) (outcome, error)
	facts  []fact

	// With a checker, every probe a fact answers is replayed as well
	// and disagreements are reported (cluster/proof-divergence); truth
	// keeps each probed count's replayed answer for the search's
	// boundary check.
	chk   audit.Checker
	what  string // names the stage in audit messages
	truth map[int]bool
}

func newProofTable(chk audit.Checker, what string, pool int, replay func(n int) (outcome, error)) *proofTable {
	p := &proofTable{pool: pool, replay: replay, chk: chk, what: what}
	if chk != nil {
		p.truth = map[int]bool{}
	}
	return p
}

// same reports whether f's replay proves the replay at count n makes
// the same decisions: n lies between its high-water and its count.
func (p *proofTable) same(f fact, n int) bool {
	return n >= f.proofs[p.pool].HighWater && n <= f.n
}

// lookup answers fits(n) from the recorded facts, if one covers n.
func (p *proofTable) lookup(n int) (fits, proven bool) {
	for _, f := range p.facts {
		if p.same(f, n) {
			return f.fits, true
		}
		if forced := f.proofs[p.pool].Forced; n < len(forced) && forced[n] {
			return false, true
		}
	}
	return false, false
}

// ok is searchMin's probe: fits(n) from a fact when one covers n, else
// from a replay, whose facts are recorded for later probes.
func (p *proofTable) ok(n int) (bool, error) {
	if fits, proven := p.lookup(n); proven {
		if p.chk != nil {
			want, err := p.replayed(n)
			if err != nil {
				return false, err
			}
			if want != fits {
				audit.Failf(p.chk, "cluster", "proof-divergence",
					"%s: the proof table answers fits(%d) = %v, a replay says %v", p.what, n, fits, want)
			}
		}
		return fits, nil
	}
	o, err := p.replay(n)
	if err != nil {
		return false, err
	}
	p.facts = append(p.facts, fact{n, o})
	if p.chk != nil {
		p.truth[n] = o.fits
	}
	return o.fits, nil
}

// replayed is fits(n) from a replay, never from a fact; audited runs
// only.
func (p *proofTable) replayed(n int) (bool, error) {
	if fits, ok := p.truth[n]; ok {
		return fits, nil
	}
	o, err := p.replay(n)
	if err != nil {
		return false, err
	}
	p.truth[n] = o.fits
	return o.fits, nil
}

// search runs searchMin over [0, hi] through the table. Audited runs
// then check the result against replays: the trace fits at the
// returned count and not at one fewer.
func (p *proofTable) search(hi int) (int, error) {
	n, err := searchMin(hi, p.ok)
	if err != nil || p.chk == nil {
		return n, err
	}
	if fits, err := p.replayed(n); err != nil {
		return n, err
	} else if !fits {
		audit.Failf(p.chk, "cluster", "search-boundary", "%s: the trace does not fit at the returned count %d", p.what, n)
	}
	if n > 0 {
		if fits, err := p.replayed(n - 1); err != nil {
			return n, err
		} else if fits {
			audit.Failf(p.chk, "cluster", "search-boundary", "%s: the trace already fits at %d, below the returned count %d", p.what, n-1, n)
		}
	}
	return n, nil
}

// carry seeds p with what prev proves about its cluster at count
// prevN, which is p's cluster at count n: a replay at prev's count P
// with high-water H <= prevN <= P made the same decisions, so every
// pool's proof carries over. Each search's first probe is the cluster
// the previous search ended on, so it needs no replay.
func (p *proofTable) carry(n int, prev *proofTable, prevN int) {
	for _, f := range prev.facts {
		if prev.same(f, prevN) {
			p.facts = append(p.facts, fact{n, f.outcome})
			return
		}
	}
}
