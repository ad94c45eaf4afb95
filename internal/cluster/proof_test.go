package cluster

import (
	"context"
	"testing"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

// corruptFirst wraps a table's replay so the first replay's proof of
// the searched pool is damaged by corrupt; later replays, including
// the audit's, are honest.
func corruptFirst(p *proofTable, corrupt func(*alloc.PoolProof)) {
	replay := p.replay
	first := true
	p.replay = func(n int) (outcome, error) {
		o, err := replay(n)
		if err == nil && first {
			first = false
			corrupt(&o.proofs[p.pool])
		}
		return o, err
	}
}

// TestProofAuditCatchesCorruptHighWater damages the high-water of the
// first replay to 0, claiming every smaller count fits: the audit must
// replay the probes so answered and report the divergence, and the
// boundary check must reject the result.
func TestProofAuditCatchesCorruptHighWater(t *testing.T) {
	tr := testTrace(t, 5)
	rec := audit.NewRecorder()
	s := &Sizer{Base: baseClass(), Policy: alloc.BestFit, Decide: alloc.AdoptNone, Audit: rec}
	p := s.stage(context.Background(), tr, "canary", 0, func(n int) (int, int) { return n, 0 })
	corruptFirst(p, func(pr *alloc.PoolProof) { pr.HighWater = 0 })
	n, err := p.search(s.maxServers(tr))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("corrupt high-water should have driven the search to 0, got %d", n)
	}
	c := rec.Counts()
	if c["cluster/proof-divergence"] == 0 || c["cluster/search-boundary"] == 0 {
		t.Fatalf("corrupt high-water not caught: %v", c)
	}
}

// TestProofAuditCatchesCorruptForced marks one count the trace fits at
// as forced. The search probes that count, so the audit must report
// the proof's false answer.
func TestProofAuditCatchesCorruptForced(t *testing.T) {
	ctx := context.Background()
	for _, pol := range []alloc.Policy{alloc.BestFit, alloc.FirstFit, alloc.WorstFit} {
		for seed := uint64(1); seed <= 8; seed++ {
			tr := testTrace(t, seed)
			s := &Sizer{Base: baseClass(), Green: greenClass(), Policy: pol, Decide: scaledAdopter}
			m, err := s.MixedSize(tr)
			if err != nil {
				t.Fatal(err)
			}
			// The GreenSKU search's first probe replays at the cap; the
			// canary needs the searched count below its high-water, or
			// no Forced entry covers it.
			greenCap := s.maxServers(tr)
			res, err := s.simulate(ctx, tr, m.NBase, greenCap, s.Decide)
			if err != nil {
				t.Fatal(err)
			}
			if m.NGreen >= res.GreenProof.HighWater || res.GreenProof.Forced[m.NGreen] {
				continue
			}
			rec := audit.NewRecorder()
			s.Audit = rec
			p := s.stage(ctx, tr, "canary", 1, func(n int) (int, int) { return m.NBase, n })
			corruptFirst(p, func(pr *alloc.PoolProof) { pr.Forced[m.NGreen] = true })
			if _, err := p.search(greenCap); err != nil {
				t.Fatal(err)
			}
			if rec.Counts()["cluster/proof-divergence"] == 0 {
				t.Fatalf("%s %v: corrupt Forced[%d] not caught: %v", tr.Name, pol, m.NGreen, rec.Counts())
			}
			return
		}
	}
	t.Fatal("no test trace sizes its GreenSKUs below the first replay's high-water; the canary has nothing to corrupt")
}

// scaledAdopter adopts seven VMs in ten onto GreenSKUs, inflated by up
// to 20%: enough fallback to the baseline that the GreenSKU count is
// not simply the high-water of one replay.
func scaledAdopter(vm trace.VM) alloc.Decision {
	return alloc.Decision{Adopt: vm.ID%10 < 7, Scale: 1 + 0.1*float64(vm.ID%3)}
}
