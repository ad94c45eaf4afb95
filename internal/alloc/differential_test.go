package alloc

// The differential wall: the columnar engine must be decision-identical
// to the linear-scan oracle. Both tests replay the full 35-trace
// production suite under every policy with PreferNonEmpty on and off —
// once through the single-green Config path sizing uses, and once
// through the multi-pool path with 1, 2 and 3 green pools — and demand
// bit-identical Results, identical per-VM placement sequences, and
// identical pool proofs (PoolProof), which the oracle derives on its
// own by re-running each opening placement with the pool capped. The
// package's TestMain wraps everything in audit.SweepMain, so every
// indexed pick here is additionally cross-checked against the columnar
// scan by the audit layer (alloc/index-divergence) as it happens.

import (
	"context"
	"math"
	"testing"

	"github.com/greensku/gsf/internal/trace"
)

// diffDecider adopts most VMs with a fractional scaling factor, so the
// differential runs exercise both pools and non-integral free-capacity
// values (the case that rules out integer-granular bucketing).
func diffDecider(vm trace.VM) Decision {
	return Decision{
		Adopt: vm.ID%10 < 7,
		Scale: 1 + 0.1*float64(vm.ID%3),
	}
}

// placeRec is one observed placement, captured via testObserve.
type placeRec struct {
	vmID int
	pool int
	srv  int32
}

// observed runs one replay and returns the exact placement sequence it
// made.
func observed(t *testing.T, run func() error) []placeRec {
	t.Helper()
	var seq []placeRec
	testObserve = func(vmID int, pool int, serverID int32) {
		seq = append(seq, placeRec{vmID, pool, serverID})
	}
	defer func() { testObserve = nil }()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return seq
}

// runObserved replays tr through the columnar engine and returns the
// Result plus the placement sequence.
func runObserved(t *testing.T, tr trace.Trace, cfg Config) (Result, []placeRec) {
	t.Helper()
	var res Result
	seq := observed(t, func() (err error) {
		res, err = Simulate(tr, cfg, diffDecider)
		return err
	})
	return res, seq
}

// sameBits reports whether two floats are the same bit pattern — the
// "byte-identical" comparison; NaN equals NaN, and -0 differs from +0.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameClassStats(a, b ClassStats) bool {
	return sameBits(a.CorePacking, b.CorePacking) &&
		sameBits(a.MemPacking, b.MemPacking) &&
		sameBits(a.MaxMemUtil, b.MaxMemUtil) &&
		sameBits(a.CXLServedFrac, b.CXLServedFrac) &&
		sameBits(a.LocalFitsFrac, b.LocalFitsFrac)
}

func sameResult(a, b Result) bool {
	return a.Placed == b.Placed && a.Rejected == b.Rejected &&
		a.DeferrablePlaced == b.DeferrablePlaced &&
		a.DeferrableRejected == b.DeferrableRejected &&
		a.Snapshots == b.Snapshots &&
		sameClassStats(a.Base, b.Base) && sameClassStats(a.Green, b.Green)
}

func sameMulti(a, b MultiResult) bool {
	if a.Placed != b.Placed || a.Rejected != b.Rejected || a.Snapshots != b.Snapshots ||
		!sameClassStats(a.Base, b.Base) || len(a.Green) != len(b.Green) {
		return false
	}
	for i := range a.Green {
		if !sameClassStats(a.Green[i], b.Green[i]) {
			return false
		}
	}
	return true
}

func sameProof(a, b PoolProof) bool {
	if a.HighWater != b.HighWater || len(a.Forced) != len(b.Forced) {
		return false
	}
	for k := range a.Forced {
		if a.Forced[k] != b.Forced[k] {
			return false
		}
	}
	return true
}

// sameProofs reports whether two multi-pool replays proved the same
// facts about every pool.
func sameProofs(a, b MultiResult) bool {
	if !sameProof(a.BaseProof, b.BaseProof) || len(a.GreenProofs) != len(b.GreenProofs) {
		return false
	}
	for i := range a.GreenProofs {
		if !sameProof(a.GreenProofs[i], b.GreenProofs[i]) {
			return false
		}
	}
	return true
}

// sameSeq reports the first placement where two sequences diverge, or
// -1 when they are identical.
func sameSeq(a, b []placeRec) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// diffCase is one cell of the wall: a policy and PreferNonEmpty
// setting under which every production trace is replayed.
type diffCase struct {
	pol    Policy
	prefer bool
}

// diffCases enumerates all 3 policies x PreferNonEmpty on/off.
func diffCases() []diffCase {
	var out []diffCase
	for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
		for _, prefer := range []bool{false, true} {
			out = append(out, diffCase{pol, prefer})
		}
	}
	return out
}

func productionSuite(t *testing.T) []trace.Trace {
	t.Helper()
	traces, err := trace.ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		traces = traces[:4]
	}
	return traces
}

// TestDifferentialIndexedVsScan35Traces proves the Config path — the
// one cluster sizing runs — against the oracle. The cluster is sized so
// every trace produces both placements and rejections.
func TestDifferentialIndexedVsScan35Traces(t *testing.T) {
	traces := productionSuite(t)
	totalPlaced, totalRejected := 0, 0
	var proofs proofTally
	for _, c := range diffCases() {
		cfg := Config{
			Base: baseClass(), NBase: 40,
			Green: greenClass(), NGreen: 40,
			Policy: c.pol, PreferNonEmpty: c.prefer,
		}
		for _, tr := range traces {
			gotRes, gotSeq := runObserved(t, tr, cfg)
			var wantRes Result
			wantSeq := observed(t, func() (err error) {
				wantRes, err = SimulateOracle(context.Background(), tr, cfg, diffDecider)
				return err
			})
			if !sameResult(gotRes, wantRes) {
				t.Errorf("%s (%v, preferNonEmpty=%v): engine Result %+v != oracle %+v",
					tr.Name, c.pol, c.prefer, gotRes, wantRes)
			}
			if !sameProof(gotRes.BaseProof, wantRes.BaseProof) || !sameProof(gotRes.GreenProof, wantRes.GreenProof) {
				t.Errorf("%s (%v, preferNonEmpty=%v): engine proofs %v/%v != oracle %v/%v",
					tr.Name, c.pol, c.prefer, gotRes.BaseProof, gotRes.GreenProof, wantRes.BaseProof, wantRes.GreenProof)
			}
			proofs.count(gotRes.BaseProof, gotRes.GreenProof)
			if i := sameSeq(gotSeq, wantSeq); i >= 0 {
				t.Errorf("%s (%v, preferNonEmpty=%v): placement %d of %d/%d diverges from the oracle",
					tr.Name, c.pol, c.prefer, i, len(gotSeq), len(wantSeq))
			}
			totalPlaced += gotRes.Placed
			totalRejected += gotRes.Rejected
		}
	}
	// The sweep must have exercised both outcomes, or the identity
	// proof is vacuous on one side.
	if totalPlaced == 0 || totalRejected == 0 {
		t.Fatalf("differential sweep is degenerate: %d placed, %d rejected", totalPlaced, totalRejected)
	}
	proofs.check(t)
}

// proofTally counts the Forced entries a sweep compared, so a wall
// whose proofs are all false (or all true) cannot pass vacuously.
type proofTally struct{ forced, unforced int }

func (p *proofTally) count(proofs ...PoolProof) {
	for _, pr := range proofs {
		for _, f := range pr.Forced {
			if f {
				p.forced++
			} else {
				p.unforced++
			}
		}
	}
}

func (p *proofTally) check(t *testing.T) {
	t.Helper()
	if p.forced == 0 || p.unforced == 0 {
		t.Fatalf("proof comparison is degenerate: %d forced, %d unforced openings", p.forced, p.unforced)
	}
}

// multiDiffPools is the green-pool lineup for K = 1, 2, 3: a pool of
// the baseline class among the greens makes pools collide on free
// capacities, and shrinking sizes force fall-through to later pools.
func multiDiffPools(k int) []Pool {
	all := []Pool{{Class: greenClass(), N: 16}, {Class: baseClass(), N: 8}, {Class: greenClass(), N: 8}}
	return all[:k]
}

// multiDiffDirectives is a per-VM directive rotation over three pools:
// forbidden pools, fractional scales, and a scale below 1 (clamped).
var multiDiffDirectives = []MultiDecision{
	{Scales: []float64{1.2, 0, 1}},
	{Scales: []float64{0, 1, 0}},
	{Scales: []float64{1, 1.5, 1.1}},
	{Scales: []float64{0.5, 0, 2}},
	{},
}

func multiDiffDecider(vm trace.VM) MultiDecision {
	return multiDiffDirectives[vm.ID%len(multiDiffDirectives)]
}

// TestDifferentialMultiPool proves the multi-pool path against the
// oracle with 1, 2 and 3 green pools: its per-pool scaled directives,
// forbidden pools and fall-through to later pools go through routing
// the single-green path never takes. Full-node VMs follow the same rule
// as there (first empty baseline server that fits a whole node).
func TestDifferentialMultiPool(t *testing.T) {
	traces := productionSuite(t)
	totalPlaced, totalRejected := 0, 0
	var proofs proofTally
	for k := 1; k <= 3; k++ {
		for _, c := range diffCases() {
			mc := MultiConfig{
				Base:   Pool{Class: baseClass(), N: 30},
				Greens: multiDiffPools(k),
				Policy: c.pol, PreferNonEmpty: c.prefer,
			}
			for _, tr := range traces {
				var got, want MultiResult
				gotSeq := observed(t, func() (err error) {
					got, err = SimulateMulti(tr, mc, multiDiffDecider)
					return err
				})
				wantSeq := observed(t, func() (err error) {
					want, err = simulateOracleMulti(context.Background(), tr, mc, multiDiffDecider)
					return err
				})
				if !sameMulti(got, want) {
					t.Errorf("%s (%d greens, %v, preferNonEmpty=%v): engine %+v != oracle %+v",
						tr.Name, k, c.pol, c.prefer, got, want)
				}
				if !sameProofs(got, want) {
					t.Errorf("%s (%d greens, %v, preferNonEmpty=%v): engine proofs %v/%v != oracle %v/%v",
						tr.Name, k, c.pol, c.prefer, got.BaseProof, got.GreenProofs, want.BaseProof, want.GreenProofs)
				}
				proofs.count(got.BaseProof)
				proofs.count(got.GreenProofs...)
				if i := sameSeq(gotSeq, wantSeq); i >= 0 {
					t.Errorf("%s (%d greens, %v, preferNonEmpty=%v): placement %d of %d/%d diverges from the oracle",
						tr.Name, k, c.pol, c.prefer, i, len(gotSeq), len(wantSeq))
				}
				totalPlaced += got.Placed
				totalRejected += got.Rejected
			}
		}
	}
	if totalPlaced == 0 || totalRejected == 0 {
		t.Fatalf("multi-pool differential is degenerate: %d placed, %d rejected", totalPlaced, totalRejected)
	}
	proofs.check(t)
}
