package cluster_test

// The sizing differential walls: Sizer and MultiSizer, whose probes go
// through proof tables, must return byte-identical sizes to the oracle
// bisection that replays every probe (oracle_test.go). The inputs are
// the paper's: GreenSKUs against the Gen3 baseline under the open
// dataset's adoption tables, over the 35-trace production suite and all
// three placement policies. Descending from a replay's high-water mark
// is not exact on this grid (worst-fit prod-12, prod-16 and prod-25
// need fewer GreenSKUs than the high-water), so those traces are in
// the -short subset too. The oracle runs unaudited for speed; each
// Sizer runs audited, so every probe a proof answers is also replayed
// and cross-checked as it happens.

import (
	"context"
	"sync"
	"testing"

	"github.com/greensku/gsf/internal/adoption"
	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/cluster"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/trace"
)

// wallInputs are the classes and adoption tables the walls size with:
// the Gen3 baseline and up to three GreenSKUs, greenest first.
type wallInputs struct {
	base   alloc.ServerClass
	greens []alloc.ServerClass
	tables []adoption.Table
}

var (
	wallOnce sync.Once
	wall     wallInputs
	wallErr  error
)

func classOf(sku hw.SKU, green bool) alloc.ServerClass {
	return alloc.ClassOf(sku.Name, sku.Cores(), sku.TotalDRAMGB(), sku.LocalDRAMGB(), green)
}

func loadWall(t *testing.T) wallInputs {
	t.Helper()
	wallOnce.Do(func() {
		d := carbondata.OpenSource()
		m, err := carbon.New(d)
		if err != nil {
			wallErr = err
			return
		}
		basePC := map[int]carbon.PerCore{}
		for gen := 1; gen <= 3; gen++ {
			if basePC[gen], err = m.PerCore(hw.BaselineForGeneration(gen), d.DefaultCI); err != nil {
				wallErr = err
				return
			}
		}
		wall.base = classOf(hw.BaselineGen3(), false)
		for _, sku := range []hw.SKU{hw.GreenSKUFull(), hw.GreenSKUEfficient(), hw.GreenSKUCXL()} {
			factors, err := perf.TableIIIContext(context.Background(), sku, perf.DefaultOptions())
			if err != nil {
				wallErr = err
				return
			}
			pc, err := m.PerCore(sku, d.DefaultCI)
			if err != nil {
				wallErr = err
				return
			}
			table, err := adoption.Build(factors, pc, basePC)
			if err != nil {
				wallErr = err
				return
			}
			wall.greens = append(wall.greens, classOf(sku, true))
			wall.tables = append(wall.tables, table)
		}
	})
	if wallErr != nil {
		t.Fatal(wallErr)
	}
	return wall
}

// wallTraces is the production suite, or under -short (and under the
// race detector, whose instrumentation makes the full grid outlast the
// test timeout) its first trace plus the three on which a high-water
// descent goes wrong.
func wallTraces(t *testing.T) []trace.Trace {
	t.Helper()
	suite, err := trace.ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() || raceEnabled {
		return []trace.Trace{suite[0], suite[12], suite[16], suite[25]}
	}
	return suite
}

var (
	baselineMu sync.Mutex
	baselines  = map[string]int{}
)

// oracleBaselineOnly is cluster.OracleBaselineOnly, computed once per
// trace and policy for both walls.
func oracleBaselineOnly(t *testing.T, base alloc.ServerClass, pol alloc.Policy, tr trace.Trace) int {
	t.Helper()
	key := tr.Name + "/" + pol.String()
	baselineMu.Lock()
	n, ok := baselines[key]
	baselineMu.Unlock()
	if ok {
		return n
	}
	n, err := cluster.OracleBaselineOnly(context.Background(), base, pol, tr)
	if err != nil {
		t.Fatalf("%s %v oracle: %v", tr.Name, pol, err)
	}
	baselineMu.Lock()
	baselines[key] = n
	baselineMu.Unlock()
	return n
}

// eachPolicy runs body once per placement policy, in parallel, with
// the process-default checker off: the oracle's replays run unaudited,
// and a sizer that audits carries its own Recorder.
func eachPolicy(t *testing.T, body func(t *testing.T, pol alloc.Policy)) {
	prev := audit.Default()
	audit.SetDefault(nil)
	defer audit.SetDefault(prev)
	t.Run("policies", func(t *testing.T) {
		for _, pol := range []alloc.Policy{alloc.BestFit, alloc.FirstFit, alloc.WorstFit} {
			t.Run(pol.String(), func(t *testing.T) {
				t.Parallel()
				body(t, pol)
			})
		}
	})
}

// TestSizerMatchesReplayEveryProbe is the Sizer wall. Each sizing runs
// audited, so every probe a proof answers is also replayed and any
// disagreement recorded (cluster/proof-divergence), on top of the
// comparison with the oracle.
func TestSizerMatchesReplayEveryProbe(t *testing.T) {
	in := loadWall(t)
	ctx := context.Background()
	eachPolicy(t, func(t *testing.T, pol alloc.Policy) {
		for _, tr := range wallTraces(t) {
			rec := audit.NewRecorder()
			s := &cluster.Sizer{Base: in.base, Green: in.greens[0], Policy: pol, Decide: in.tables[0].Decider(), Audit: rec}
			got, err := s.MixedSizeContext(ctx, tr)
			if err != nil {
				t.Fatalf("%s: %v", tr.Name, err)
			}
			if err := rec.Err(); err != nil {
				t.Errorf("%s: %v\n%v", tr.Name, err, rec.Violations())
			}
			s.Audit = nil
			want, err := cluster.OracleMixedSize(ctx, s, tr, oracleBaselineOnly(t, in.base, pol, tr))
			if err != nil {
				t.Fatalf("%s oracle: %v", tr.Name, err)
			}
			if got != want {
				t.Errorf("%s: Sizer %+v, replaying every probe %+v", tr.Name, got, want)
			}
		}
	})
}

// multiDecider routes each VM to the first of the k greenest pools
// whose adoption table accepts it, as the diversity study does. The
// directive depends only on the VM's application and generation, so
// each is built once.
func multiDecider(tables []adoption.Table) alloc.MultiDecider {
	type key struct {
		app string
		gen int
	}
	deciders := make([]alloc.Decider, len(tables))
	for i, t := range tables {
		deciders[i] = t.Decider()
	}
	cache := map[key]alloc.MultiDecision{}
	return func(vm trace.VM) alloc.MultiDecision {
		k := key{vm.App, vm.Gen}
		md, ok := cache[k]
		if !ok {
			md.Scales = make([]float64, len(deciders))
			for i, decide := range deciders {
				if d := decide(vm); d.Adopt {
					md.Scales[i] = d.Scale
				}
			}
			cache[k] = md
		}
		return md
	}
}

// TestMultiSizerMatchesReplayEveryProbe is the MultiSizer wall, with
// one, two and three green pools. MultiSizer audits through the
// process default, which this wall turns off for speed; the package's
// other MultiSizer tests run audited under audit.SweepMain.
func TestMultiSizerMatchesReplayEveryProbe(t *testing.T) {
	in := loadWall(t)
	ctx := context.Background()
	eachPolicy(t, func(t *testing.T, pol alloc.Policy) {
		for _, tr := range wallTraces(t) {
			for k := 1; k <= len(in.greens); k++ {
				s := &cluster.MultiSizer{Base: in.base, Greens: in.greens[:k], Policy: pol, Decide: multiDecider(in.tables[:k])}
				got, err := s.SizeContext(ctx, tr)
				if err != nil {
					t.Fatalf("%s, %d greens: %v", tr.Name, k, err)
				}
				want, err := cluster.OracleMultiSize(ctx, s, tr, oracleBaselineOnly(t, in.base, pol, tr))
				if err != nil {
					t.Fatalf("%s, %d greens oracle: %v", tr.Name, k, err)
				}
				if !sameMultiMix(got, want) {
					t.Errorf("%s, %d greens: MultiSizer %+v, replaying every probe %+v", tr.Name, k, got, want)
				}
			}
		}
	})
}

func sameMultiMix(a, b cluster.MultiMix) bool {
	if a.BaselineOnly != b.BaselineOnly || a.NBase != b.NBase || len(a.NGreens) != len(b.NGreens) {
		return false
	}
	for i := range a.NGreens {
		if a.NGreens[i] != b.NGreens[i] {
			return false
		}
	}
	return true
}
