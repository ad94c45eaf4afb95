package experiments

// Performance benchmarks with a machine-readable trajectory: the
// ROADMAP's north star wants the hot paths to run as fast as the
// hardware allows, which needs a recorded baseline to regress against.
// AllocSweepBench times the 35-trace allocation sweep through the
// columnar engine and through the linear-scan oracle — verifying
// bit-identical Results while it is at it — and QueueBench times the
// queueing saturation curve behind Figs. 7–8. cmd/gsfbench packages
// both into BENCH_alloc.json so CI can archive the numbers and gate on
// the index actually being faster.

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"time"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/queueing"
	"github.com/greensku/gsf/internal/stats"
	"github.com/greensku/gsf/internal/trace"
)

// AllocBenchOptions sizes the allocation sweep benchmark.
type AllocBenchOptions struct {
	// Traces caps how many of the 35 production-suite traces to
	// replay; 0 or anything >= 35 runs the full suite.
	Traces int
	// ServersPerClass is the pool size for both the baseline and the
	// GreenSKU class; 0 defaults to 10000, the scale the acceptance
	// target is defined at.
	ServersPerClass int
	Policy          alloc.Policy
}

// AllocBenchResult is the allocation sweep's measurement.
type AllocBenchResult struct {
	Traces            int     `json:"traces"`
	VMs               int     `json:"vms"`
	ServersPerClass   int     `json:"servers_per_class"`
	Policy            string  `json:"policy"`
	IndexedSeconds    float64 `json:"indexed_seconds"`
	ReferenceSeconds  float64 `json:"reference_seconds"`
	Speedup           float64 `json:"speedup"`
	DecisionIdentical bool    `json:"decision_identical"`
	Placed            int     `json:"placed"`
	Rejected          int     `json:"rejected"`
}

// benchDecider adopts most VMs with fractional scaling factors so the
// sweep exercises both pools and non-integral free capacities — the
// same shape the differential suite uses.
func benchDecider(vm trace.VM) alloc.Decision {
	return alloc.Decision{Adopt: vm.ID%10 < 7, Scale: 1 + 0.1*float64(vm.ID%3)}
}

// AllocSweepBench replays the production trace suite through the
// columnar engine (IndexedSeconds) and the linear-scan oracle
// (ReferenceSeconds), times both serially, and checks the two produce
// bit-identical Results trace by trace.
func AllocSweepBench(ctx context.Context, opt AllocBenchOptions) (AllocBenchResult, error) {
	traces, err := trace.ProductionSuite()
	if err != nil {
		return AllocBenchResult{}, err
	}
	if opt.Traces > 0 && opt.Traces < len(traces) {
		traces = traces[:opt.Traces]
	}
	n := opt.ServersPerClass
	if n <= 0 {
		n = 10000
	}
	base := hw.BaselineGen3()
	green := hw.GreenSKUFull()
	cfg := alloc.Config{
		Base:   alloc.ServerClass{Name: base.Name, Cores: base.Cores(), Memory: base.TotalDRAMGB(), LocalMemory: base.LocalDRAMGB()},
		NBase:  n,
		Green:  alloc.ServerClass{Name: green.Name, Cores: green.Cores(), Memory: green.TotalDRAMGB(), LocalMemory: green.LocalDRAMGB(), Green: true},
		NGreen: n,
		Policy: opt.Policy, PreferNonEmpty: true,
	}
	run := func(simulate func(context.Context, trace.Trace, alloc.Config, alloc.Decider) (alloc.Result, error)) ([]alloc.Result, float64, error) {
		out := make([]alloc.Result, 0, len(traces))
		start := time.Now()
		for _, tr := range traces {
			res, err := simulate(ctx, tr, cfg, benchDecider)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, res)
		}
		return out, time.Since(start).Seconds(), nil
	}

	indexed, indexedSec, err := run(alloc.SimulateContext)
	if err != nil {
		return AllocBenchResult{}, err
	}
	reference, referenceSec, err := run(alloc.SimulateOracle)
	if err != nil {
		return AllocBenchResult{}, err
	}

	res := AllocBenchResult{
		Traces:            len(traces),
		ServersPerClass:   n,
		Policy:            cfg.Policy.String(),
		IndexedSeconds:    indexedSec,
		ReferenceSeconds:  referenceSec,
		DecisionIdentical: true,
	}
	if indexedSec > 0 {
		res.Speedup = referenceSec / indexedSec
	}
	for i := range traces {
		res.VMs += len(traces[i].VMs)
		res.Placed += indexed[i].Placed
		res.Rejected += indexed[i].Rejected
		if !allocResultsIdentical(indexed[i], reference[i]) {
			res.DecisionIdentical = false
		}
	}
	return res, nil
}

// allocResultsIdentical compares two Results bit-for-bit (NaN equals
// NaN; -0 differs from +0).
func allocResultsIdentical(a, b alloc.Result) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	stats := func(x, y alloc.ClassStats) bool {
		return same(x.CorePacking, y.CorePacking) && same(x.MemPacking, y.MemPacking) &&
			same(x.MaxMemUtil, y.MaxMemUtil) && same(x.CXLServedFrac, y.CXLServedFrac) &&
			same(x.LocalFitsFrac, y.LocalFitsFrac)
	}
	return a.Placed == b.Placed && a.Rejected == b.Rejected && a.Snapshots == b.Snapshots &&
		stats(a.Base, b.Base) && stats(a.Green, b.Green)
}

// QueueBenchOptions sizes the queueing saturation-curve benchmark.
type QueueBenchOptions struct {
	Servers int // queue parallelism; 0 defaults to 64
	Steps   int // load points; 0 defaults to 8
	Seed    uint64
}

// QueuePoint is one measured point of the saturation curve.
type QueuePoint struct {
	QPS       float64 `json:"qps"`
	P95       float64 `json:"p95_seconds"`
	Saturated bool    `json:"saturated"`
}

// QueueBenchResult is the queueing benchmark's measurement.
type QueueBenchResult struct {
	Servers int          `json:"servers"`
	Steps   int          `json:"steps"`
	Seconds float64      `json:"seconds"`
	Points  []QueuePoint `json:"points"`
}

// QueueBench sweeps offered load from half to past the queue's
// theoretical capacity (the Fig. 7–8 protocol) and times the sweep.
func QueueBench(opt QueueBenchOptions) (QueueBenchResult, error) {
	servers := opt.Servers
	if servers <= 0 {
		servers = 64
	}
	steps := opt.Steps
	if steps <= 0 {
		steps = 8
	}
	dist := queueing.LogNormal{MeanSeconds: 0.005, CV: 1.5}
	start := time.Now()
	pts, err := queueing.Curve(servers, dist, 0.5, 1.1, steps, opt.Seed)
	if err != nil {
		return QueueBenchResult{}, err
	}
	res := QueueBenchResult{Servers: servers, Steps: steps, Seconds: time.Since(start).Seconds()}
	for _, p := range pts {
		res.Points = append(res.Points, QueuePoint{QPS: p.QPS, P95: p.P95, Saturated: p.Saturated})
	}
	return res, nil
}

// QueueKernelBenchOptions sizes the queueing-kernel benchmark.
type QueueKernelBenchOptions struct {
	// Requests per simulation; 0 uses the paper protocol's default.
	Requests int
	Seed     uint64
}

// KneeBenchResult measures the adaptive knee search against the
// fixed-step sweep it replaces.
type KneeBenchResult struct {
	Servers        int     `json:"servers"`
	KneeFrac       float64 `json:"knee_frac"`
	Evals          int     `json:"evals"`
	FixedStepEvals int     `json:"fixed_step_evals"`
	Seconds        float64 `json:"seconds"`
}

// ArmTiming summarises one benchmark arm's repeated wall-clock times.
type ArmTiming struct {
	Runs    int       `json:"runs"`
	Median  float64   `json:"median_s"`
	Min     float64   `json:"min_s"`
	IQR     float64   `json:"iqr_s"`
	Seconds []float64 `json:"seconds"`
}

func armTiming(secs []float64) ArmTiming {
	q := func(p float64) float64 { return stats.Percentile(secs, p) }
	return ArmTiming{Runs: len(secs), Median: q(50), Min: q(0), IQR: q(75) - q(25), Seconds: secs}
}

// QueueKernelBenchResult is the queueing-kernel benchmark's
// measurement: the TableIII profiling sweep over the green-SKU catalog
// through three kernels. The batch arm is the production kernel
// (batched SoA event loop, process-wide SLO memo, cold at the start of
// every run); the fast arm is the scalar loop it replaced
// (queueing.RunOracle with ziggurat sampling, via perf.TableIIIOracle
// with its call-local SLO memo); the reference arm is a
// reference-shaped run (scalar loop, bit-exact samplers, no memo,
// serial) approximating the pre-optimization kernel.
type QueueKernelBenchResult struct {
	SKUs      []string  `json:"skus"`
	Cells     int       `json:"cells"`
	Requests  int       `json:"requests"`
	Batch     ArmTiming `json:"batch"`
	Fast      ArmTiming `json:"fast"`
	Reference ArmTiming `json:"reference"`
	// BatchSpeedup is fast/batch: what the batched event loop buys
	// over the prior fast kernel. Speedup is reference/fast, the PR 5
	// gate, and CumulativeSpeedup is reference/batch. All three are
	// ratios of the arms' median times.
	BatchSpeedup      float64 `json:"batch_speedup"`
	Speedup           float64 `json:"speedup"`
	CumulativeSpeedup float64 `json:"cumulative_speedup"`
	FactorsIdentical  bool    `json:"factors_identical"`
	// SLOCacheHits/Misses count one batch run's process-wide SLO memo
	// lookups; FastSLOCacheHits/Misses one fast run's call-local memo.
	SLOCacheHits       int64           `json:"slo_cache_hits"`
	SLOCacheMisses     int64           `json:"slo_cache_misses"`
	FastSLOCacheHits   int64           `json:"fast_slo_cache_hits"`
	FastSLOCacheMisses int64           `json:"fast_slo_cache_misses"`
	Knee               KneeBenchResult `json:"knee"`
}

// QueueKernelBench profiles every green SKU in the catalog against all
// three baseline generations (the Table III protocol), repeatedly
// through each kernel arm (batched, fast-scalar, reference-shaped), and
// verifies every run produces the same factor matrices — the fast paths
// may change latencies in distribution, but they must never flip a
// factor bin. (Batched versus the scalar loop is in fact bit-identical;
// the queueing differential wall proves that stronger property.)
func QueueKernelBench(ctx context.Context, opt QueueKernelBenchOptions) (QueueKernelBenchResult, error) {
	greens := []hw.SKU{hw.GreenSKUEfficient(), hw.GreenSKUCXL(), hw.GreenSKUFull()}

	popt := perf.DefaultOptions()
	if opt.Requests > 0 {
		popt.Requests = opt.Requests
	}
	if opt.Seed != 0 {
		popt.Seed = opt.Seed
	}

	res := QueueKernelBenchResult{Requests: popt.Requests, FactorsIdentical: true}

	type tables = []map[string]map[int]perf.Factor
	ref := popt
	ref.Workers, ref.DisableSLOMemo = 1, true
	arms := [...]func() (tables, error){
		func() (tables, error) { // batch: the production kernel from a cold process-wide memo
			perf.ResetSLOCache()
			out := make(tables, len(greens))
			for i, g := range greens {
				var err error
				if out[i], err = perf.TableIIIContext(ctx, g, popt); err != nil {
					return nil, err
				}
			}
			res.SLOCacheHits, res.SLOCacheMisses = perf.SLOCacheStats()
			return out, nil
		},
		func() (tables, error) { // fast: the scalar loop with ziggurat sampling, everything else equal
			out, hits, misses, err := perf.TableIIIOracle(ctx, greens, popt, false)
			res.FastSLOCacheHits, res.FastSLOCacheMisses = hits, misses
			return out, err
		},
		func() (tables, error) { // reference: bit-exact samplers, serial, unmemoized
			out, _, _, err := perf.TableIIIOracle(ctx, greens, ref, true)
			return out, err
		},
	}
	// After one untimed warm-up round, each round runs the batch arm
	// then the fast arm, so drift on a shared machine hits both alike;
	// the first refRounds rounds also time the much slower reference
	// arm. Every run must reproduce the first run's factors.
	const rounds, refRounds = 5, 3
	var secs [len(arms)][]float64
	var want tables
	for round := 0; round <= rounds; round++ {
		for arm, run := range arms {
			if arm == len(arms)-1 && (round == 0 || round > refRounds) {
				continue
			}
			start := time.Now()
			got, err := run()
			if err != nil {
				return QueueKernelBenchResult{}, err
			}
			if round > 0 {
				secs[arm] = append(secs[arm], time.Since(start).Seconds())
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				res.FactorsIdentical = false
			}
		}
	}

	res.Batch, res.Fast, res.Reference = armTiming(secs[0]), armTiming(secs[1]), armTiming(secs[2])
	if b := res.Batch.Median; b > 0 {
		res.BatchSpeedup = res.Fast.Median / b
		res.CumulativeSpeedup = res.Reference.Median / b
	}
	if f := res.Fast.Median; f > 0 {
		res.Speedup = res.Reference.Median / f
	}
	for i, g := range greens {
		res.SKUs = append(res.SKUs, g.Name)
		for _, gens := range want[i] {
			res.Cells += len(gens)
		}
	}

	// Knee search versus the fixed-step sweep at the same resolution.
	const loFrac, hiFrac, tolFrac = 0.5, 1.2, 0.01
	kcfg := queueing.Config{
		Servers:  64,
		Service:  queueing.LogNormal{MeanSeconds: 0.005, CV: 1.5},
		Requests: popt.Requests,
		Seed:     popt.Seed,
	}
	start := time.Now()
	knee, err := queueing.KneeSearch(ctx, kcfg, loFrac, hiFrac, tolFrac)
	if err != nil {
		return QueueKernelBenchResult{}, err
	}
	res.Knee = KneeBenchResult{
		Servers:        kcfg.Servers,
		KneeFrac:       knee.KneeFrac,
		Evals:          knee.Evals,
		FixedStepEvals: int((hiFrac - loFrac) / tolFrac),
		Seconds:        time.Since(start).Seconds(),
	}
	return res, nil
}

// QueueArtifact is the BENCH_queue.json schema: the queueing-kernel
// sweep measurement, versioned like BenchArtifact.
type QueueArtifact struct {
	Schema string                 `json:"schema"`
	Kernel QueueKernelBenchResult `json:"kernel"`
}

// WriteQueueArtifact encodes the artifact as indented JSON.
func WriteQueueArtifact(w io.Writer, a QueueArtifact) error {
	a.Schema = cmp.Or(a.Schema, BenchSchema)
	return writeArtifact(w, "queue", a)
}

// BenchArtifact is the BENCH_alloc.json schema: one allocation sweep
// measurement plus one queueing curve, versioned so future PRs can
// extend it without breaking readers. Scale is the additive
// large-fleet table (AllocScaleBench rows, e.g. the million-server
// row); absent when the suite ran without a scale size.
type BenchArtifact struct {
	Schema   string             `json:"schema"`
	Alloc    AllocBenchResult   `json:"alloc"`
	Queueing QueueBenchResult   `json:"queueing"`
	Scale    []AllocScaleResult `json:"scale,omitempty"`
}

// BenchSchema is the current artifact schema identifier.
const BenchSchema = "gsf-bench/v1"

// WriteBenchArtifact encodes the artifact as indented JSON.
func WriteBenchArtifact(w io.Writer, a BenchArtifact) error {
	a.Schema = cmp.Or(a.Schema, BenchSchema)
	return writeArtifact(w, "bench", a)
}

// writeArtifact encodes a BENCH artifact as indented JSON.
func writeArtifact(w io.Writer, kind string, a any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("experiments: encoding %s artifact: %w", kind, err)
	}
	return nil
}
