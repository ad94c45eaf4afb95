package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/core"
	"github.com/greensku/gsf/internal/design"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/trace"
)

// Pinned oracles: digests of every Mix, ClusterSavings, DCSavings and
// factor matrix the full-size batch workloads must reproduce, in
// canonical input order. The inputs do not depend on the seed, which
// only reorders design-screen's submissions, so one digest covers
// every run.
const (
	pinnedSizing35 = "5ef2f68a1d693ec29c12003f1464f068810195df2acf0091edcdb101fae6b4ac"
	pinnedScreen   = "bc0137c88cf66eebc8ed339e465754539bd610940a010dd92fbba536ed71f860"
)

// screenTraceSeed seeds design-screen's trace. It is fixed so the
// pinned digest covers every run.
const screenTraceSeed = 1

// batchParams sizes a batch workload; the zero value of a field means
// the full benchmark size.
type batchParams struct {
	traces     int           // sizing35: leading ProductionSuite traces kept
	every      int           // design-screen: keep every n-th candidate
	candidates int           // design-screen: cap on candidates kept
	horizonH   float64       // design-screen: trace horizon
	arrivalsPH float64       // design-screen: trace arrival rate
	setups     int           // set-ups timed for setup_s
	passLimit  time.Duration // slo_attainment limit on a pass: 1.5x its time on a 2-vCPU Xeon
	pinned     string        // digest every pass must reproduce; "" at test sizes
}

func sizingParams() batchParams {
	return batchParams{traces: 35, setups: 9, passLimit: 11 * time.Second, pinned: pinnedSizing35}
}

func screenParams() batchParams {
	return batchParams{every: 20, horizonH: 48, arrivalsPH: 3, setups: 9, passLimit: 5 * time.Second, pinned: pinnedScreen}
}

// batchWorkload is an EvaluateAll workload: one pass evaluates inputs
// in submission order.
type batchWorkload struct {
	name   string
	model  *carbon.Model
	inputs []core.Input // canonical order; digests follow it
	order  []int        // submission order: order[j] is the canonical index of job j
	vms    int          // VMs across one pass's inputs
	// freshPerPass builds a new framework for every pass, so its
	// profile cache starts cold.
	freshPerPass bool
	workers      int
	params       batchParams
}

// newFramework returns the framework a pass evaluates on: nproc engine
// workers across evaluations and a serial profile inside each, so the
// run never has more than nproc engine workers busy.
func (w *batchWorkload) newFramework() *core.Framework {
	f := core.New(w.model)
	f.Workers = w.workers
	f.Perf.Workers = 1
	return f
}

// submission returns the inputs in submission order.
func (w *batchWorkload) submission() []core.Input {
	out := make([]core.Input, len(w.order))
	for j, i := range w.order {
		out[j] = w.inputs[i]
	}
	return out
}

func openSourceModel() (*carbon.Model, error) {
	return carbon.New(carbondata.OpenSource())
}

// setupSizing35 builds the sizing35 inputs: GreenSKU-Full against the
// Gen3 baseline over the ProductionSuite, with the scaling factors
// profiled once up front so passes never profile. Jobs are submitted
// largest trace first, so a pass ends on small traces with every
// worker busy; a seeded order would let the slowest trace land last
// and move the pass time from seed to seed.
func setupSizing35(ctx context.Context, p batchParams, workers int) (*batchWorkload, error) {
	perf.ResetSLOCache()
	m, err := openSourceModel()
	if err != nil {
		return nil, err
	}
	suite, err := trace.ProductionSuite()
	if err != nil {
		return nil, err
	}
	if p.traces < len(suite) {
		suite = suite[:p.traces]
	}
	green, base := hw.GreenSKUFull(), hw.BaselineGen3()
	opt := perf.DefaultOptions()
	opt.Workers = workers
	factors, err := perf.TableIIIContext(ctx, green, opt)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", green.Name, err)
	}
	w := &batchWorkload{name: "sizing35", model: m, workers: workers, params: p}
	for _, tr := range suite {
		w.inputs = append(w.inputs, core.Input{Green: green, Baseline: base, Workload: tr, Factors: factors})
		w.vms += len(tr.VMs)
		w.order = append(w.order, len(w.order))
	}
	sort.SliceStable(w.order, func(a, b int) bool {
		return len(suite[w.order[a]].VMs) > len(suite[w.order[b]].VMs)
	})
	return w, nil
}

// screenCandidates returns every p.every-th candidate of the stock
// design space, in enumeration order.
func screenCandidates(m *carbon.Model, p batchParams) ([]hw.SKU, error) {
	opt := design.DefaultOptions()
	all, err := design.Candidates(opt.Space, opt.Constraints, m)
	if err != nil {
		return nil, err
	}
	var out []hw.SKU
	for i := 0; i < len(all); i += p.every {
		out = append(out, all[i])
		if p.candidates > 0 && len(out) == p.candidates {
			break
		}
	}
	return out, nil
}

// setupDesignScreen builds the design-screen inputs: each candidate
// against the Gen3 baseline on one small trace, submitted in an order
// drawn from seed. Passes profile from a cold framework cache; set-up
// warms the process-wide SLO memo so every pass starts from the same
// state.
func setupDesignScreen(ctx context.Context, p batchParams, seed int64, workers int) (*batchWorkload, error) {
	perf.ResetSLOCache()
	m, err := openSourceModel()
	if err != nil {
		return nil, err
	}
	skus, err := screenCandidates(m, p)
	if err != nil {
		return nil, err
	}
	gp := trace.DefaultParams("screen", screenTraceSeed)
	gp.HorizonHours = p.horizonH
	gp.ArrivalsPerHour = p.arrivalsPH
	tr, err := trace.Generate(gp)
	if err != nil {
		return nil, err
	}
	opt := perf.DefaultOptions()
	opt.Workers = workers
	if _, err := perf.TableIIIContext(ctx, hw.GreenSKUFull(), opt); err != nil {
		return nil, fmt.Errorf("SLO warm-up: %w", err)
	}
	base := hw.BaselineGen3()
	w := &batchWorkload{name: "design-screen", model: m, workers: workers, params: p, freshPerPass: true}
	for _, sku := range skus {
		w.inputs = append(w.inputs, core.Input{Green: sku, Baseline: base, Workload: tr})
		w.vms += len(tr.VMs)
	}
	w.order = rand.New(rand.NewSource(seed)).Perm(len(w.inputs))
	return w, nil
}

// batchRun is what the untraced batch measurement produced.
type batchRun struct {
	passes     []time.Duration
	passFailed []int // failed evaluations per pass
	attempted  int
	failed     int
	digests    []string // per canonical input, from the first pass
}

// runPasses evaluates passes until the measurement window is spent: a
// new pass starts only while it is expected to end inside the window,
// and at least one pass always runs. Each pass's outputs must match
// the first pass's digests.
func runPasses(ctx context.Context, w *batchWorkload, window time.Duration) batchRun {
	var run batchRun
	jobs := w.submission()
	f := w.newFramework()
	start := time.Now()
	for {
		if w.freshPerPass {
			f = w.newFramework()
		}
		t0 := time.Now()
		results := f.EvaluateAll(ctx, jobs)
		d := time.Since(t0)
		run.passes = append(run.passes, d)
		run.attempted += len(results)

		digests := make([]string, len(w.inputs))
		failed := 0
		for j, r := range results {
			i := w.order[j]
			if r.Err != nil {
				failed++
				continue
			}
			digests[i] = evalDigest(r.Eval)
		}
		if run.digests == nil {
			run.digests = digests
		} else {
			for i := range digests {
				if digests[i] != "" && digests[i] != run.digests[i] {
					failed++
				}
			}
		}
		run.failed += failed
		run.passFailed = append(run.passFailed, failed)
		elapsed := time.Since(start)
		if elapsed+d > window {
			break
		}
	}
	return run
}

// verifyBatch checks the first pass's outputs against the workload's
// pinned digest, outside the timed window, and returns how many
// evaluations disagree: all of them on a mismatch.
func verifyBatch(out io.Writer, w *batchWorkload, run batchRun) int {
	for _, d := range run.digests {
		if d == "" {
			return len(run.digests)
		}
	}
	if got := combineDigests(run.digests); w.params.pinned != "" && got != w.params.pinned {
		fmt.Fprintf(out, "%s output digest %s, pinned %s\n", w.name, got, w.params.pinned)
		return len(run.digests)
	}
	return 0
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
