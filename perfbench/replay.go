package main

import (
	"context"
	"fmt"

	"github.com/greensku/gsf/internal/adoption"
	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/apps"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/cluster"
	"github.com/greensku/gsf/internal/core"
	"github.com/greensku/gsf/internal/fleet"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/maintenance"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/queueing"
	"github.com/greensku/gsf/internal/trace"
)

// Stage span names, in the order core.EvaluateContext runs the layers.
const (
	spanEvaluate    = "core.EvaluateContext"
	spanReplay      = "core.replay"
	spanPrelude     = "core.validate"
	spanProfile     = "perf.profile"
	spanPerCore     = "carbon.percore"
	spanAdoption    = "adoption.build"
	spanMaintenance = "maintenance.compare"
	spanSize        = "cluster.size"
	spanBuffer      = "buffer.apply"
	spanFleet       = "fleet.analyze"
	spanAllocReplay = "alloc.simulate"
	spanQueueing    = "queueing.run"
)

// stageSpans are the replay's children of spanReplay.
var stageSpans = []string{
	spanPrelude, spanProfile, spanPerCore, spanAdoption,
	spanMaintenance, spanSize, spanBuffer, spanFleet,
}

// replayer re-runs an evaluation stage by stage, calling each layer's
// public function in the order and with the arguments
// core.EvaluateContext uses, and records one span per call. It keeps
// its own profile memo keyed like the framework's (perf.ProfileKey), so
// it profiles exactly when the framework's cache would miss.
type replayer struct {
	f        *core.Framework
	rec      *recorder
	profiles map[string]map[string]map[int]perf.Factor

	decisions          int64 // calls through the counting Decider
	sizedVMs           int64 // VMs in the traces the replay sized
	sloHits, sloMisses int64 // SLO-memo deltas across profile calls
}

func newReplayer(f *core.Framework, rec *recorder) *replayer {
	return &replayer{f: f, rec: rec, profiles: map[string]map[string]map[int]perf.Factor{}}
}

// classOf rebuilds the scheduler's view of a SKU from hw.SKU's public
// methods, as core does.
func classOf(sku hw.SKU, green bool) alloc.ServerClass {
	return alloc.ServerClass{
		Name:        sku.Name,
		Cores:       sku.Cores(),
		Memory:      sku.TotalDRAMGB(),
		LocalMemory: sku.LocalDRAMGB(),
		Green:       green,
	}
}

// evaluate replays one evaluation; id labels its spans.
func (r *replayer) evaluate(ctx context.Context, in core.Input, id int) (core.Evaluation, error) {
	root := r.rec.begin(spanReplay, -1, id)
	defer r.rec.end(root)
	f := r.f
	var ev core.Evaluation

	sp := r.rec.begin(spanPrelude, root, id)
	if f.Carbon == nil {
		return ev, core.ErrNotConfigured
	}
	if err := in.Validate(); err != nil {
		return ev, err
	}
	ci := in.CI
	if in.CISignal != nil {
		eff, err := f.Carbon.EffectiveCI(in.CISignal, 0)
		if err != nil {
			return ev, fmt.Errorf("%w: CI signal: %v", core.ErrBadInput, err)
		}
		ci = eff
	} else if ci == 0 {
		ci = f.Carbon.Data.DefaultCI
	}
	r.rec.end(sp)

	var err error
	ev.Factors = in.Factors
	if ev.Factors == nil {
		sp = r.rec.begin(spanProfile, root, id)
		key := perf.ProfileKey(in.Green, f.Perf)
		ev.Factors = r.profiles[key]
		if ev.Factors == nil {
			h0, m0 := perf.SLOCacheStats()
			ev.Factors, err = perf.TableIIIContext(ctx, in.Green, f.Perf)
			h1, m1 := perf.SLOCacheStats()
			r.sloHits += h1 - h0
			r.sloMisses += m1 - m0
			if err != nil {
				return ev, err
			}
			r.profiles[key] = ev.Factors
		}
		r.rec.end(sp)
	}

	sp = r.rec.begin(spanPerCore, root, id)
	if ev.PerCoreGreen, err = f.Carbon.PerCore(in.Green, ci); err != nil {
		return ev, err
	}
	basePC := map[int]carbon.PerCore{}
	for gen := 1; gen <= 3; gen++ {
		pc, err := f.Carbon.PerCore(hw.BaselineForGeneration(gen), ci)
		if err != nil {
			return ev, err
		}
		basePC[gen] = pc
	}
	if ev.PerCoreBase, err = f.Carbon.PerCore(in.Baseline, ci); err != nil {
		return ev, err
	}
	if ev.PerCoreSavings, err = f.Carbon.SavingsVs(in.Green, in.Baseline, ci); err != nil {
		return ev, err
	}
	r.rec.end(sp)

	sp = r.rec.begin(spanAdoption, root, id)
	if ev.Adoption, err = adoption.Build(ev.Factors, ev.PerCoreGreen, basePC); err != nil {
		return ev, err
	}
	r.rec.end(sp)

	sp = r.rec.begin(spanMaintenance, root, id)
	serverRatio := float64(in.Baseline.Cores()) / float64(in.Green.Cores())
	emissionRatio := float64(ev.PerCoreGreen.Total()) * float64(in.Green.Cores()) /
		(float64(ev.PerCoreBase.Total()) * float64(in.Baseline.Cores()))
	ev.Maintenance, err = maintenance.Compare([]maintenance.Input{
		{SKU: in.Baseline, ServerRatio: 1, EmissionRatio: 1},
		{SKU: in.Green, ServerRatio: serverRatio, EmissionRatio: emissionRatio},
	}, f.AFRs, f.FIP)
	if err != nil {
		return ev, err
	}
	r.rec.end(sp)

	sp = r.rec.begin(spanSize, root, id)
	baseClass := classOf(in.Baseline, false)
	greenClass := classOf(in.Green, true)
	decide := ev.Adoption.Decider()
	sizer := &cluster.Sizer{
		Base:   baseClass,
		Green:  greenClass,
		Policy: f.Policy,
		Decide: func(vm trace.VM) alloc.Decision {
			r.decisions++
			return decide(vm)
		},
		Audit: f.Audit,
	}
	if ev.Mix, err = sizer.MixedSizeContext(ctx, in.Workload); err != nil {
		return ev, err
	}
	r.sizedVMs += int64(len(in.Workload.VMs))
	r.rec.end(sp)

	sp = r.rec.begin(spanBuffer, root, id)
	if ev.Buffered, err = f.Buffer.Apply(ev.Mix); err != nil {
		return ev, err
	}
	baseIn := cluster.SavingsInput{Class: baseClass, PerCore: ev.PerCoreBase}
	greenIn := cluster.SavingsInput{Class: greenClass, PerCore: ev.PerCoreGreen}
	ev.ClusterSavings = f.Buffer.Savings(ev.Buffered, baseIn, greenIn)
	r.rec.end(sp)

	sp = r.rec.begin(spanFleet, root, id)
	breakdown, err := fleet.Analyze(f.Fleet)
	if err != nil {
		return ev, err
	}
	ev.DCSavings = fleet.DCSavings(ev.ClusterSavings, breakdown)
	r.rec.end(sp)
	return ev, nil
}

// allocReplay runs one allocation simulation of the trace at the sized
// Mix, the unit of work cluster sizing repeats; it returns the VMs
// replayed.
func (r *replayer) allocReplay(ctx context.Context, in core.Input, ev core.Evaluation, id int) (int, error) {
	decide := ev.Adoption.Decider()
	sp := r.rec.begin(spanAllocReplay, -1, id)
	res, err := alloc.SimulateContext(ctx, in.Workload, alloc.Config{
		Base: classOf(in.Baseline, false), NBase: ev.Mix.NBase,
		Green: classOf(in.Green, true), NGreen: ev.Mix.NGreen,
		Policy: r.f.Policy, PreferNonEmpty: true, Audit: r.f.Audit,
	}, decide)
	r.rec.end(sp)
	if err != nil {
		return 0, err
	}
	if res.Rejected != 0 {
		return 0, fmt.Errorf("alloc replay of %s at the sized mix rejected %d VMs", in.Workload.Name, res.Rejected)
	}
	return len(in.Workload.VMs), nil
}

// queueingRun runs one queueing simulation at perf's measurement
// protocol: the first latency-critical app on a BaselineCores-core VM
// of the green SKU at LoadFraction of its capacity. It returns the
// requests simulated.
func (r *replayer) queueingRun(ctx context.Context, green hw.SKU, id int) (int, error) {
	opt := r.f.Perf
	var app apps.App
	for _, a := range apps.All() {
		if a.LatencyCritical {
			app = a
			break
		}
	}
	s := queueing.LogNormal{MeanSeconds: perf.ServiceTime(app, perf.ProfileOf(green, false)), CV: app.CV}
	cfg := queueing.Config{
		Servers:     opt.BaselineCores,
		ArrivalRate: opt.LoadFraction * queueing.Capacity(opt.BaselineCores, s),
		Service:     s,
		Warmup:      opt.Requests / 10,
		Requests:    opt.Requests,
		Seed:        opt.Seed,
	}
	sp := r.rec.begin(spanQueueing, -1, id)
	_, err := queueing.RunContext(ctx, cfg)
	r.rec.end(sp)
	if err != nil {
		return 0, err
	}
	return cfg.Warmup + cfg.Requests, nil
}
