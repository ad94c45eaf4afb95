package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"github.com/greensku/gsf/internal/core"
)

// layerRun is what one traced run of a set of evaluations measured.
type layerRun struct {
	rec          *recorder
	parallelWall time.Duration // untraced EvaluateAll of the same inputs
	evaluations  int
	mismatches   int // replays not reflect.DeepEqual to EvaluateContext
	decisions    int64
	sizedVMs     int64
	allocVMs     int
	queueReqs    int
	sloHits      int64
	sloMisses    int64
	cacheHits    int64
	cacheMisses  int64
}

// traceEvaluations measures each layer on the given inputs. It first
// times one untraced EvaluateAll pass over them, then evaluates each
// input through core.EvaluateContext and through the stage-by-stage
// replay — alternating which goes first, so neither always meets a
// cold processor cache — and checks the two agree exactly. Each input
// also gets one allocation replay at its sized mix and one queueing
// run at perf's protocol. newFramework must return a fresh framework.
func traceEvaluations(ctx context.Context, newFramework func() *core.Framework, inputs []core.Input) (layerRun, error) {
	// Per input: the EvaluateContext span, the replay root and its
	// stages, the allocation replay and the queueing run.
	lr := layerRun{rec: newRecorder(len(inputs) * (4 + len(stageSpans))), evaluations: len(inputs)}

	t0 := time.Now()
	for i, r := range newFramework().EvaluateAll(ctx, inputs) {
		if r.Err != nil {
			return lr, fmt.Errorf("parallel pass, input %d: %w", i, r.Err)
		}
	}
	lr.parallelWall = time.Since(t0)

	f := newFramework()
	rp := newReplayer(f, lr.rec)
	for i, in := range inputs {
		var direct, replayed core.Evaluation
		var derr, rerr error
		evaluate := func() {
			h0, m0 := f.ProfileCacheStats()
			sp := lr.rec.begin(spanEvaluate, -1, i)
			direct, derr = f.EvaluateContext(ctx, in)
			lr.rec.end(sp)
			h1, m1 := f.ProfileCacheStats()
			lr.cacheHits += h1 - h0
			lr.cacheMisses += m1 - m0
		}
		if i%2 == 0 {
			evaluate()
			replayed, rerr = rp.evaluate(ctx, in, i)
		} else {
			replayed, rerr = rp.evaluate(ctx, in, i)
			evaluate()
		}
		if derr != nil {
			return lr, fmt.Errorf("input %d: %w", i, derr)
		}
		if rerr != nil {
			return lr, fmt.Errorf("replay of input %d: %w", i, rerr)
		}
		if !reflect.DeepEqual(direct, replayed) {
			lr.mismatches++
		}
		n, err := rp.allocReplay(ctx, in, direct, i)
		if err != nil {
			return lr, err
		}
		lr.allocVMs += n
		q, err := rp.queueingRun(ctx, in.Green, i)
		if err != nil {
			return lr, err
		}
		lr.queueReqs += q
	}
	lr.decisions, lr.sizedVMs = rp.decisions, rp.sizedVMs
	lr.sloHits, lr.sloMisses = rp.sloHits, rp.sloMisses
	return lr, nil
}

// layerMetrics turns a traced run into the per-layer metrics.
func (lr layerRun) layerMetrics(m metrics) {
	self := lr.rec.selfTimes()
	totals := lr.rec.totals()
	var stageSum time.Duration
	for _, s := range stageSpans {
		stageSum += self[s]
	}
	m.set("core.validate_s", self[spanPrelude].Seconds(), "s")
	m.set("perf.profile_s", self[spanProfile].Seconds(), "s")
	m.set("carbon.percore_s", self[spanPerCore].Seconds(), "s")
	m.set("adoption.build_s", self[spanAdoption].Seconds(), "s")
	m.set("maintenance.compare_s", self[spanMaintenance].Seconds(), "s")
	m.set("cluster.size_s", self[spanSize].Seconds(), "s")
	m.set("buffer.apply_s", self[spanBuffer].Seconds(), "s")
	m.set("fleet.analyze_s", self[spanFleet].Seconds(), "s")

	m.set("alloc.vm_decisions", float64(lr.decisions), "count")
	m.set("cluster.replays_per_sizing", ratio(float64(lr.decisions), float64(lr.sizedVMs)), "ratio")
	allocS := totals[spanAllocReplay].Seconds()
	m.set("alloc.replay_s", allocS, "s")
	m.set("alloc.vms_per_s", ratio(float64(lr.allocVMs), allocS), "1/s")

	m.set("perf.slo_memo_hits", float64(lr.sloHits), "count")
	m.set("perf.slo_memo_misses", float64(lr.sloMisses), "count")
	m.set("core.profile_cache_hits", float64(lr.cacheHits), "count")
	m.set("core.profile_cache_misses", float64(lr.cacheMisses), "count")
	queueS := totals[spanQueueing].Seconds()
	m.set("queueing.run_s", queueS, "s")
	m.set("queueing.requests_per_s", ratio(float64(lr.queueReqs), queueS), "1/s")

	m.set("core.stage_sum_ratio", lr.stageSumRatio(), "ratio")
	m.set("engine.speedup", ratio(stageSum.Seconds(), lr.parallelWall.Seconds()), "ratio")
}

// stageSumRatio is the median over evaluations of the replay's stage
// self-times summed, over that evaluation's EvaluateContext wall time.
// The median keeps a host stall during one call from deciding it.
func (lr layerRun) stageSumRatio() float64 {
	stages, wall := map[int]time.Duration{}, map[int]time.Duration{}
	for _, s := range lr.rec.spans {
		switch {
		case s.Name == spanEvaluate:
			wall[s.Trace] += s.dur()
		case s.Parent >= 0 && lr.rec.spans[s.Parent].Name == spanReplay:
			stages[s.Trace] += s.dur() // stage spans have no children
		}
	}
	var rs []float64
	for id, w := range wall {
		rs = append(rs, ratio(stages[id].Seconds(), w.Seconds()))
	}
	return median(rs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
