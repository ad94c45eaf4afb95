package queueing

// The batched structure-of-arrays event loop. Instead of interleaving
// one RNG draw pair with one heap operation per request, the loop fills
// whole arrival-gap and service-time vectors up front through the
// ziggurat bulk fillers and then sweeps the batch through a tight,
// allocation-free dispatch loop.
//
// Bit-identity with the scalar loop it replaced (RunOracle with
// referenceSampling false) rests on three facts, each proven by a
// differential test:
//
//  1. The bulk fillers interleave (gap, service) draws per request in
//     the exact scalar order — the ziggurat consumes a variable number
//     of 64-bit words per sample, so filling all gaps first would
//     permute the stream (stats.TestPairFillsMatchScalarSequence).
//  2. The server index is the scalar loop's binary heap of next-free
//     times, rewritten at the root and sifted down exactly as there,
//     so dispatch decisions are identical.
//  3. Each percentile is an interpolation of exact order statistics,
//     so the quickselect summary equals the sort-based one bit for bit
//     (stats.TestSummarizeSelectMatchesSummarize).
//
// Context polling and audit sweeps happen at batch boundaries — the
// same i&4095 == 0 cadence the scalar loop uses.

import (
	"context"
	"math"
	"sync"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/stats"
)

// eventBatch is the SoA batch size. It matches the scalar loop's
// context-poll cadence (i&4095 == 0) so batching changes neither the
// cancellation latency nor the audit sweep frequency.
const eventBatch = 4096

// eventBuf holds one batch of pre-sampled arrival gaps and service
// times; pooled so steady-state runs allocate nothing per batch.
type eventBuf struct {
	gaps [eventBatch]float64
	svc  [eventBatch]float64
}

var eventBufPool = sync.Pool{New: func() any { return new(eventBuf) }}

// runBatched is the event loop behind Run/RunContext.
func runBatched(ctx context.Context, cfg Config) (Result, error) {
	r := stats.NewRNG(cfg.Seed)
	chk := audit.Resolve(cfg.Audit)
	sampler := cfg.Service.Prepare()

	buf := getLatencyBuf(cfg.Requests)
	latencies := *buf
	defer func() {
		*buf = latencies[:0]
		latencyPool.Put(buf)
	}()

	total := cfg.Warmup + cfg.Requests
	free := make(serverHeap, cfg.Servers)

	eb := eventBufPool.Get().(*eventBuf)
	defer eventBufPool.Put(eb)

	now := 0.0
	meanIA := 1 / cfg.ArrivalRate
	for base := 0; base < total; base += eventBatch {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if chk != nil {
			auditHeap(chk, free)
		}
		n := total - base
		if n > eventBatch {
			n = eventBatch
		}
		gaps, svc := eb.gaps[:n:n], eb.svc[:n:n]
		fillEvents(sampler, r, gaps, svc, meanIA)

		if chk == nil {
			for k := 0; k < n; k++ {
				now += gaps[k]
				start := free[0]
				if now > start {
					start = now
				}
				done := start + svc[k]
				free[0] = done
				free.siftDown(0)
				if base+k >= cfg.Warmup {
					latencies = append(latencies, done-now)
				}
			}
			continue
		}
		for k := 0; k < n; k++ {
			prev := now
			now += gaps[k]
			start := free[0]
			if now > start {
				start = now
			}
			done := start + svc[k]
			auditEvent(chk, base+k, svc[k], prev, now, start, done)
			free[0] = done
			free.siftDown(0)
			if base+k >= cfg.Warmup {
				latencies = append(latencies, done-now)
			}
		}
	}

	return finish(chk, cfg, latencies, stats.SummarizeSelect), nil
}

// finish builds a run's Result from its measured latencies in arrival
// order and the summary function that reduces them (which may reorder
// the buffer in place), and audits the percentile order.
func finish(chk audit.Checker, cfg Config, latencies []float64, summarize func([]float64) stats.Summary) Result {
	// Saturation: the measured window's tail grows relative to its
	// head, the signature of an unstable queue in a finite run. Read in
	// arrival order, before summarize reorders the buffer.
	var head, tail float64
	q := len(latencies) / 4
	if q > 0 {
		head = stats.Mean(latencies[:q])
		tail = stats.Mean(latencies[len(latencies)-q:])
	}
	sum := summarize(latencies)
	res := Result{
		Offered:     cfg.ArrivalRate,
		P50:         sum.P50,
		P95:         sum.P95,
		P99:         sum.P99,
		Mean:        sum.Mean,
		Utilization: cfg.ArrivalRate * cfg.Service.Mean() / float64(cfg.Servers),
	}
	res.Saturated = q > 0 && (res.Utilization >= 1 || tail > 3*head)
	if chk != nil && (!(res.P50 <= res.P95+audit.SimTol) || !(res.P95 <= res.P99+audit.SimTol)) {
		audit.Failf(chk, "queueing", "percentile-order",
			"latency percentiles unordered: P50=%g P95=%g P99=%g", res.P50, res.P95, res.P99)
	}
	return res
}

// fillEvents fills one batch of arrival gaps and service times,
// consuming the RNG in exactly the scalar loop's per-request order.
func fillEvents(sampler Sampler, r *stats.RNG, gaps, svc []float64, meanIA float64) {
	switch s := sampler.(type) {
	case fastLogNormal:
		r.FillExpLogNormal(gaps, meanIA, svc, s.mu, s.sigma)
	case fastExp:
		r.FillExpExp(gaps, meanIA, svc, float64(s))
	case constSampler:
		// Constant service draws nothing, so a plain gap fill is
		// already in scalar draw order.
		r.FillExp(gaps, meanIA)
		c := float64(s)
		for k := range svc {
			svc[k] = c
		}
	default:
		for k := range gaps {
			gaps[k] = r.FastExp(meanIA)
			svc[k] = s.Sample(r)
		}
	}
}

// auditEvent checks one request's invariants: samples must stay in the
// distributions' domain (a broken fast sampler would surface here), the
// event clock may only move forward, a request may not start before it
// arrives or complete before it starts, and its latency includes at
// least its own service time.
func auditEvent(chk audit.Checker, i int, s, prev, now, start, done float64) {
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		audit.Failf(chk, "queueing", "sample-domain",
			"service sample %g outside [0, inf) at request %d", s, i)
	}
	if now < prev || math.IsNaN(now) {
		audit.Failf(chk, "queueing", "clock-monotonicity",
			"arrival clock moved backwards: %g -> %g at request %d", prev, now, i)
	}
	if start < now {
		audit.Failf(chk, "queueing", "start-before-arrival",
			"request %d started at %g before arrival %g", i, start, now)
	}
	if done < start {
		audit.Failf(chk, "queueing", "completion-before-start",
			"request %d completed at %g before start %g", i, done, start)
	}
	if lat := done - now; lat < s-audit.SimTol {
		audit.Failf(chk, "queueing", "latency-below-service",
			"request %d latency %g below service time %g", i, lat, s)
	}
}
