package queueing

import (
	"context"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/stats"
)

// RunOracle simulates cfg through the scalar per-request event loop,
// the kernel the batched loop replaced, kept verbatim as the baseline
// it is proven against. With referenceSampling false it draws the same
// ziggurat stream in the same order as RunContext, so the two return
// bit-identical Results for every config (the differential wall in
// batch_test.go). With referenceSampling true it runs the
// pre-optimization kernel: the original per-draw samplers (a logarithm
// per exponential, Box–Muller per normal, distribution parameters
// re-derived every sample), per-call percentile statistics and an
// unpooled latency buffer. That stream differs from the fast one and
// agrees with it only in distribution.
//
// Only tests and benchmarks call RunOracle. It shares only the audit
// checks and the final Result assembly (finish) with RunContext.
func RunOracle(ctx context.Context, cfg Config, referenceSampling bool) (Result, error) {
	if err := normalize(&cfg); err != nil {
		return Result{}, err
	}
	r := stats.NewRNG(cfg.Seed)
	chk := audit.Resolve(cfg.Audit)
	sampler := cfg.Service.Prepare()

	// All servers start free at t=0; an all-equal slice is already a
	// valid min-heap.
	free := make(serverHeap, cfg.Servers)

	total := cfg.Warmup + cfg.Requests
	var latencies []float64
	if referenceSampling {
		// The reference kernel allocates a fresh buffer per run, as the
		// pre-pool implementation did; the benchmark gate times it.
		latencies = make([]float64, 0, cfg.Requests)
	} else {
		buf := getLatencyBuf(cfg.Requests)
		latencies = *buf
		defer func() {
			*buf = latencies[:0]
			latencyPool.Put(buf)
		}()
	}
	now := 0.0
	meanIA := 1 / cfg.ArrivalRate
	for i := 0; i < total; i++ {
		if i&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			if chk != nil {
				auditHeap(chk, free)
			}
		}
		prev := now
		var s float64
		if referenceSampling {
			// Original per-request path: reference samplers, and the
			// distribution re-derives its parameters every sample.
			now += r.Exp(meanIA)
			s = cfg.Service.Sample(r)
		} else {
			now += r.FastExp(meanIA)
			s = sampler.Sample(r)
		}
		freeAt := free[0]
		start := now
		if freeAt > start {
			start = freeAt
		}
		done := start + s
		if chk != nil {
			auditEvent(chk, i, s, prev, now, start, done)
		}
		free[0] = done
		free.siftDown(0)
		if i >= cfg.Warmup {
			latencies = append(latencies, done-now)
		}
	}

	if referenceSampling {
		// Original statistics path: one copy-and-sort per percentile.
		return finish(chk, cfg, latencies, func(l []float64) stats.Summary {
			p := func(q float64) float64 { return stats.Percentile(l, q) }
			return stats.Summary{P50: p(50), P95: p(95), P99: p(99), Mean: stats.Mean(l)}
		}), nil
	}
	return finish(chk, cfg, latencies, stats.Summarize), nil
}
