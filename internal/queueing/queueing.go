// Package queueing implements the discrete-event simulation substrate
// behind GSF's performance component: an open-loop, FCFS, k-server queue
// with Poisson arrivals and a pluggable service-time distribution.
//
// The paper measures 95th-percentile tail latency versus offered load
// (QPS) on physical servers (Figs. 7–8); this simulator reproduces the
// same measurement protocol — sweep offered load, record latency
// percentiles, find the saturation knee — against modelled service
// times. A VM with k cores serving a request-parallel application maps
// onto a k-server queue.
//
// The kernel is built for sweep throughput: service distributions fold
// their constants once per run (Prepare), samples come from ziggurat
// fast paths unless Config.ReferenceSampling asks for the bit-exact
// reference samplers, latency statistics come from a single sort of a
// pooled buffer, and the sweep APIs (CurveContext, TrialsContext,
// KneeSearch) fan out through the shared evaluation engine with
// deterministic, index-slotted results.
package queueing

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/stats"
)

// Sampler draws service times with all distribution constants already
// folded; the event loop calls nothing else per request.
type Sampler interface {
	Sample(r *stats.RNG) float64
}

// ServiceDist describes a request service-time distribution in seconds.
// Prepare is the once-per-run step that precomputes derived parameters
// (a log-normal's mu/sigma) and selects the sampling implementation:
// reference=true returns a sampler bit-compatible with the original
// per-sample Sample path, reference=false the ziggurat fast path.
type ServiceDist interface {
	Sample(r *stats.RNG) float64
	Mean() float64
	Prepare(reference bool) Sampler
}

// LogNormal is a log-normal service-time distribution specified by its
// mean and coefficient of variation, the common model for request
// service times in interactive cloud services.
type LogNormal struct {
	MeanSeconds float64
	CV          float64 // stddev / mean of the service time
}

// Mean returns the distribution mean in seconds.
func (l LogNormal) Mean() float64 { return l.MeanSeconds }

// params returns the underlying normal's mu and sigma.
func (l LogNormal) params() (mu, sigma float64) {
	sigma2 := math.Log(1 + l.CV*l.CV)
	return math.Log(l.MeanSeconds) - sigma2/2, math.Sqrt(sigma2)
}

// Sample draws one service time.
func (l LogNormal) Sample(r *stats.RNG) float64 {
	if l.CV <= 0 {
		return l.MeanSeconds
	}
	mu, sigma := l.params()
	return r.LogNormal(mu, sigma)
}

// Prepare implements ServiceDist: mu and sigma are computed once here
// instead of once per sample (two logs and a square root per request on
// the old path).
func (l LogNormal) Prepare(reference bool) Sampler {
	if l.CV <= 0 {
		return constSampler(l.MeanSeconds)
	}
	mu, sigma := l.params()
	if reference {
		return refLogNormal{mu: mu, sigma: sigma}
	}
	return fastLogNormal{mu: mu, sigma: sigma}
}

// Exponential is an exponential (M/M/k) service-time distribution.
type Exponential struct{ MeanSeconds float64 }

// Mean returns the distribution mean in seconds.
func (e Exponential) Mean() float64 { return e.MeanSeconds }

// Sample draws one service time.
func (e Exponential) Sample(r *stats.RNG) float64 { return r.Exp(e.MeanSeconds) }

// Prepare implements ServiceDist.
func (e Exponential) Prepare(reference bool) Sampler {
	if reference {
		return refExp(e.MeanSeconds)
	}
	return fastExp(e.MeanSeconds)
}

type constSampler float64

func (c constSampler) Sample(*stats.RNG) float64 { return float64(c) }

type refLogNormal struct{ mu, sigma float64 }

func (s refLogNormal) Sample(r *stats.RNG) float64 { return r.LogNormal(s.mu, s.sigma) }

type fastLogNormal struct{ mu, sigma float64 }

func (s fastLogNormal) Sample(r *stats.RNG) float64 { return r.FastLogNormal(s.mu, s.sigma) }

type refExp float64

func (m refExp) Sample(r *stats.RNG) float64 { return r.Exp(float64(m)) }

type fastExp float64

func (m fastExp) Sample(r *stats.RNG) float64 { return r.FastExp(float64(m)) }

// Config describes one simulation run.
type Config struct {
	Servers     int     // parallel servers (VM cores)
	ArrivalRate float64 // offered load in requests/second
	Service     ServiceDist
	Warmup      int // requests discarded before measurement
	Requests    int // measured requests
	Seed        uint64
	// ReferenceSampling selects the pre-optimization reference kernel:
	// the original per-draw samplers (logarithm per exponential,
	// Box–Muller per normal, distribution parameters recomputed every
	// sample), per-call percentile statistics, and an unpooled latency
	// buffer. Results are bit-identical to the kernel before the fast
	// paths landed — the mode differential tests and the gsfbench gate
	// compare against. The fast path draws a different sequence that is
	// statistically equivalent (KS-tested) but not bit-compatible.
	ReferenceSampling bool
	// ReferenceEventLoop selects the scalar per-request event loop (the
	// PR 5 kernel, retained verbatim) instead of the batched
	// structure-of-arrays loop. It composes with ReferenceSampling: the
	// batched loop interleaves its bulk draws per request in the exact
	// scalar order, so for every (ReferenceSampling, seed) pair the two
	// loops produce bit-identical Results — the differential wall in
	// batch_test.go proves it across 35 seeds.
	ReferenceEventLoop bool
	// Audit receives invariant violations (event-clock monotonicity,
	// service ordering, heap integrity, percentile ordering, sample
	// domain). Nil falls back to the process default (audit.SetDefault);
	// if that is also nil, checking is disabled and costs nothing.
	Audit audit.Checker
}

// Result summarises one simulation run.
type Result struct {
	Offered     float64 // configured arrival rate
	P50         float64 // seconds
	P95         float64
	P99         float64
	Mean        float64
	Utilization float64 // offered * E[S] / k
	// Saturated reports that the queue was unstable: offered load at
	// or above capacity, detected by latency growth across the run.
	Saturated bool
}

// serverHeap is a min-heap over each server's next-free time. The heap
// is fixed-size (one slot per server), so the only operation the event
// loop needs is rewriting the root and sifting it down — done with a
// typed loop rather than container/heap, whose interface-based Fix
// boxes its arguments and allocates on the hot path. The sift mirrors
// container/heap's down exactly, so equal free-times order as before.
type serverHeap []float64

func (h serverHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// latencyPool recycles measurement buffers across runs: a sweep that
// performs thousands of simulations would otherwise allocate (and
// garbage-collect) a Requests-sized float64 slice per run. Buffers are
// stored by pointer so Put itself does not allocate a slice header.
var latencyPool sync.Pool

// getLatencyBuf returns an empty buffer with capacity at least n.
func getLatencyBuf(n int) *[]float64 {
	if p, _ := latencyPool.Get().(*[]float64); p != nil {
		if cap(*p) >= n {
			*p = (*p)[:0]
			return p
		}
	}
	s := make([]float64, 0, n)
	return &s
}

// Run simulates the configured queue and returns latency statistics.
// FCFS dispatch to the earliest-free server is exact for G/G/k: each
// arrival waits until the server that frees first is idle.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the event loop polls ctx every
// 4096 requests — cheap enough to be invisible in profiles — and
// returns the context error once observed.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Servers <= 0 {
		return Result{}, fmt.Errorf("queueing: servers must be positive, got %d", cfg.Servers)
	}
	if cfg.ArrivalRate <= 0 {
		return Result{}, fmt.Errorf("queueing: arrival rate must be positive, got %v", cfg.ArrivalRate)
	}
	if cfg.Service == nil {
		return Result{}, fmt.Errorf("queueing: no service distribution")
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 20000
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = cfg.Requests / 10
	}
	if !cfg.ReferenceEventLoop {
		return runBatched(ctx, cfg)
	}
	return runReference(ctx, cfg)
}

// runReference is the scalar per-request event loop — the PR 5 kernel,
// retained verbatim behind Config.ReferenceEventLoop as the
// bit-identical baseline the batched loop is proven against.
func runReference(ctx context.Context, cfg Config) (Result, error) {
	r := stats.NewRNG(cfg.Seed)
	chk := audit.Resolve(cfg.Audit)
	reference := cfg.ReferenceSampling
	var sampler Sampler
	if !reference {
		sampler = cfg.Service.Prepare(false)
	}

	// All servers start free at t=0; an all-equal slice is already a
	// valid min-heap.
	free := make(serverHeap, cfg.Servers)

	total := cfg.Warmup + cfg.Requests
	var latencies []float64
	if reference {
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
		if reference {
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
			// Samples must stay in the distributions' domain (a broken
			// fast sampler would surface here), the event clock may
			// only move forward, a request may not start before it
			// arrives or complete before it starts, and its latency
			// includes at least its own service time.
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
		free[0] = done
		free.siftDown(0)
		if i >= cfg.Warmup {
			latencies = append(latencies, done-now)
		}
	}

	// Saturation: the measured window's tail grows relative to its
	// head, the signature of an unstable queue in a finite run. Read in
	// arrival order, before Summarize sorts the buffer in place.
	var head, tail float64
	q := len(latencies) / 4
	if q > 0 {
		head = stats.Mean(latencies[:q])
		tail = stats.Mean(latencies[len(latencies)-q:])
	}
	var sum stats.Summary
	if reference {
		// Original statistics path: one copy-and-sort per percentile.
		sum = stats.Summary{
			P50:  stats.Percentile(latencies, 50),
			P95:  stats.Percentile(latencies, 95),
			P99:  stats.Percentile(latencies, 99),
			Mean: stats.Mean(latencies),
		}
	} else {
		sum = stats.Summarize(latencies)
	}
	res := Result{
		Offered:     cfg.ArrivalRate,
		P50:         sum.P50,
		P95:         sum.P95,
		P99:         sum.P99,
		Mean:        sum.Mean,
		Utilization: cfg.ArrivalRate * cfg.Service.Mean() / float64(cfg.Servers),
	}
	if q > 0 && (res.Utilization >= 1 || tail > 3*head) {
		res.Saturated = true
	}
	if chk != nil {
		if !(res.P50 <= res.P95+audit.SimTol) || !(res.P95 <= res.P99+audit.SimTol) {
			audit.Failf(chk, "queueing", "percentile-order",
				"latency percentiles unordered: P50=%g P95=%g P99=%g", res.P50, res.P95, res.P99)
		}
	}
	return res, nil
}

// auditHeap verifies the free-server heap still satisfies the min-heap
// property; called periodically from the event loop when auditing is on.
func auditHeap(chk audit.Checker, h serverHeap) {
	for i := 1; i < len(h); i++ {
		if parent := (i - 1) / 2; h[parent] > h[i] {
			audit.Failf(chk, "queueing", "heap-order",
				"free-server heap violated at index %d: parent %g > child %g", i, h[parent], h[i])
			return
		}
	}
}

// Capacity returns the theoretical peak throughput of k servers with
// the given service distribution: k / E[S].
func Capacity(servers int, s ServiceDist) float64 {
	return float64(servers) / s.Mean()
}

// sweepSeed derives the seed of a sweep's i-th run, the convention
// every sweep API in the repository uses (base seed plus index).
func sweepSeed(base uint64, i int) uint64 { return base + uint64(i) }

// Trials runs n independent simulations differing only in seed and
// returns the per-trial P95 values, mirroring the paper's protocol of
// three trials with 99% confidence intervals.
func Trials(cfg Config, n int) ([]float64, error) {
	return TrialsContext(context.Background(), cfg, n)
}

// TrialsContext is Trials with cancellation: trials fan out across the
// evaluation engine (deterministic, index-slotted results, so parallel
// and serial runs agree), the context cancels in-flight simulations,
// and cfg.Audit is threaded through every trial.
func TrialsContext(ctx context.Context, cfg Config, n int) ([]float64, error) {
	res := engine.Map(ctx, 0, n, func(ctx context.Context, i int) (float64, error) {
		c := cfg
		c.Seed = sweepSeed(cfg.Seed, i)
		r, err := RunContext(ctx, c)
		if err != nil {
			return 0, err
		}
		return r.P95, nil
	})
	return engine.Collect(res)
}

// CurvePoint is one point of a latency-versus-load curve.
type CurvePoint struct {
	QPS       float64
	P95       float64
	Saturated bool
}

// Curve sweeps offered load from loFrac to hiFrac of the queue's
// theoretical capacity in the given number of steps and records P95 at
// each point — the measurement behind Figs. 7 and 8.
func Curve(servers int, s ServiceDist, loFrac, hiFrac float64, steps int, seed uint64) ([]CurvePoint, error) {
	return CurveContext(context.Background(), Config{Servers: servers, Service: s, Seed: seed}, loFrac, hiFrac, steps)
}

// CurveContext is Curve with cancellation and full Config control:
// cfg supplies the queue shape, request counts, sampling mode, and the
// audit checker (which the plain Curve API could not thread through);
// cfg.ArrivalRate is overridden per step with the swept load. Steps fan
// out across the evaluation engine with index-slotted results, so the
// curve is identical however many workers run it.
func CurveContext(ctx context.Context, cfg Config, loFrac, hiFrac float64, steps int) ([]CurvePoint, error) {
	if steps < 2 {
		return nil, fmt.Errorf("queueing: curve needs at least 2 steps")
	}
	if cfg.Servers <= 0 || cfg.Service == nil {
		return nil, fmt.Errorf("queueing: curve needs positive servers and a service distribution")
	}
	peak := Capacity(cfg.Servers, cfg.Service)
	res := engine.Map(ctx, 0, steps, func(ctx context.Context, i int) (CurvePoint, error) {
		frac := loFrac + (hiFrac-loFrac)*float64(i)/float64(steps-1)
		c := cfg
		c.ArrivalRate = frac * peak
		c.Seed = sweepSeed(cfg.Seed, i)
		r, err := RunContext(ctx, c)
		if err != nil {
			return CurvePoint{}, err
		}
		return CurvePoint{QPS: r.Offered, P95: r.P95, Saturated: r.Saturated}, nil
	})
	return engine.Collect(res)
}

// Knee is the result of a KneeSearch: the saturation boundary of a
// queue, bracketed to the requested resolution.
type Knee struct {
	// KneeFrac and KneeQPS are the lowest load observed saturated
	// (as a fraction of theoretical capacity, and absolute).
	KneeFrac float64
	KneeQPS  float64
	// StableFrac/StableQPS/StableP95 describe the highest load observed
	// stable — the operating point just below the knee.
	StableFrac float64
	StableQPS  float64
	StableP95  float64
	// Found reports that the knee lies inside [loFrac, hiFrac]; false
	// means the queue was still stable at hiFrac (KneeFrac is then
	// meaningless and StableFrac == hiFrac).
	Found bool
	// Evals counts discrete-event simulation runs performed; the
	// adaptive search needs O(log((hi-lo)/tol)) of them where a
	// fixed-step sweep at the same resolution needs (hi-lo)/tol.
	Evals int
}

// KneeSearch locates a queue's saturation knee by bracketing and
// bisection instead of a fixed-step load sweep: it evaluates the two
// endpoints, then halves the bracket until it is narrower than tolFrac
// (of theoretical capacity). All evaluations reuse cfg.Seed, so the
// runs differ only in offered load (common random numbers), and the
// search is fully deterministic. Use it where only the knee is needed;
// CurveContext still serves full-curve measurements.
func KneeSearch(ctx context.Context, cfg Config, loFrac, hiFrac, tolFrac float64) (Knee, error) {
	if cfg.Servers <= 0 || cfg.Service == nil {
		return Knee{}, fmt.Errorf("queueing: knee search needs positive servers and a service distribution")
	}
	if !(loFrac > 0) || !(hiFrac > loFrac) {
		return Knee{}, fmt.Errorf("queueing: knee search needs 0 < loFrac < hiFrac, got [%v, %v]", loFrac, hiFrac)
	}
	if !(tolFrac > 0) {
		return Knee{}, fmt.Errorf("queueing: knee search needs a positive tolerance, got %v", tolFrac)
	}
	peak := Capacity(cfg.Servers, cfg.Service)
	var k Knee
	eval := func(frac float64) (Result, error) {
		c := cfg
		c.ArrivalRate = frac * peak
		k.Evals++
		return RunContext(ctx, c)
	}

	lo, err := eval(loFrac)
	if err != nil {
		return Knee{}, err
	}
	if lo.Saturated {
		// The whole bracket is past the knee; report its lower edge.
		k.Found = true
		k.KneeFrac, k.KneeQPS = loFrac, lo.Offered
		return k, nil
	}
	k.StableFrac, k.StableQPS, k.StableP95 = loFrac, lo.Offered, lo.P95
	hi, err := eval(hiFrac)
	if err != nil {
		return Knee{}, err
	}
	if !hi.Saturated {
		// Still stable at the top of the bracket: no knee inside.
		k.StableFrac, k.StableQPS, k.StableP95 = hiFrac, hi.Offered, hi.P95
		return k, nil
	}
	k.Found = true
	k.KneeFrac, k.KneeQPS = hiFrac, hi.Offered

	loF, hiF := loFrac, hiFrac
	for hiF-loF > tolFrac {
		mid := loF + (hiF-loF)/2
		res, err := eval(mid)
		if err != nil {
			return Knee{}, err
		}
		if res.Saturated {
			hiF = mid
			k.KneeFrac, k.KneeQPS = mid, res.Offered
		} else {
			loF = mid
			k.StableFrac, k.StableQPS, k.StableP95 = mid, res.Offered, res.P95
		}
	}
	return k, nil
}
