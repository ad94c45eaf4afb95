package queueing

// Kernel-level equivalence and regression tests for the fast sampling
// path (against the reference-sampling oracle) and the sweep APIs; the
// pooled-buffer allocation pin lives in batch_test.go. Every run here
// executes under the package TestMain's audit.Recorder, so the 35-seed
// sweep below doubles as the audit cross-check the fast samplers must
// stay clean against (sample-domain, clock-monotonicity, heap-order,
// percentile-order).

import (
	"context"
	"math"
	"testing"
)

// TestFastMatchesReferenceAcrossSeeds runs the same stable queue
// through the production kernel and the reference-sampling oracle
// across 35 seeds. The two modes draw
// different sequences, so per-seed results differ by simulation noise;
// the test pins (a) per-seed agreement within a loose band, (b) the
// across-seed mean P95s within a tight band, and (c) identical
// saturation verdicts at a comfortably stable operating point.
func TestFastMatchesReferenceAcrossSeeds(t *testing.T) {
	base := Config{
		Servers:     8,
		ArrivalRate: 0.7 * Capacity(8, LogNormal{0.004, 1}),
		Service:     LogNormal{MeanSeconds: 0.004, CV: 1},
		Requests:    40000,
	}
	var fastSum, refSum float64
	for seed := uint64(1); seed <= 35; seed++ {
		cfg := base
		cfg.Seed = seed
		fast := run(t, cfg)
		ref := runOracle(t, cfg, true)
		if fast.Saturated != ref.Saturated {
			t.Errorf("seed %d: saturation verdicts differ (fast=%v ref=%v)", seed, fast.Saturated, ref.Saturated)
		}
		if rel := math.Abs(fast.P95-ref.P95) / ref.P95; rel > 0.10 {
			t.Errorf("seed %d: fast P95 %.6f vs reference %.6f (%.1f%% apart)", seed, fast.P95, ref.P95, rel*100)
		}
		fastSum += fast.P95
		refSum += ref.P95
	}
	if rel := math.Abs(fastSum-refSum) / refSum; rel > 0.01 {
		t.Errorf("35-seed mean P95: fast %.6f vs reference %.6f (%.2f%% apart, want <1%%)", fastSum/35, refSum/35, rel*100)
	}
}

// TestReferenceSamplingDeterministic pins that the reference-sampling
// oracle is a pure function of the config — the property the
// differential test against the pre-fast-path kernel relies on.
func TestReferenceSamplingDeterministic(t *testing.T) {
	cfg := Config{Servers: 4, ArrivalRate: 800, Service: Exponential{0.004}, Requests: 20000, Seed: 17}
	a, b := runOracle(t, cfg, true), runOracle(t, cfg, true)
	if a != b {
		t.Fatalf("reference runs diverged: %+v vs %+v", a, b)
	}
}

// TestRunSteadyStateAllocs pins the per-run allocation count once the
// latency pool is warm, at a profiled VM's 8 servers. The residual
// allocations are the RNG, the free-server heap, the boxed sampler and
// Result plumbing — not the Requests-sized latency buffer or a
// percentile copy, which the pool and single-sort Summarize eliminated.
func TestRunSteadyStateAllocs(t *testing.T) {
	assertSteadyStateAllocs(t, Config{Servers: 8, ArrivalRate: 1500, Service: LogNormal{0.004, 1}, Requests: 8000, Seed: 21})
}

// TestBatchedRunSteadyStateAllocs holds the same bound at 512 servers,
// where the free-server heap is largest: its storage is sized once per
// run, so the count must not grow with the server count.
func TestBatchedRunSteadyStateAllocs(t *testing.T) {
	assertSteadyStateAllocs(t, Config{Servers: 512, ArrivalRate: 0.8 * Capacity(512, LogNormal{0.004, 1}), Service: LogNormal{0.004, 1}, Requests: 8000, Seed: 21})
}

func assertSteadyStateAllocs(t *testing.T, cfg Config) {
	t.Helper()
	if _, err := Run(cfg); err != nil { // warm the pool
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Errorf("%d servers: steady-state Run allocates %.1f times, want <= 8", cfg.Servers, avg)
	}
}

func TestCurveContextMatchesCurve(t *testing.T) {
	pts1, err := Curve(8, LogNormal{0.004, 1}, 0.1, 1.0, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	pts2, err := CurveContext(context.Background(), Config{Servers: 8, Service: LogNormal{0.004, 1}, Seed: 7}, 0.1, 1.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts1) != len(pts2) {
		t.Fatalf("length mismatch: %d vs %d", len(pts1), len(pts2))
	}
	for i := range pts1 {
		if pts1[i] != pts2[i] {
			t.Errorf("point %d: Curve %+v vs CurveContext %+v", i, pts1[i], pts2[i])
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Servers: 8, ArrivalRate: 1000, Service: LogNormal{0.004, 1}, Requests: 20000, Seed: 1}
	if _, err := CurveContext(ctx, cfg, 0.1, 1.0, 4); err == nil {
		t.Error("CurveContext ignored a cancelled context")
	}
	if _, err := KneeSearch(ctx, cfg, 0.5, 1.2, 0.05); err == nil {
		t.Error("KneeSearch ignored a cancelled context")
	}
}

func TestKneeSearchFindsKnee(t *testing.T) {
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1}, Requests: 30000, Seed: 5}
	k, err := KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Found {
		t.Fatal("knee not found in [0.5, 1.3] although the bracket spans capacity")
	}
	if k.KneeFrac <= k.StableFrac {
		t.Fatalf("knee %.3f not above last stable point %.3f", k.KneeFrac, k.StableFrac)
	}
	if k.KneeFrac-k.StableFrac > 0.02+1e-9 {
		t.Fatalf("bracket width %.4f above tolerance 0.02", k.KneeFrac-k.StableFrac)
	}
	if k.KneeFrac < 0.8 || k.KneeFrac > 1.3 {
		t.Fatalf("knee at %.3f of capacity, expected near 1.0", k.KneeFrac)
	}
	// The adaptive search's point: a fixed-step sweep at the same
	// resolution needs (1.3-0.5)/0.02 = 40 evaluations.
	if fixed := int((1.3 - 0.5) / 0.02); k.Evals >= fixed {
		t.Errorf("knee search used %d evals, fixed-step needs %d", k.Evals, fixed)
	}
	if k.StableP95 <= 0 {
		t.Errorf("stable P95 = %v, want positive", k.StableP95)
	}
}

func TestKneeSearchStableBracket(t *testing.T) {
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1}, Requests: 30000, Seed: 5}
	k, err := KneeSearch(context.Background(), cfg, 0.2, 0.6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k.Found {
		t.Fatalf("knee reported at %.3f inside an all-stable bracket", k.KneeFrac)
	}
	if k.StableFrac != 0.6 {
		t.Fatalf("stable frac = %v, want the bracket top 0.6", k.StableFrac)
	}
	if k.Evals != 2 {
		t.Errorf("all-stable bracket took %d evals, want exactly 2 (endpoints)", k.Evals)
	}
}

func TestKneeSearchValidation(t *testing.T) {
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1}, Seed: 1}
	ctx := context.Background()
	if _, err := KneeSearch(ctx, cfg, 0, 1, 0.05); err == nil {
		t.Error("accepted loFrac = 0")
	}
	if _, err := KneeSearch(ctx, cfg, 0.9, 0.5, 0.05); err == nil {
		t.Error("accepted hiFrac < loFrac")
	}
	if _, err := KneeSearch(ctx, cfg, 0.5, 1.2, 0); err == nil {
		t.Error("accepted zero tolerance")
	}
	if _, err := KneeSearch(ctx, Config{Service: LogNormal{0.004, 1}}, 0.5, 1.2, 0.05); err == nil {
		t.Error("accepted zero servers")
	}
}

func BenchmarkKneeSearch(b *testing.B) {
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1}, Requests: 20000, Seed: 5}
	for i := 0; i < b.N; i++ {
		if _, err := KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunReferenceSampling(b *testing.B) {
	cfg := Config{
		Servers:     12,
		ArrivalRate: 2500,
		Service:     LogNormal{MeanSeconds: 0.004, CV: 1},
		Requests:    20000,
		Seed:        2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunOracle(context.Background(), cfg, true); err != nil {
			b.Fatal(err)
		}
	}
}
