package queueing

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runOracle(t *testing.T, cfg Config, referenceSampling bool) Result {
	t.Helper()
	res, err := RunOracle(context.Background(), cfg, referenceSampling)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMM1AgainstTheory(t *testing.T) {
	// M/M/1 at rho=0.5 with E[S]=1ms: mean response time
	// = S/(1-rho) = 2 ms.
	res := run(t, Config{
		Servers:     1,
		ArrivalRate: 500,
		Service:     Exponential{MeanSeconds: 0.001},
		Requests:    200000,
		Seed:        1,
	})
	if math.Abs(res.Mean-0.002) > 0.0002 {
		t.Fatalf("M/M/1 mean = %v s, want ~0.002", res.Mean)
	}
	if res.Saturated {
		t.Fatal("rho=0.5 should not saturate")
	}
	// p95 of M/M/1 response time: -ln(0.05) * mean = 3.0 * 2ms ≈ 6ms.
	if math.Abs(res.P95-0.006) > 0.0008 {
		t.Fatalf("M/M/1 p95 = %v s, want ~0.006", res.P95)
	}
}

func TestMMkLowLoadLatencyNearService(t *testing.T) {
	// At 10% load on 8 servers, waiting is negligible: p50 near the
	// service median.
	res := run(t, Config{
		Servers:     8,
		ArrivalRate: 0.1 * Capacity(8, Exponential{0.005}),
		Service:     Exponential{MeanSeconds: 0.005},
		Requests:    50000,
		Seed:        2,
	})
	// Exponential median = ln(2) * mean ≈ 3.47 ms.
	if math.Abs(res.P50-0.00347) > 0.0005 {
		t.Fatalf("low-load p50 = %v, want ~0.0035", res.P50)
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	// The hockey-stick: p95 grows with offered load.
	s := LogNormal{MeanSeconds: 0.004, CV: 1}
	prev := 0.0
	for _, frac := range []float64{0.3, 0.6, 0.9, 0.98} {
		res := run(t, Config{
			Servers:     8,
			ArrivalRate: frac * Capacity(8, s),
			Service:     s,
			Requests:    60000,
			Seed:        3,
		})
		if res.P95 <= prev {
			t.Fatalf("p95 at %.0f%% load (%v) not above previous (%v)", frac*100, res.P95, prev)
		}
		prev = res.P95
	}
}

func TestSaturationDetected(t *testing.T) {
	s := Exponential{MeanSeconds: 0.002}
	res := run(t, Config{
		Servers:     4,
		ArrivalRate: 1.2 * Capacity(4, s),
		Service:     s,
		Requests:    30000,
		Seed:        4,
	})
	if !res.Saturated {
		t.Fatal("overload at 120% of capacity not flagged as saturated")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Servers: 8, ArrivalRate: 1000, Service: LogNormal{0.004, 0.8}, Requests: 20000, Seed: 5}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.P95 != b.P95 || a.Mean != b.Mean {
		t.Fatal("identical configs diverged")
	}
}

func TestMoreServersLowerLatency(t *testing.T) {
	// The scaling mechanism behind the paper's 8 -> 10 -> 12 core
	// scaling: same offered load, more cores, lower tail latency.
	s := LogNormal{MeanSeconds: 0.004, CV: 1}
	load := 0.92 * Capacity(8, s)
	var prev float64 = math.Inf(1)
	for _, k := range []int{8, 10, 12} {
		res := run(t, Config{Servers: k, ArrivalRate: load, Service: s, Requests: 60000, Seed: 6})
		if res.P95 >= prev {
			t.Fatalf("p95 with %d servers (%v) not below previous (%v)", k, res.P95, prev)
		}
		prev = res.P95
	}
}

func TestLogNormalMoments(t *testing.T) {
	d := LogNormal{MeanSeconds: 0.01, CV: 0.5}
	r := newTestRNG()
	var sum, ss float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		sum += v
		ss += v * v
	}
	mean := sum / n
	cv := math.Sqrt(ss/n-mean*mean) / mean
	if math.Abs(mean-0.01) > 0.0005 {
		t.Fatalf("LogNormal mean = %v, want 0.01", mean)
	}
	if math.Abs(cv-0.5) > 0.03 {
		t.Fatalf("LogNormal CV = %v, want 0.5", cv)
	}
}

func TestLogNormalZeroCV(t *testing.T) {
	d := LogNormal{MeanSeconds: 0.01, CV: 0}
	if got := d.Sample(newTestRNG()); got != 0.01 {
		t.Fatalf("CV=0 sample = %v, want deterministic 0.01", got)
	}
}

func TestCapacity(t *testing.T) {
	if got := Capacity(8, Exponential{0.004}); got != 2000 {
		t.Fatalf("Capacity = %v, want 2000", got)
	}
}

func TestCurveShape(t *testing.T) {
	pts, err := Curve(8, LogNormal{0.004, 1}, 0.1, 1.0, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	if pts[len(pts)-1].P95 < 3*pts[0].P95 {
		t.Fatalf("curve knee missing: p95 %v -> %v", pts[0].P95, pts[len(pts)-1].P95)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].QPS <= pts[i-1].QPS {
			t.Fatal("QPS not increasing along curve")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Servers: 0, ArrivalRate: 1, Service: Exponential{0.001}},
		{Servers: 1, ArrivalRate: 0, Service: Exponential{0.001}},
		{Servers: 1, ArrivalRate: 1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: Run accepted invalid config", i)
		}
	}
	if _, err := Curve(1, Exponential{0.001}, 0.1, 1, 1, 0); err == nil {
		t.Error("Curve accepted a single step")
	}
}

func TestPropertyUtilizationMatchesInputs(t *testing.T) {
	f := func(seed uint64) bool {
		r := newTestRNGSeed(seed)
		k := 1 + r.Intn(16)
		mean := 0.001 + r.Float64()*0.01
		frac := 0.1 + r.Float64()*0.8
		s := Exponential{MeanSeconds: mean}
		res, err := Run(Config{
			Servers:     k,
			ArrivalRate: frac * Capacity(k, s),
			Service:     s,
			Requests:    2000,
			Seed:        seed,
		})
		if err != nil {
			return false
		}
		return math.Abs(res.Utilization-frac) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
