package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/greensku/gsf/internal/core"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {999, 98}, {500, 98}, {499, 95}, {200, 95}, {100, 90}, {20, 50}, {19, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-1-rankIndex(p, c.n) < 10 {
			t.Errorf("n=%d: p%v leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(500 - i) // 1..500, unsorted
	}
	if got := percentile(xs, 98); got != 490 {
		t.Errorf("p98 of 1..500 = %v, want 490 (ten samples beyond)", got)
	}
	if got := percentile(xs, 50); got != 250 {
		t.Errorf("p50 of 1..500 = %v, want 250", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestOpenLoopFromDueTime drives the open loop against a server slower
// than the schedule: the single client falls behind, so requests are
// sent late, and their latency must count the lateness.
func TestOpenLoopFromDueTime(t *testing.T) {
	p := serveParams{rounds: 1, openLoop: 12, rate: 200, minClosed: 1, arrivalsPH: 1, horizonH: 1}
	const service = 15 * time.Millisecond
	post := func(ctx context.Context, body []byte) reply {
		time.Sleep(service)
		return reply{status: 200}
	}
	run := runLoad(context.Background(), post, p, 1, 1, time.Millisecond)
	gap := time.Second / 200
	for i, s := range run.open {
		if want := run.open[0].due.Add(time.Duration(i) * gap); !s.due.Equal(want) {
			t.Fatalf("request %d due %v, want the fixed schedule's %v", i, s.due, want)
		}
		if s.send.Before(s.due) {
			t.Errorf("request %d sent before it was due", i)
		}
		if s.done.Sub(s.due) < s.done.Sub(s.send) {
			t.Errorf("request %d: latency from due shorter than from send", i)
		}
	}
	last := run.open[len(run.open)-1]
	if lag := last.send.Sub(last.due); lag < 5*(service-gap) {
		t.Errorf("last request only %v late behind a %v/request server on a %v schedule", lag, service, gap)
	}
	if len(run.closed) < p.minClosed {
		t.Errorf("closed loop sent %d requests, want at least %d", len(run.closed), p.minClosed)
	}
}

func tinySizing() batchParams { return batchParams{traces: 2, setups: 1} }

func tinyScreen() batchParams {
	return batchParams{every: 200, candidates: 3, horizonH: 24, arrivalsPH: 2, setups: 1}
}

func tinyServe() serveParams {
	return serveParams{rounds: 2, openLoop: 15, rate: 40, hitEvery: 5, minClosed: 3, arrivalsPH: 4, horizonH: 24,
		samples: 2, setups: 1, limit: 5 * time.Second}
}

func passDigest(t *testing.T, setup func() (*batchWorkload, error)) string {
	t.Helper()
	w, err := setup()
	if err != nil {
		t.Fatal(err)
	}
	run := runPasses(context.Background(), w, time.Nanosecond)
	if run.failed != 0 {
		t.Fatalf("%s: %d failed evaluations", w.name, run.failed)
	}
	return combineDigests(run.digests)
}

// TestDigestStable runs each batch workload twice from scratch, with
// different worker counts and, for design-screen, different seeds, and
// requires the same output digest.
func TestDigestStable(t *testing.T) {
	ctx := context.Background()
	a := passDigest(t, func() (*batchWorkload, error) { return setupSizing35(ctx, tinySizing(), 2) })
	b := passDigest(t, func() (*batchWorkload, error) { return setupSizing35(ctx, tinySizing(), 1) })
	if a != b {
		t.Errorf("sizing digests differ across runs: %s vs %s", a, b)
	}
	a = passDigest(t, func() (*batchWorkload, error) { return setupDesignScreen(ctx, tinyScreen(), 5, 2) })
	b = passDigest(t, func() (*batchWorkload, error) { return setupDesignScreen(ctx, tinyScreen(), 6, 1) })
	if a != b {
		t.Errorf("design-screen digests differ across runs: %s vs %s", a, b)
	}
	ev := core.Evaluation{ClusterSavings: 0.25}
	moved := ev
	moved.Mix.NGreen = 1
	if evalDigest(ev) == evalDigest(moved) {
		t.Error("digest ignores the sized mix")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke tests check
// the program against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkMetrics(t *testing.T, label string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", label, m.Name, v.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		sort.Strings(names)
		t.Errorf("%s: reported %v, want exactly %v", label, sortedKeys(got), names)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks each reports exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	ctx := context.Background()
	run := map[string]func(options) (result, error){
		"sizing35":       func(o options) (result, error) { return runBatch(ctx, o, io.Discard, tinySizing()) },
		"design-screen":  func(o options) (result, error) { return runBatch(ctx, o, io.Discard, tinyScreen()) },
		"serve-evaluate": func(o options) (result, error) { return runServe(ctx, o, io.Discard, tinyServe()) },
	}
	if len(spec.Workloads) != len(run) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(run))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl.Name, seed: 3, window: 200 * time.Millisecond, traced: traced}
			res, err := run[wl.Name](o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%v: nothing attempted", wl.Name, traced)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if traced && wl.Name != "serve-evaluate" {
				// A tiny batch is too short for the stage-sum
				// tolerance; exactness is what the smoke run checks.
				res.Failed -= stageSumFailure(res.Metrics)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", wl.Name, traced, res.Failed, res.Attempted)
			}
			checkMetrics(t, wl.Name, res.Metrics, want)
		}
	}
}

func stageSumFailure(m metrics) int {
	r, ok := m["core.stage_sum_ratio"]
	if ok && (r.Value < 1-stageSumTolerance || r.Value > 1+stageSumTolerance) {
		return 1
	}
	return 0
}

// TestTracedReplayExact checks the stage-by-stage replay reproduces
// EvaluateContext exactly, profiling included.
func TestTracedReplayExact(t *testing.T) {
	w, err := setupDesignScreen(context.Background(), tinyScreen(), 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := traceEvaluations(context.Background(), w.newFramework, w.submission())
	if err != nil {
		t.Fatal(err)
	}
	if lr.mismatches != 0 {
		t.Errorf("%d of %d replays differ from EvaluateContext", lr.mismatches, lr.evaluations)
	}
	if lr.cacheMisses != int64(len(w.inputs)) || lr.decisions == 0 {
		t.Errorf("profile misses %d, decisions %d", lr.cacheMisses, lr.decisions)
	}
}

// TestSpanRecordingAllocs pins that recording a span allocates
// nothing within the room newRecorder reserves, so a traced stage's
// self-time carries no instrumentation garbage. The untraced
// measurement has no recorder and makes no span calls.
func TestSpanRecordingAllocs(t *testing.T) {
	rec := newRecorder(1001) // AllocsPerRun adds a warm-up call
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rec.begin(spanSize, -1, 0)
		rec.end(sp)
	})
	if allocs != 0 {
		t.Errorf("span begin/end allocates %v times", allocs)
	}
}

func TestSelfTimes(t *testing.T) {
	rec := &recorder{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 4},
		{Name: "b", Parent: 0, Start: 5, End: 9},
	}}
	got := rec.selfTimes()
	if got["root"] != 3 || got["a"] != 3 || got["b"] != 4 {
		t.Errorf("self times %v, want root 3, a 3, b 4", got)
	}
}
