// Command perfbench is GSF's repeatable end-to-end benchmark. It drives
// three workloads through the public entry points — core.Framework's
// EvaluateAll and gsfd's POST /v1/evaluate served in-process — checks
// every output against an oracle, and prints one JSON result as the
// last line of standard output:
//
//	perfbench --workload sizing35 --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced. With --trace 1 a separate run replays every evaluation
// stage by stage, recording one span per layer call from this package,
// and the result carries the per-layer metrics. The exit code is
// non-zero when any output disagrees with its oracle.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
}

var workloads = map[string]func(context.Context, options, io.Writer) (result, error){
	"sizing35": func(ctx context.Context, o options, w io.Writer) (result, error) {
		return runBatch(ctx, o, w, sizingParams())
	},
	"design-screen": func(ctx context.Context, o options, w io.Writer) (result, error) {
		return runBatch(ctx, o, w, screenParams())
	},
	"serve-evaluate": func(ctx context.Context, o options, w io.Writer) (result, error) {
		return runServe(ctx, o, w, serveDefaults())
	},
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var secs float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: sizing35, design-screen or serve-evaluate")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&secs, "seconds", 35, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, sortedKeys(workloads))
	}
	if secs <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", secs)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.window = time.Duration(secs * float64(time.Second))
	o.traced = trace == 1
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := workloads[o.workload](context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	env, err := json.Marshal(map[string]any{"workload": o.workload, "seed": o.seed, "traced": o.traced, "env": environment()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(env))
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Printf("%-28s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("attempted %d, failed %d (error rate %.4g)\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs disagree with the oracle")
		os.Exit(1)
	}
}

// timedSetups runs setup n times and returns the last workload with
// the median set-up time; release, if set, frees each earlier one.
func timedSetups[W any](n int, setup func() (W, error), release func(W) error) (W, float64, error) {
	var w W
	var times []float64
	for k := 0; k < n; k++ {
		if k > 0 && release != nil {
			if err := release(w); err != nil {
				return w, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if w, err = setup(); err != nil {
			return w, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, median(times), nil
}

func runBatch(ctx context.Context, o options, out io.Writer, p batchParams) (result, error) {
	workers := nproc()
	setup := func() (*batchWorkload, error) {
		if o.workload == "sizing35" {
			return setupSizing35(ctx, p, workers)
		}
		return setupDesignScreen(ctx, p, o.seed, workers)
	}
	if o.traced {
		w, err := setup()
		if err != nil {
			return result{}, err
		}
		return tracedBatch(ctx, out, w)
	}
	w, setupS, err := timedSetups(p.setups, setup, nil)
	if err != nil {
		return result{}, err
	}
	run := runPasses(ctx, w, o.window)
	bad := verifyBatch(out, w, run)
	res := result{Attempted: run.attempted, Failed: run.failed + bad*len(run.passes), Metrics: metrics{}}
	res.Correct = res.Failed == 0

	var walls, rates []float64
	attained := 0
	for k, d := range run.passes {
		walls = append(walls, d.Seconds())
		rates = append(rates, float64(len(w.inputs))/d.Seconds())
		if d <= p.passLimit {
			attained += len(w.inputs) - run.passFailed[k] - bad
		}
	}
	fmt.Fprintf(out, "%s: %d passes of %d evaluations (%d VMs per pass, %.0f VMs per evaluation), pass seconds %.4g\n",
		w.name, len(run.passes), len(w.inputs), w.vms, float64(w.vms)/float64(len(w.inputs)), walls)
	res.Metrics.set("setup_s", setupS, "s")
	res.Metrics.set("evals_per_s", median(rates), "1/s")
	res.Metrics.set("latency_p50_s", median(walls), "s")
	res.Metrics.set("slo_attainment", ratio(float64(max(attained, 0)), float64(res.Attempted)), "ratio")
	res.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

// stageSumTolerance bounds how far, on the batch workloads, the stage
// self-times of an evaluation may sum from its EvaluateContext wall
// time (core.stage_sum_ratio, a median over evaluations).
const stageSumTolerance = 0.05

func tracedBatch(ctx context.Context, out io.Writer, w *batchWorkload) (result, error) {
	lr, err := traceEvaluations(ctx, w.newFramework, w.submission())
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: lr.evaluations, Failed: lr.mismatches, Metrics: metrics{}}
	lr.layerMetrics(res.Metrics)
	zeroServeLayers(res.Metrics)
	r := res.Metrics["core.stage_sum_ratio"].Value
	if r < 1-stageSumTolerance || r > 1+stageSumTolerance {
		fmt.Fprintf(out, "stage self-times sum to %.4f of EvaluateContext wall, outside 1±%.2f\n", r, stageSumTolerance)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	return res, nil
}
