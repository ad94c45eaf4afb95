package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/core"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/server"
	"github.com/greensku/gsf/internal/server/api"
	"github.com/greensku/gsf/internal/trace"
)

// serveParams sizes the serve-evaluate workload. A run is rounds
// rounds, each an open-loop block followed by a closed-loop block, so
// a host slowdown of a few seconds spoils one round's figures and the
// medians across rounds stay put.
type serveParams struct {
	rounds     int           // open-loop then closed-loop rounds per run
	openLoop   int           // open-loop requests per round, sent on a fixed schedule
	rate       float64       // open-loop rate, requests/s
	hitEvery   int           // every hitEvery-th open-loop request repeats a completed key
	minClosed  int           // closed-loop requests per round, at least
	arrivalsPH float64       // workload arrival rate of every request
	horizonH   float64       // workload horizon of every request
	samples    int           // open-loop misses checked against a direct EvaluateContext
	setups     int           // set-ups timed for setup_s
	limit      time.Duration // latency limit for slo_attainment
}

// serveDefaults is the benchmark's serve-evaluate load on a 2-vCPU
// host: a miss costs 30-45 ms of one core as the host's load varies,
// so two workers complete 40-60 misses/s and the open loop offers
// about half the lower figure. 100 open-loop requests a round leave ten
// samples beyond each round's p90; five rounds send at least 1000
// requests.
func serveDefaults() serveParams {
	return serveParams{
		rounds:     5,
		openLoop:   100,
		rate:       20,
		hitEvery:   5,
		minClosed:  100,
		arrivalsPH: 24,
		horizonH:   48,
		samples:    8,
		setups:     9,
		limit:      500 * time.Millisecond,
	}
}

// hitLag is how many requests back a repeated key reaches, so its miss
// has long completed.
const hitLag = 21

// discardHandler drops every log record before it is formatted.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// gsfd is an in-process gsfd on a loopback listener.
type gsfd struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startGSFD(workers int) (*gsfd, error) {
	srv, err := server.New(server.Config{Workers: workers, Logger: slog.New(discardHandler{})})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	g := &gsfd{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
	}
	go func() { g.served <- g.hs.Serve(ln) }()
	return g, nil
}

// stop shuts the listener, drains the worker pool and waits for the
// serving goroutine to return.
func (g *gsfd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := g.hs.Shutdown(ctx)
	g.srv.Close()
	if serr := <-g.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	g.client.CloseIdleConnections()
	return err
}

// reply is one request's outcome.
type reply struct {
	status int
	cache  string
	body   []byte
	err    error
}

func (g *gsfd) post(ctx context.Context, body []byte) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get(api.HeaderCache), body: b, err: err}
}

// scrape reads /metrics into sample values summed over labels, keeping
// only the /v1/evaluate series of the request counter.
func (g *gsfd) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			if !strings.Contains(name, `endpoint="/v1/evaluate"`) && strings.HasPrefix(name, "gsfd_http_requests") {
				continue
			}
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// workloadSpec is the generated trace one request names.
func (p serveParams) workloadSpec(seed uint64) api.WorkloadSpec {
	return api.WorkloadSpec{Name: "bench", Seed: seed, ArrivalsPerHour: p.arrivalsPH, HorizonHours: p.horizonH}
}

func (p serveParams) body(seed uint64) []byte {
	b, err := json.Marshal(api.EvaluateRequest{Green: "GreenSKU-Full", Workload: p.workloadSpec(seed)})
	if err != nil {
		panic(err) // a fixed struct of strings and numbers always marshals
	}
	return b
}

// Request seeds: the open loop's i-th request and the closed loop's
// j-th draw from disjoint ranges under the run seed, so every miss is
// a distinct key; warmSeed is the set-up's warm-up key.
func openSeed(run int64, i int) uint64   { return uint64(run)<<32 | uint64(i) }
func closedSeed(run int64, j int) uint64 { return uint64(run)<<32 | 1<<31 | uint64(j) }
func warmSeed(run int64) uint64          { return uint64(run)<<32 | 1<<30 }

// setupServe starts gsfd from a cold process state and sends one
// warm-up request, which profiles the green SKU.
func setupServe(ctx context.Context, p serveParams, seed int64, workers int) (*gsfd, error) {
	perf.ResetSLOCache()
	g, err := startGSFD(workers)
	if err != nil {
		return nil, err
	}
	r := g.post(ctx, p.body(warmSeed(seed)))
	if r.err != nil || r.status != http.StatusOK {
		g.stop()
		return nil, fmt.Errorf("warm-up request: status %d: %v %s", r.status, r.err, r.body)
	}
	return g, nil
}

// sent is one request's record.
type sent struct {
	round     int
	seed      uint64
	hitOf     int // index of the open-loop miss this request repeats, -1 for a miss
	due, send time.Time
	done      time.Time
	reply
}

// serveRun is what one load run measured.
type serveRun struct {
	open       []sent
	closed     []sent          // closed-loop requests; due is their send time
	closedWall []time.Duration // per round
}

// runLoad drives p.rounds rounds of an open-loop block then a
// closed-loop block, splitting the window evenly between rounds. The
// open loop's due times are fixed in advance; nproc clients take
// requests as they fall due, so a stall makes later requests late, and
// that lateness counts in their latency. The closed loop's nproc
// clients send distinct misses back to back until the round's share of
// the window is spent and minClosed were sent.
func runLoad(ctx context.Context, post func(context.Context, []byte) reply, p serveParams, seed int64, workers int, window time.Duration) serveRun {
	run := serveRun{open: make([]sent, p.rounds*p.openLoop)}
	for i := range run.open {
		run.open[i].round, run.open[i].seed, run.open[i].hitOf = i/p.openLoop, openSeed(seed, i), -1
		if p.hitEvery > 0 && i%p.hitEvery == p.hitEvery-1 && i >= hitLag {
			run.open[i].hitOf = i - hitLag
		}
	}
	done := make([]atomic.Bool, len(run.open))
	gap := time.Duration(float64(time.Second) / p.rate)
	start := time.Now()
	closedSent := 0
	for r := 0; r < p.rounds; r++ {
		block := run.open[r*p.openLoop : (r+1)*p.openLoop]
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for c := 0; c < workers; c++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					s := &run.open[i]
					s.send = time.Now()
					s.reply = post(ctx, p.body(s.seed))
					s.done = time.Now()
					done[i].Store(true)
				}
			}()
		}
		blockStart := time.Now().Add(time.Millisecond)
		for k := range block {
			i := r*p.openLoop + k
			s := &run.open[i]
			s.due = blockStart.Add(time.Duration(k) * gap)
			if s.hitOf >= 0 {
				// Repeat the latest earlier miss that has completed.
				for j := s.hitOf; j >= 0; j-- {
					if run.open[j].hitOf < 0 && done[j].Load() {
						s.hitOf, s.seed = j, run.open[j].seed
						break
					}
				}
			}
			time.Sleep(time.Until(s.due))
			jobs <- i
		}
		close(jobs)
		wg.Wait()

		deadline := start.Add(window * time.Duration(r+1) / time.Duration(p.rounds))
		closedStart := time.Now()
		var next atomic.Int64
		perClient := make([][]sent, workers)
		wg.Add(workers)
		for c := 0; c < workers; c++ {
			c := c
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= p.minClosed && time.Now().After(deadline) {
						return
					}
					s := sent{round: r, seed: closedSeed(seed, closedSent+j), hitOf: -1, due: time.Now()}
					s.send = s.due
					s.reply = post(ctx, p.body(s.seed))
					s.done = time.Now()
					perClient[c] = append(perClient[c], s)
				}
			}()
		}
		wg.Wait()
		run.closedWall = append(run.closedWall, time.Since(closedStart))
		for _, ss := range perClient {
			run.closed = append(run.closed, ss...)
			closedSent += len(ss)
		}
	}
	return run
}

// checkReply decodes a 200 evaluate response for the seed it asked for.
func checkReply(r reply, seed uint64) (api.EvaluateResponse, bool) {
	var resp api.EvaluateResponse
	if r.err != nil || r.status != http.StatusOK {
		return resp, false
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return resp, false
	}
	return resp, resp.Workload.Seed == seed
}

// verifyLoad counts failed requests: errors and non-200s, responses
// for the wrong workload, and hits not byte-identical to their miss.
func verifyLoad(run serveRun) int {
	failed := 0
	for _, s := range append(run.open[:len(run.open):len(run.open)], run.closed...) {
		if _, ok := checkReply(s.reply, s.seed); !ok {
			failed++
			continue
		}
		if s.hitOf >= 0 && !bytes.Equal(s.body, run.open[s.hitOf].body) {
			failed++
		}
	}
	return failed
}

// sampleInputs rebuilds, outside the timed window, the evaluation
// inputs of the first n open-loop misses exactly as gsfd builds them.
func sampleInputs(p serveParams, run serveRun, n int) ([]core.Input, []int, error) {
	var ins []core.Input
	var idx []int
	for i, s := range run.open {
		if len(ins) == n {
			break
		}
		if s.hitOf >= 0 {
			continue
		}
		spec := p.workloadSpec(s.seed)
		gp := trace.DefaultParams(spec.Name, spec.Seed)
		gp.ArrivalsPerHour, gp.HorizonHours = spec.ArrivalsPerHour, spec.HorizonHours
		tr, err := trace.Generate(gp)
		if err != nil {
			return nil, nil, err
		}
		ins = append(ins, core.Input{Green: hw.GreenSKUFull(), Baseline: hw.BaselineGen3(), Workload: tr})
		idx = append(idx, i)
	}
	return ins, idx, nil
}

// verifySample evaluates the sample directly through EvaluateContext
// and counts responses that differ from it.
func verifySample(ctx context.Context, m *carbon.Model, run serveRun, ins []core.Input, idx []int) (int, error) {
	f := core.New(m)
	bad := 0
	for k, in := range ins {
		in.CI = m.Data.DefaultCI
		ev, err := f.EvaluateContext(ctx, in)
		if err != nil {
			return 0, err
		}
		want := api.EvaluateResponse{
			Dataset: m.Data.Name, Green: in.Green.Name, Baseline: in.Baseline.Name, CI: in.CI,
			PerCoreGreen: ev.PerCoreGreen.Total(), PerCoreBase: ev.PerCoreBase.Total(),
			PerCoreSavings: ev.PerCoreSavings.Total, ClusterSavings: ev.ClusterSavings, DCSavings: ev.DCSavings,
		}
		want.Workload.Name, want.Workload.Seed, want.Workload.VMs = in.Workload.Name, run.open[idx[k]].seed, len(in.Workload.VMs)
		want.Cluster.BaselineOnly = ev.Mix.BaselineOnly
		want.Cluster.BaseServers = ev.Buffered.Mix.NBase
		want.Cluster.GreenServers = ev.Buffered.Mix.NGreen
		want.Cluster.BufferServers = ev.Buffered.BufferServers
		got, ok := checkReply(run.open[idx[k]].reply, want.Workload.Seed)
		if !ok || !reflect.DeepEqual(got, roundTrip(want)) {
			bad++
		}
	}
	return bad, nil
}

// roundTrip passes a response through its wire form, as the client
// sees it.
func roundTrip(r api.EvaluateResponse) api.EvaluateResponse {
	var out api.EvaluateResponse
	b, err := json.Marshal(r)
	if err == nil {
		err = json.Unmarshal(b, &out)
	}
	if err != nil {
		panic(err) // a response struct always round-trips
	}
	return out
}

func runServe(ctx context.Context, o options, out io.Writer, p serveParams) (result, error) {
	workers := nproc()
	g, setupS, err := timedSetups(p.setups,
		func() (*gsfd, error) { return setupServe(ctx, p, o.seed, workers) },
		func(g *gsfd) error { return g.stop() })
	if err != nil {
		return result{}, err
	}
	run := runLoad(ctx, g.post, p, o.seed, workers, o.window)
	var scraped map[string]float64
	if o.traced {
		scraped, err = g.scrape(ctx)
	}
	if serr := g.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return result{}, err
	}
	failed := verifyLoad(run)
	m, err := openSourceModel()
	if err != nil {
		return result{}, err
	}
	ins, idx, err := sampleInputs(p, run, p.samples)
	if err != nil {
		return result{}, err
	}
	bad, err := verifySample(ctx, m, run, ins, idx)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: len(run.open) + len(run.closed), Failed: failed + bad, Metrics: metrics{}}

	// Latency per round, from each request's due time; the reported
	// figures are medians across rounds.
	var lat, hitLat, missLat, lag []float64
	roundLat := make([][]float64, p.rounds)
	roundOK := make([]int, p.rounds)
	met := 0
	for _, s := range run.open {
		lag = append(lag, s.send.Sub(s.due).Seconds())
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		l := s.done.Sub(s.due)
		lat = append(lat, l.Seconds())
		roundLat[s.round] = append(roundLat[s.round], l.Seconds())
		if l <= p.limit {
			met++
		}
		if s.cache == "hit" {
			hitLat = append(hitLat, s.done.Sub(s.send).Seconds())
		} else {
			missLat = append(missLat, s.done.Sub(s.send).Seconds())
		}
	}
	for _, s := range run.closed {
		if s.err == nil && s.status == http.StatusOK {
			roundOK[s.round]++
		}
	}
	var p50s, p90s, rates []float64
	for r := range roundLat {
		p50s = append(p50s, percentile(roundLat[r], 50))
		p90s = append(p90s, percentile(roundLat[r], 90))
		rates = append(rates, float64(roundOK[r])/run.closedWall[r].Seconds())
	}
	fmt.Fprintf(out, "serve-evaluate: %d rounds of %d open-loop requests at %.0f/s (%d hits in all) and a closed loop with %d clients (%d requests in all)\n",
		p.rounds, p.openLoop, p.rate, len(hitLat), workers, len(run.closed))
	fmt.Fprintf(out, "per round: p50 from due %.4g s, p90 from due %.4g s, closed-loop %.4g evaluations/s\n", p50s, p90s, rates)
	tail := tailPercentile(len(lat))
	fmt.Fprintf(out, "all open-loop requests, latency from due time over %d samples:", len(lat))
	for _, q := range []float64{50, 90, 95, 98, 99, 100} {
		fmt.Fprintf(out, " p%g %.4f", q, percentile(lat, q))
	}
	fmt.Fprintf(out, " s (highest with ten beyond: p%g); miss p50 from send %.4f s\n", tail, percentile(missLat, 50))

	if !o.traced {
		res.Correct = res.Failed == 0
		res.Metrics.set("setup_s", setupS, "s")
		res.Metrics.set("evals_per_s", median(rates), "1/s")
		res.Metrics.set("latency_p50_s", median(p50s), "s")
		res.Metrics.set("slo_attainment", float64(met)/float64(len(run.open)), "ratio")
		res.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
		return res, nil
	}

	lr, err := traceEvaluations(ctx, func() *core.Framework {
		f := core.New(m)
		f.Workers = workers
		return f
	}, ins)
	if err != nil {
		return result{}, err
	}
	res.Attempted += lr.evaluations
	res.Failed += lr.mismatches
	res.Correct = res.Failed == 0
	lr.layerMetrics(res.Metrics)
	res.Metrics.set("server.hit_p50_s", percentile(hitLat, 50), "s")
	res.Metrics.set("server.miss_p50_s", percentile(missLat, 50), "s")
	res.Metrics.set("server.cache_hit_ratio", ratio(scraped["gsfd_cache_hits_total"],
		scraped["gsfd_cache_hits_total"]+scraped["gsfd_cache_misses_total"]), "ratio")
	res.Metrics.set("server.shed_429", scraped["gsfd_shed_requests_total"], "count")
	res.Metrics.set("server.requests_total", scraped["gsfd_http_requests_total"], "count")
	res.Metrics.set("loadgen.lag_p98_s", percentile(lag, 98), "s")
	return res, nil
}

// zeroServeLayers reports the server and load-generator layers as idle
// on workloads that do not serve.
func zeroServeLayers(m metrics) {
	for _, name := range []string{"server.hit_p50_s", "server.miss_p50_s", "loadgen.lag_p98_s"} {
		m.set(name, 0, "s")
	}
	m.set("server.cache_hit_ratio", 0, "ratio")
	m.set("server.shed_429", 0, "count")
	m.set("server.requests_total", 0, "count")
}
