// Command gsfd serves GSF evaluations over HTTP: per-core emissions,
// Table IV/VIII savings rows, and full framework evaluations, answered
// online from a worker pool with request deduplication and an exact
// result cache, and scraped through an OpenMetrics /metrics endpoint.
//
// Usage:
//
//	gsfd                              # listen on :8080
//	gsfd -addr :9090 -workers 8 -queue 128 -cache-ttl 5m
//	gsfd -audit                       # audit invariants on every evaluation
//	gsfd -rate 50 -burst 200          # per-client rate limiting
//	gsfd -self http://n1:8080 -peers http://n1:8080,http://n2:8080
//
// Endpoints (see docs/API.md for the full wire reference):
//
//	POST /v1/percore    per-core emissions for a SKU at a carbon intensity
//	POST /v1/savings    per-core savings of a SKU vs a baseline
//	POST /v1/evaluate   full framework evaluation over a synthetic workload
//	                    (accepts ci_series for a time-varying grid)
//	POST /v1/batch      many percore/savings/evaluate items, one response;
//	                    streams NDJSON or SSE when Accept asks for it
//	POST /v1/sweep      one green/baseline pair across many grid CIs
//	POST /v1/ciseries   validate a carbon-intensity timeseries and report
//	                    its statistics and effective CI
//	GET  /v1/skus       SKU catalog (sorted by name)
//	GET  /v1/datasets   dataset catalog (sorted by name)
//	GET  /v1/limits     operational limits (batch size, pool, rate, replicas)
//	GET  /metrics       OpenMetrics scrape
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 while draining)
//
// With -peers, replicas consistent-hash the evaluation keyspace and
// forward requests to the owning replica, so the fleet's caches
// partition instead of duplicating.
//
// On SIGINT/SIGTERM the daemon drains gracefully: /readyz flips to 503,
// the listener stops accepting connections, and in-flight evaluations
// get -drain (default 30s) to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/server"
)

// options is the parsed command line.
type options struct {
	addr  string
	drain time.Duration
	audit bool
	cfg   server.Config
}

// Connection timeouts. Idle keep-alive connections are reaped after
// idleTimeout. There is deliberately no write timeout: /v1/batch,
// /v1/sweep and /v1/design stream responses that may outlast any fixed
// bound, and per-request work is already capped by -timeout.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// parseFlags builds the daemon options from argv (split out of main for
// testing). Every error it returns has already been reported on
// stderr, either by the flag package or here.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("gsfd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "graceful shutdown timeout")
	fs.IntVar(&o.cfg.Workers, "workers", 0, "evaluation workers (0 = GOMAXPROCS)")
	fs.IntVar(&o.cfg.QueueDepth, "queue", 0, "request queue capacity (0 = default 64)")
	fs.IntVar(&o.cfg.CacheEntries, "cache-entries", 0, "result cache capacity (0 = default 1024)")
	fs.DurationVar(&o.cfg.CacheTTL, "cache-ttl", 0, "result cache TTL (0 = default 15m)")
	fs.DurationVar(&o.cfg.RequestTimeout, "timeout", 0, "per-request deadline (0 = default 30s)")
	fs.IntVar(&o.cfg.MaxBatchItems, "batch-max", 0, "max items per /v1/batch or /v1/sweep request (0 = default 256)")
	fs.IntVar(&o.cfg.MaxDesignCandidates, "design-max", 0, "max candidates per /v1/design search (0 = default 4096)")
	fs.Float64Var(&o.cfg.RatePerSec, "rate", 0, "per-client request rate limit in requests/s (0 = unlimited)")
	fs.IntVar(&o.cfg.RateBurst, "burst", 0, "per-client token-bucket burst (0 = 4x rate)")
	fs.StringVar(&o.cfg.SelfURL, "self", "", "this replica's advertised base URL (required with -peers)")
	peers := fs.String("peers", "", "comma-separated replica base URLs; turns on keyspace sharding")
	fs.BoolVar(&o.audit, "audit", false, "check runtime invariants on every evaluation; violations count in /metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments: %v", fs.Args())
		fmt.Fprintln(stderr, "gsfd:", err)
		return o, err
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				o.cfg.Peers = append(o.cfg.Peers, p)
			}
		}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	o.cfg.Logger = log
	if err := run(o, log); err != nil {
		log.Error("gsfd failed", "err", err)
		os.Exit(1)
	}
}

// newHTTPServer builds the daemon's listener with its connection
// timeouts.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(o options, log *slog.Logger) error {
	if o.audit {
		// One recorder for the whole process: the server threads it
		// through every framework, and installing it as the process
		// default also audits paths no explicit checker reaches (the
		// queueing runs inside memoized performance profiling).
		rec := audit.NewRecorder()
		audit.SetDefault(rec)
		o.cfg.Audit = rec
		log.Info("invariant auditing enabled")
	}
	s, err := server.New(o.cfg)
	if err != nil {
		return err
	}

	httpSrv := newHTTPServer(o.addr, s.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Info("gsfd listening", "addr", o.addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising readiness, stop the listener,
	// let in-flight requests finish, then drain the worker pool.
	log.Info("draining", "timeout", o.drain)
	s.SetReady(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	s.Close()
	log.Info("gsfd stopped")
	return err
}
