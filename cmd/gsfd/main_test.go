package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8080" {
		t.Errorf("addr %q", o.addr)
	}
	if o.drain != 30*time.Second {
		t.Errorf("drain %v", o.drain)
	}
	// Zero values defer to server.Config defaults.
	if o.cfg.Workers != 0 || o.cfg.QueueDepth != 0 {
		t.Errorf("pool flags not zero: %+v", o.cfg)
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	o, err := parseFlags([]string{
		"-addr", ":9090", "-workers", "8", "-queue", "128",
		"-cache-entries", "64", "-cache-ttl", "5m", "-timeout", "10s", "-drain", "1m",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":9090" || o.cfg.Workers != 8 || o.cfg.QueueDepth != 128 {
		t.Errorf("parsed %+v", o)
	}
	if o.cfg.CacheEntries != 64 || o.cfg.CacheTTL != 5*time.Minute {
		t.Errorf("cache flags %+v", o.cfg)
	}
	if o.cfg.RequestTimeout != 10*time.Second || o.drain != time.Minute {
		t.Errorf("timeouts %+v", o)
	}
}

func TestParseFlagsAudit(t *testing.T) {
	o, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.audit {
		t.Error("auditing on by default")
	}
	o, err = parseFlags([]string{"-audit"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.audit {
		t.Error("-audit not parsed")
	}
}

func TestParseFlagsRejectsPositionalArgs(t *testing.T) {
	var stderr strings.Builder
	if _, err := parseFlags([]string{"extra-arg"}, &stderr); err == nil {
		t.Error("positional argument accepted")
	}
	if got := stderr.String(); !strings.Contains(got, "unexpected arguments: [extra-arg]") {
		t.Errorf("stderr %q does not report the positional argument", got)
	}
}

// TestParseFlagsReportsFlagErrorsOnce: the flag package prints its own
// parse errors, and parseFlags must not print them a second time.
func TestParseFlagsReportsFlagErrorsOnce(t *testing.T) {
	var stderr strings.Builder
	if _, err := parseFlags([]string{"-no-such-flag"}, &stderr); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if n := strings.Count(stderr.String(), "flag provided but not defined"); n != 1 {
		t.Errorf("flag error printed %d times, want once:\n%s", n, stderr.String())
	}
}

// TestHTTPServerTimeouts pins the listener's timeouts: idle keep-alive
// connections are reaped, and no write timeout cuts off a streamed
// response.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v would cut off streamed responses", srv.WriteTimeout)
	}
}

func TestParseFlagsShardingAndRate(t *testing.T) {
	o, err := parseFlags([]string{
		"-rate", "50", "-burst", "200",
		"-self", "http://n1:8080",
		"-peers", "http://n1:8080, http://n2:8080,http://n3:8080,",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.RatePerSec != 50 || o.cfg.RateBurst != 200 {
		t.Errorf("rate flags %+v", o.cfg)
	}
	if o.cfg.SelfURL != "http://n1:8080" {
		t.Errorf("self %q", o.cfg.SelfURL)
	}
	want := []string{"http://n1:8080", "http://n2:8080", "http://n3:8080"}
	if len(o.cfg.Peers) != len(want) {
		t.Fatalf("peers %v, want %v", o.cfg.Peers, want)
	}
	for i := range want {
		if o.cfg.Peers[i] != want[i] {
			t.Errorf("peer %d = %q, want %q", i, o.cfg.Peers[i], want[i])
		}
	}
}
