package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/greensku/gsf/internal/server/api"
)

// FuzzReplayRequest throws arbitrary bytes at POST /v1/replay. The
// handler must never panic, must answer only with the statuses the
// endpoint documents (200, 400 bad request, 429 shed, 503 deadline),
// and every 200 body must decode as an api.ReplayResponse whose
// outcomes account for every VM of the workload. MaxTraceVMs keeps
// the traces the fuzzer builds short; the columnar simulator costs
// O(servers touched), so even the largest pool sizes stay cheap.
func FuzzReplayRequest(f *testing.F) {
	s, err := New(Config{
		MaxTraceVMs:    60,
		RequestTimeout: 10 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	const small = `"workload":{"name":"f","seed":3,"arrivals_per_hour":1,"horizon_hours":24}`
	f.Add([]byte(`{` + small + `,"green_servers":4,"base_servers":4,"adopt_percent":60,"prefer_non_empty":true,` +
		`"forks":[{"name":"all","adopt_percent":100},{"name":"none","adopt_percent":0,"scale":1.5}]}`))
	f.Add([]byte(`{` + small + `,"green_servers":1,"base_servers":1,"policy":"worst-fit","fork_frac":0.9}`))
	f.Add([]byte(`{` + small + `,"green_servers":2,"base_servers":0,"policy":"first-fit","scale":8}`))
	f.Add([]byte(`{` + small + `,"policy":"next-fit"}`))
	f.Add([]byte(`{` + small + `,"green_servers":-1}`))
	f.Add([]byte(`{` + small + `,"fork_frac":1}`))
	f.Add([]byte(`{"workload":{"arrivals_per_hour":1000,"horizon_hours":1000}}`))
	f.Add([]byte(`{"forks":[{},{},{},{},{},{},{},{},{}]}`))
	f.Add([]byte(`{"green":"nope"}`))
	f.Add([]byte(`{`))
	f.Add([]byte("\x00\xff{}"))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/replay", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)

		switch w.Code {
		case http.StatusOK:
			var resp api.ReplayResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body does not decode as api.ReplayResponse: %v\n%s", err, w.Body.Bytes())
			}
			for _, o := range append([]api.ReplayOutcome{resp.Straight}, resp.Forks...) {
				if o.Placed+o.Rejected != resp.Workload.VMs {
					t.Fatalf("outcome %q accounts for %d+%d of %d VMs", o.Name, o.Placed, o.Rejected, resp.Workload.VMs)
				}
			}
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Documented rejections.
		default:
			t.Fatalf("undocumented status %d for body %q: %s", w.Code, body, w.Body.Bytes())
		}
	})
}
