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

// FuzzEvaluateRequest throws arbitrary bytes at POST /v1/evaluate. The
// handler must never panic, must answer only with the statuses the
// endpoint documents (200, 400 bad request, 429 shed, 503 deadline),
// and every 200 body must decode as an api.EvaluateResponse naming the
// SKUs it compared. MaxTraceVMs keeps the traces the fuzzer builds
// short, and the server's profile memo makes repeated greens cheap.
func FuzzEvaluateRequest(f *testing.F) {
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
	f.Add([]byte(`{` + small + `}`))
	f.Add([]byte(`{"ci":0.2,"green":"GreenSKU-CXL","baseline":"Baseline","cxl_backed":true,` + small + `}`))
	f.Add([]byte(`{"ci_series":[{"t_h":0,"ci":0.11}],` + small + `}`))
	f.Add([]byte(`{"ci_series":[{"t_h":0,"ci":0.05},{"t_h":12,"ci":0.17}],"ci_period_h":24,` + small + `}`))
	f.Add([]byte(`{"ci":0.1,"ci_series":[{"t_h":0,"ci":0.1}],` + small + `}`))
	f.Add([]byte(`{"ci_period_h":24,` + small + `}`))
	f.Add([]byte(`{"ci_series":[{"t_h":5,"ci":-1},{"t_h":1,"ci":1e308}],"ci_period_h":-3,` + small + `}`))
	f.Add([]byte(`{"dataset":"nope","green":"nope",` + small + `}`))
	f.Add([]byte(`{"workload":{"arrivals_per_hour":1000,"horizon_hours":1000}}`))
	f.Add([]byte(`{`))
	f.Add([]byte("\x00\xff{}"))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)

		switch w.Code {
		case http.StatusOK:
			var resp api.EvaluateResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body does not decode as api.EvaluateResponse: %v\n%s", err, w.Body.Bytes())
			}
			if resp.Green == "" || resp.Baseline == "" {
				t.Fatalf("200 body names no green or baseline SKU: %s", w.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Documented rejections.
		default:
			t.Fatalf("undocumented status %d for body %q: %s", w.Code, body, w.Body.Bytes())
		}
	})
}
