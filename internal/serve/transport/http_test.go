package transport

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serve/engine"
)

// stubService answers every Allocate with a fixed result, so the
// error-to-status mapping is tested without a live engine, and counts the
// calls that reach it.
type stubService struct {
	resp  *engine.Response
	err   error
	calls atomic.Int64
}

func (s *stubService) Allocate(ctx context.Context, req *engine.Request) (*engine.Response, error) {
	s.calls.Add(1)
	return s.resp, s.err
}
func (s *stubService) MaxProgramBytes() int { return engine.DefaultMaxProgramBytes }
func (s *stubService) StatsJSON() any       { return map[string]int{"requests": 1} }
func (s *stubService) WriteMetrics(w io.Writer) error {
	_, err := io.WriteString(w, "x 1\n")
	return err
}

const validBody = `{"program":"task t\nblock b\nin a b\nc = a + b\nout c\nend\n","options":{"registers":3}}`

// TestHTTPStatusMapping pins the typed-error → HTTP status contract the CI
// smoke and external clients rely on, for every error class the engine can
// return, through a stub backend.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		kind   string
	}{
		{"bad_request", &engine.RequestError{Field: "options.registers", Reason: "nope"}, http.StatusBadRequest, "bad_request"},
		{"overloaded", engine.ErrOverloaded, http.StatusTooManyRequests, "overloaded"},
		{"closed", engine.ErrClosed, http.StatusServiceUnavailable, "closed"},
		{"timeout", context.DeadlineExceeded, http.StatusGatewayTimeout, "timeout"},
		{"canceled", context.Canceled, http.StatusGatewayTimeout, "timeout"},
		{"internal_panic", &engine.InternalError{Panic: "boom"}, http.StatusInternalServerError, "internal"},
		{"internal_other", errors.New("mystery"), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(NewMux(&stubService{err: tc.err}))
			defer srv.Close()
			resp, err := http.Post(srv.URL+"/v1/allocate", "application/json", strings.NewReader(validBody))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			var eb struct {
				Kind string `json:"kind"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			if resp.StatusCode != tc.status || eb.Kind != tc.kind {
				t.Fatalf("status %d kind %q, want %d %q", resp.StatusCode, eb.Kind, tc.status, tc.kind)
			}
		})
	}
}

// TestHTTPRequestRejection pins the decode-side failures: malformed JSON, a
// body naming an option the request schema does not have (the removed
// engine choice) and non-POST methods never reach the backend.
func TestHTTPRequestRejection(t *testing.T) {
	stub := &stubService{resp: &engine.Response{}}
	srv := httptest.NewServer(NewMux(stub))
	defer srv.Close()

	for _, body := range []string{
		"{",
		"{\"program\":\"task t\\nblock b\\nin a b\\nc = a + b\\nout c\\nend\\n\",\"options\":{\"engine\":\"ssp\"}}",
	} {
		resp, err := http.Post(srv.URL+"/v1/allocate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb struct {
			Kind string `json:"kind"`
		}
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("body %s: decode error body: %v", body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Kind != "bad_request" {
			t.Errorf("body %s: status %d kind %q, want 400 %q", body, resp.StatusCode, eb.Kind, "bad_request")
		}
	}

	resp, err := http.Get(srv.URL + "/v1/allocate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET allocate: status %d, want 405", resp.StatusCode)
	}
	if n := stub.calls.Load(); n != 0 {
		t.Errorf("backend called %d times by rejected requests", n)
	}
}

// TestHTTPEndToEnd runs the mux against a real engine: a valid POST decodes
// to per-block results, and the observability routes answer.
func TestHTTPEndToEnd(t *testing.T) {
	e := engine.New(engine.Config{Workers: 1, QueueDepth: 4})
	defer e.Close(context.Background())
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/allocate", "application/json", strings.NewReader(validBody))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 200 (body %s)", resp.StatusCode, body)
	}
	var out engine.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if len(out.Blocks) != 1 || out.Blocks[0].Block != "b" {
		t.Fatalf("blocks %+v, want one block %q", out.Blocks, "b")
	}

	for _, route := range []string{"/healthz", "/statsz", "/metrics"} {
		r, err := http.Get(srv.URL + route)
		if err != nil {
			t.Fatalf("GET %s: %v", route, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", route, r.StatusCode)
		}
	}
}

// TestMetricsTextIncludesProcGauges pins the /metrics page contract a
// scraper relies on: backend series first, then the process-wide proc_*
// gauges exactly once, so summing across shards never multiplies them.
func TestMetricsTextIncludesProcGauges(t *testing.T) {
	srv := httptest.NewServer(NewMux(&stubService{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	page := string(body)
	if !strings.HasPrefix(page, "x 1\n") {
		t.Fatalf("backend series missing or displaced:\n%s", page)
	}
	for _, name := range []string{"proc_rss_bytes", "proc_heap_live_bytes",
		"proc_goroutines", "proc_gc_pause_max_ns", "proc_gc_pause_p99_ns"} {
		if strings.Count(page, name+" ") != 1 {
			t.Errorf("%s must appear exactly once:\n%s", name, page)
		}
	}
}
