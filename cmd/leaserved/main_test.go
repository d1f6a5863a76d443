package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/engine"
	"repro/internal/serve/shard"
)

const testTAC = "task t\nblock b\nin a b\nc = a + b\nd = a * c\nout d\nend\n"

// startDaemon runs the daemon on an ephemeral port and returns its base URL,
// the buffer collecting its log lines, and a shutdown func that triggers the
// drain and returns run's error.
func startDaemon(t *testing.T, args ...string) (string, *bytes.Buffer, func() error) {
	t.Helper()
	var buf bytes.Buffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &buf, ready, stop)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, &buf, func() error {
			close(stop)
			select {
			case err := <-errCh:
				return err
			case <-time.After(10 * time.Second):
				return fmt.Errorf("daemon did not drain within 10s")
			}
		}
	case err := <-errCh:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never reported ready")
	}
	panic("unreachable")
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, data
}

func TestDaemonServesAndDrainsCleanly(t *testing.T) {
	base, buf, shutdown := startDaemon(t, "-workers", "2", "-cache", "8")

	// A valid allocation round-trips; the repeat hits the warm cache.
	body, _ := json.Marshal(map[string]any{"program": testTAC, "options": map[string]any{"registers": 3}})
	status, data := postJSON(t, base+"/v1/allocate", string(body))
	if status != http.StatusOK {
		t.Fatalf("allocate: status %d body %s", status, data)
	}
	var first engine.Response
	if err := json.Unmarshal(data, &first); err != nil || len(first.Blocks) != 1 {
		t.Fatalf("allocate response %s: err %v", data, err)
	}
	if first.Blocks[0].CacheHit {
		t.Error("first request reported a cache hit")
	}
	status, data = postJSON(t, base+"/v1/allocate", string(body))
	if status != http.StatusOK {
		t.Fatalf("repeat allocate: status %d body %s", status, data)
	}
	var second engine.Response
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatalf("repeat decode: %v", err)
	}
	if !second.Blocks[0].CacheHit || !second.Blocks[0].Stats.Solver.Incremental {
		t.Errorf("repeat request: cache_hit %t incremental %t, want both true",
			second.Blocks[0].CacheHit, second.Blocks[0].Stats.Solver.Incremental)
	}
	if second.TotalEnergy != first.TotalEnergy {
		t.Errorf("warm energy %g differs from cold %g", second.TotalEnergy, first.TotalEnergy)
	}

	// Error mapping: malformed body 400, wrong method 405, unknown path 404.
	if status, _ := postJSON(t, base+"/v1/allocate", "{not json"); status != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", status)
	}
	if resp, err := http.Get(base + "/v1/allocate"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET allocate: status %d, want 405", resp.StatusCode)
	}

	// Observability endpoints.
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status %v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap engine.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	resp.Body.Close()
	// The malformed body is rejected at decode time, before the engine, so
	// only the two valid allocations count.
	if snap.Requests < 2 || snap.CacheHits < 1 || snap.SolvesIncremental < 1 {
		t.Errorf("statsz requests %d hits %d incr %d; want >=2, >=1, >=1",
			snap.Requests, snap.CacheHits, snap.SolvesIncremental)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"requests_total", "cache_hits_total", "request_latency_p50_ns"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"listening on", "draining", "shutdown clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("daemon log missing %q:\n%s", want, out)
		}
	}
}

// TestDaemonShardedBatched runs a 2-shard daemon with one worker per shard:
// requests for two distinct programs spread deterministically, /statsz
// carries the per-shard snapshots, and /metrics labels every series with its
// shard.
func TestDaemonShardedBatched(t *testing.T) {
	base, _, shutdown := startDaemon(t, "-shards", "2", "-workers", "1", "-queue", "16")

	programs := []string{
		testTAC,
		"task u\nblock c\nin x y\nz = x + y\nw = z * x\nv = w + z\nout v\nend\n",
	}
	for round := 0; round < 3; round++ {
		for _, p := range programs {
			body, _ := json.Marshal(map[string]any{"program": p, "options": map[string]any{"registers": 3}})
			status, data := postJSON(t, base+"/v1/allocate", string(body))
			if status != http.StatusOK {
				t.Fatalf("allocate: status %d body %s", status, data)
			}
		}
	}

	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap shard.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	resp.Body.Close()
	if len(snap.Shards) != 2 {
		t.Fatalf("statsz shards %d, want 2", len(snap.Shards))
	}
	if snap.Requests != 6 || snap.Shards[0].Requests+snap.Shards[1].Requests != 6 {
		t.Errorf("aggregate requests %d (shards %d+%d), want 6",
			snap.Requests, snap.Shards[0].Requests, snap.Shards[1].Requests)
	}
	if snap.CacheHits < 4 {
		t.Errorf("aggregate cache hits %d, want >= 4 (two repeats per program)", snap.CacheHits)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`requests_total{shard="0"}`, `requests_total{shard="1"}`} {
		if !strings.Contains(string(text), want) {
			t.Errorf("sharded metrics exposition missing %q", want)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard, nil, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-shards", "0"}, io.Discard, nil, nil); err == nil {
		t.Fatal("zero shards accepted")
	}
}
