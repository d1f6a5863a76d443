package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/engine"
	"repro/internal/serve/transport"
)

func TestParseMix(t *testing.T) {
	got, err := parseMix("random=2, hlsbench=1,figures=0")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"random": 2, "hlsbench": 1, "figures": 0}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("mix[%s] = %d, want %d", k, got[k], v)
		}
	}
	for _, bad := range []string{"random", "random=x", "random=-1", "unknown=1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestBuildCorpusDeterministicAndWeighted(t *testing.T) {
	cfg := loadConfig{mix: "random=2,figures=1", shapes: 3, instrs: 8, seed: 42}
	a, err := buildCorpus(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpus(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a), len(b))
	}
	// 3 random shapes at weight 2 + 3 figure kernels at weight 1, no hlsbench.
	if len(a) != 3*2+3 {
		t.Fatalf("corpus size %d, want 9", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corpus entry %d not deterministic: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].class == "hlsbench" {
			t.Fatalf("zero-weight class present: %+v", a[i])
		}
	}

	if _, err := buildCorpus(&loadConfig{mix: "hlsbench=0", shapes: 1, instrs: 8, seed: 1}); err == nil {
		t.Error("empty pick list accepted")
	}
}

// TestRunAgainstEngine drives the full leaload loop against an in-process
// serve engine and checks the strict and require-warm gates pass with a
// healthy report.
func TestRunAgainstEngine(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2, QueueDepth: 32})
	srv := httptest.NewServer(transport.NewMux(eng))
	defer srv.Close()

	var buf bytes.Buffer
	args := []string{
		"-url", srv.URL, "-workers", "2", "-duration", "300ms",
		"-mix", "figures=1", "-registers", "4", "-seed", "7",
		"-strict", "-require-warm", "-json",
	}
	if err := run(args, &buf); err != nil {
		t.Fatalf("leaload run: %v\n%s", err, buf.String())
	}
	var report loadReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report decode: %v\n%s", err, buf.String())
	}
	if report.Requests == 0 || report.Errors != 0 {
		t.Errorf("requests %d errors %d, want >0 and 0", report.Requests, report.Errors)
	}
	if report.ByClass["figures"] != report.Requests {
		t.Errorf("by_class figures %d, want all %d requests", report.ByClass["figures"], report.Requests)
	}
	if report.Server == nil || report.Server.CacheHits == 0 || report.Server.SolvesIncremental == 0 {
		t.Errorf("server stats missing warm traffic: %+v", report.Server)
	}
	if report.Latency.Count != report.Requests {
		t.Errorf("latency count %d, want %d", report.Latency.Count, report.Requests)
	}
	if report.Server != nil && report.Server.Requests != report.Requests {
		t.Errorf("server saw %d requests, driver sent %d", report.Server.Requests, report.Requests)
	}
}

// TestRunStrictFailsOnDeadServer checks the strict gate turns transport
// failures into a nonzero exit and every failure is counted by its code.
func TestRunStrictFailsOnDeadServer(t *testing.T) {
	var buf bytes.Buffer
	args := []string{
		"-url", "http://127.0.0.1:1", "-workers", "1", "-duration", "50ms",
		"-mix", "figures=1", "-timeout", "100ms", "-strict", "-json",
	}
	err := run(args, &buf)
	if err == nil || !strings.Contains(err.Error(), "strict") {
		t.Fatalf("dead server under -strict: err %v", err)
	}
	// The JSON report follows the statsz-unavailable note.
	out := buf.String()
	start := strings.Index(out, "{")
	if start < 0 {
		t.Fatalf("no JSON report in output:\n%s", out)
	}
	var report loadReport
	if err := json.Unmarshal([]byte(out[start:]), &report); err != nil {
		t.Fatalf("report decode: %v\n%s", err, out)
	}
	var byCode int64
	for _, n := range report.ByError {
		byCode += n
	}
	if report.Errors == 0 || byCode != report.Errors || report.ByError["transport"] != report.Errors {
		t.Errorf("errors %d, by_error %v: want every failure counted as transport", report.Errors, report.ByError)
	}
}

// TestRunReportsMeasuredDuration drives a server that takes longer per
// request than the whole -duration. Each worker's in-flight request finishes
// after the deadline, so the reported duration must cover it and the
// throughput must be requests over that measured time, not over -duration.
func TestRunReportsMeasuredDuration(t *testing.T) {
	const service = 200 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/allocate" {
			time.Sleep(service)
			io.WriteString(w, `{"blocks":[]}`)
			return
		}
		io.WriteString(w, `{}`)
	}))
	defer srv.Close()

	var buf bytes.Buffer
	args := []string{
		"-url", srv.URL, "-workers", "2", "-duration", "50ms",
		"-mix", "figures=1", "-strict", "-json",
	}
	if err := run(args, &buf); err != nil {
		t.Fatalf("leaload run: %v\n%s", err, buf.String())
	}
	var report loadReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report decode: %v\n%s", err, buf.String())
	}
	if report.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if report.Duration < service.Seconds() {
		t.Errorf("duration_s %.3f shorter than one %s request", report.Duration, service)
	}
	if max := float64(report.Requests) / service.Seconds(); report.ThroughputRPS > max {
		t.Errorf("throughput %.1f req/s above the %.1f req/s %d requests of %s each allow",
			report.ThroughputRPS, max, report.Requests, service)
	}
}

// TestRunRejectsBadFlags checks bad values fail and that leaload defines
// exactly its 13 closed-loop flags, so every other flag, those of the
// removed open loop, rate sweep and run record included, fails as undefined.
func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workers", "0"}, &buf); err == nil {
		t.Error("zero workers accepted")
	}
	if err := run([]string{"-mix", "bogus=1"}, &buf); err == nil {
		t.Error("bogus mix accepted")
	}
	want := []string{"duration", "instrs", "json", "memdiv", "mix", "registers",
		"require-warm", "seed", "shapes", "strict", "timeout", "url", "workers"}
	var got []string
	newFlagSet(&loadConfig{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags %v, want %v", got, want)
	}
	for _, name := range []string{"loop", "rate", "arrival", "warmup", "dist", "cutoff", "sweep"} {
		err := run([]string{"-" + name, "1"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err %v, want an undefined-flag error", name, err)
		}
	}
}
