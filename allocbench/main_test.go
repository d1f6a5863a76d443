package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func texts(es []*entry) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.text)
	}
	return out
}

// TestSameSeedSameCorpus: a seed fixes every corpus entry, its request body
// and its reference answer.
func TestSameSeedSameCorpus(t *testing.T) {
	for _, gen := range []func() ([]*entry, int, error){
		func() ([]*entry, int, error) { return hotCorpus(7) },
		func() ([]*entry, int, error) { return randomCorpus(7, 40) },
	} {
		a, da, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		b, db, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || da != db {
			t.Fatal("same seed gave different corpora")
		}
	}
}

// TestOtherSeedOtherCorpus: another seed draws other programs, each with a
// certified reference.
func TestOtherSeedOtherCorpus(t *testing.T) {
	a, _, err := hotCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := hotCorpus(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 14 || len(b) != 14 {
		t.Fatalf("corpora have %d and %d shapes, want 14", len(a), len(b))
	}
	if reflect.DeepEqual(texts(a), texts(b)) {
		t.Fatal("seeds 7 and 8 gave the same programs")
	}
	for _, e := range b {
		if len(e.ref) != 1 || len(e.ref[0].Assignments) == 0 {
			t.Errorf("%s: reference %+v", e.name, e.ref)
		}
	}
}

// TestChurnCountsRepeat: with one client the template cache's hits, misses
// and evictions, and the solver's work, repeat exactly for a seed.
func TestChurnCountsRepeat(t *testing.T) {
	b := &serveBench{seed: 5, clients: 1, warmDraws: 200}
	var err error
	if b.entries, _, err = randomCorpus(5, 160); err != nil {
		t.Fatal(err)
	}
	counts := func() [4]int64 {
		st, cs, _, err := b.setUp(&tracer{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		tp := &tracedPhase{st: st, s0: st.router.Snapshot()}
		if err := tp.round(cs, 300); err != nil {
			t.Fatal(err)
		}
		s0, s1 := tp.s0, st.router.Snapshot()
		if tp.p.failed != 0 {
			t.Fatalf("%d failed: %v", tp.p.failed, tp.p.firstErr)
		}
		return [4]int64{s1.CacheHits - s0.CacheHits, s1.CacheMisses - s0.CacheMisses,
			s1.CacheEvictions - s0.CacheEvictions, tp.tally.dijkstraIters}
	}
	c1, c2 := counts(), counts()
	if c1 != c2 {
		t.Fatalf("counts differ between runs: %v vs %v", c1, c2)
	}
	if c1[0] == 0 || c1[2] == 0 {
		t.Fatalf("want hits and evictions, got %v", c1)
	}
}

// TestSweepCountsRepeat: the sweep's solver counters repeat exactly for a
// seed, with two workers solving columns concurrently.
func TestSweepCountsRepeat(t *testing.T) {
	b, err := newSweepBench(3)
	if err != nil {
		t.Fatal(err)
	}
	counts := func() [3]int64 {
		rn, _, _, err := b.setUp()
		if err != nil {
			t.Fatal(err)
		}
		var tally solveTally
		core.SetStatsCollector(tally.add)
		p, err := b.drive(rn, 2, 0)
		core.SetStatsCollector(nil)
		if err != nil || p.failed != 0 {
			t.Fatalf("drive: %v, %d failed: %v", err, p.failed, p.firstErr)
		}
		return [3]int64{tally.solves, tally.augmentations, tally.dijkstraIters}
	}
	c1, c2 := counts(), counts()
	if c1 != c2 || c1[0] == 0 {
		t.Fatalf("counts differ between runs or are empty: %v vs %v", c1, c2)
	}
}

// TestPlantedWrongReferenceFails: a wrong reference answer turns every op
// on it into a failed op, for the serving check and the sweep check alike.
func TestPlantedWrongReferenceFails(t *testing.T) {
	b := &serveBench{seed: 1, clients: 1}
	var err error
	if b.entries, _, err = hotCorpus(1); err != nil {
		t.Fatal(err)
	}
	st, cs, _, err := b.setUp(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	b.entries[0].ref[0].Energy += 1
	p, err := drive(st.handler, cs, 200, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed == 0 || p.failed == p.ops {
		t.Fatalf("%d of %d ops failed, want the ones on %s only", p.failed, p.ops, b.entries[0].name)
	}

	sb, err := newSweepBench(1)
	if err != nil {
		t.Fatal(err)
	}
	rn, _, _, err := sb.setUp()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sb.ref.Points {
		if sb.ref.Points[i].Feasible {
			sb.ref.Points[i].ActivityEnergy += 1
			break
		}
	}
	if p, err := sb.drive(rn, 1, 0); err != nil || p.failed != 1 {
		t.Fatalf("sweep: %v, %d of %d failed, want 1", err, p.failed, p.ops)
	}
}

// TestResultLine: the last output line is one JSON object with exactly the
// keys correct, attempted, failed and metrics, each metric a value and a
// unit.
func TestResultLine(t *testing.T) {
	rep, err := run([]string{"--workload", "serve_hot", "--seed", "2", "--seconds", "0.2", "--trace", "0"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"throughput_ops_s", "latency_p50_us", "latency_p90_us", "cpu_us_per_op", "setup_s", "rss_peak_mib"} {
		m := metrics[name]
		if len(m) != 2 || m["unit"] == nil || m["value"] == nil {
			t.Errorf("metric %s: %v", name, m)
		}
	}
	if len(metrics) != 6 {
		t.Errorf("%d metrics, want the 6 end-to-end ones", len(metrics))
	}
}

// TestUnknownWorkload: a bad argument is an error, not a result.
func TestUnknownWorkload(t *testing.T) {
	if _, err := run([]string{"--workload", "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
