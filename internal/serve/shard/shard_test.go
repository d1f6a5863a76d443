package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/serve/engine"
	"repro/internal/workload"
)

// TestRingDeterministicAndBalanced pins the ring contract: identical
// construction yields identical routing, every shard owns a fair share of
// random keys, and single-shard rings route everything to shard 0.
func TestRingDeterministicAndBalanced(t *testing.T) {
	a, b := newRing(4), newRing(4)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("key-%d-%d", i, i*i)
		sa, sb := a.lookup(key), b.lookup(key)
		if sa != sb {
			t.Fatalf("ring not deterministic: key %q -> %d vs %d", key, sa, sb)
		}
		counts[sa]++
	}
	for s, n := range counts {
		if n < 4000/4/2 || n > 4000/4*2 {
			t.Errorf("shard %d owns %d of 4000 keys; split too skewed: %v", s, n, counts)
		}
	}
	one := newRing(1)
	if got := one.lookup("anything"); got != 0 {
		t.Errorf("1-shard ring routed to %d", got)
	}
	if newRing(0).n != 1 {
		t.Error("shard count not clamped to 1")
	}
}

// TestRouteKeyAffinity pins the routing-key contract: register and cost
// sweeps over one program share a key (so they share a shard's warm
// templates), while program or shape-option changes split.
func TestRouteKeyAffinity(t *testing.T) {
	base := func() *engine.Request {
		return &engine.Request{
			Program: "task t\nblock b\nin a b\nc = a + b\nout c\nend\n",
			Options: engine.RequestOptions{Registers: 4},
		}
	}
	k := engine.RouteKey(base())
	same := base()
	same.Options.Registers = 9
	same.Options.Cost = "activity"
	if engine.RouteKey(same) != k {
		t.Error("register/cost sweep changed the route key")
	}
	// Raw and validated forms of the default options must agree: the router
	// may see a request before validation (a direct caller) or after (the
	// HTTP transport).
	validated := base()
	validated.Options.MemDivisor = 1
	validated.Options.Style = "density"
	validated.Options.Scheduler = "list"
	validated.Options.ALUs, validated.Options.Multipliers = 2, 1
	if engine.RouteKey(validated) != k {
		t.Error("default normalisation changed the route key")
	}
	diff := base()
	diff.Options.MemDivisor = 4
	if engine.RouteKey(diff) == k {
		t.Error("divisor change kept the route key")
	}
	diff = base()
	diff.Program += "\n"
	if engine.RouteKey(diff) == k {
		t.Error("program change kept the route key")
	}
}

// shardCorpus renders a mixed random/hlsbench program corpus with a register
// sweep, so concurrent load produces both repeated requests (warm template
// hits) and distinct ones.
func shardCorpus(t *testing.T) []*engine.Request {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	classes, err := workload.Programs(rng, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*engine.Request
	i := 0
	for _, class := range []string{"random", "hlsbench"} {
		for _, p := range classes[class] {
			var buf bytes.Buffer
			if err := ir.Format(&buf, p); err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, &engine.Request{
				Program: buf.String(),
				Options: engine.RequestOptions{Registers: 3 + i%3},
			})
			i++
		}
	}
	if len(reqs) < 6 {
		t.Fatalf("corpus too small: %d requests", len(reqs))
	}
	return reqs
}

// TestShardedByteIdentical is the serving stack's equivalence proof: a
// 4-shard router with one worker per shard serves a concurrent mixed corpus,
// and every response is identical (energies, assignments, register counts —
// everything but cache/timing metadata) to the same request solved alone on
// a fresh engine. A deep queue cannot be left to scheduler timing — on a
// single-CPU machine the channel handoff runs the worker after every
// enqueue, so the queue never builds naturally — so the test parks every
// shard's worker on a marker request via the PreSolve seam, piles the burst
// into the queues, and releases; the drains then serve repeated shapes back
// to back from each shard's warm template cache under the equality check.
func TestShardedByteIdentical(t *testing.T) {
	reqs := shardCorpus(t)

	// Reference: each distinct request solved on its own single-worker
	// engine — the sequential path.
	ref := make([]*engine.Response, len(reqs))
	for i, r := range reqs {
		e := engine.New(engine.Config{Workers: 1, QueueDepth: 4})
		resp, err := e.Allocate(context.Background(), cloneRequest(r))
		if err != nil {
			t.Fatalf("reference solve %d: %v", i, err)
		}
		ref[i] = stripVolatile(resp)
		if err := e.Close(context.Background()); err != nil {
			t.Fatalf("reference close: %v", err)
		}
	}

	// One parker program per shard, found by probing the same ring the
	// router will build. The PreSolve hook parks whichever worker picks one
	// up, so all four shards block while the corpus burst queues behind
	// them.
	const shards = 4
	ring := newRing(shards)
	parker := make(map[int]string, shards)
	for n := 0; len(parker) < shards; n++ {
		prog := fmt.Sprintf("task park%d\nblock b\nin a b\nc = a + b\nout c\nend\n", n)
		s := ring.lookup(engine.RouteKey(&engine.Request{Program: prog}))
		if _, ok := parker[s]; !ok {
			parker[s] = prog
		}
	}

	var entered sync.WaitGroup
	entered.Add(shards)
	release := make(chan struct{})
	router := New(Config{
		Shards: shards,
		Engine: engine.Config{
			Workers: 1, QueueDepth: 64,
			PreSolve: func(req *engine.Request) {
				if strings.HasPrefix(req.Program, "task park") {
					entered.Done()
					<-release
				}
			},
		},
	})
	defer router.Close(context.Background())

	var wg sync.WaitGroup
	const repeats = 6
	errs := make(chan error, shards+repeats*len(reqs))
	for _, prog := range parker {
		wg.Add(1)
		go func(prog string) {
			defer wg.Done()
			if _, err := router.Allocate(context.Background(), &engine.Request{Program: prog}); err != nil {
				errs <- fmt.Errorf("parker request: %w", err)
			}
		}(prog)
	}
	entered.Wait() // every shard's worker is parked

	for n := 0; n < repeats; n++ {
		for i := range reqs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := router.Allocate(context.Background(), cloneRequest(reqs[i]))
				if err != nil {
					errs <- fmt.Errorf("request %d: %w", i, err)
					return
				}
				if got := stripVolatile(resp); !reflect.DeepEqual(got, ref[i]) {
					errs <- fmt.Errorf("request %d: sharded response differs from sequential solve:\n got %+v\nwant %+v", i, got, ref[i])
				}
			}(i)
		}
	}
	waitQueued(t, router, repeats*len(reqs))
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := router.Snapshot()
	if want := int64(shards + repeats*len(reqs)); snap.Requests != want {
		t.Errorf("requests %d, want %d", snap.Requests, want)
	}
}

// waitQueued polls until the fleet's queue-depth gauges account for n waiting
// requests. Only meaningful while the workers are parked.
func waitQueued(t *testing.T, r *Router, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if depth := r.Snapshot().QueueDepth; depth >= int64(n) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queues never reached %d waiting requests (at %d)", n, r.Snapshot().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

// cloneRequest copies a request so the engine's in-place option defaulting
// never races between concurrent sends of the same corpus entry.
func cloneRequest(r *engine.Request) *engine.Request {
	c := *r
	return &c
}

// stripVolatile zeroes cache and timing/solver metadata (which legitimately
// differ between cold and warm paths), keeping every decoded
// allocation field — energies, assignments, register and memory counts — for
// exact comparison.
func stripVolatile(resp *engine.Response) *engine.Response {
	out := &engine.Response{TotalEnergy: resp.TotalEnergy}
	for _, b := range resp.Blocks {
		b.CacheHit = false
		b.Stats = core.RunStats{}
		out.Blocks = append(out.Blocks, b)
	}
	return out
}
