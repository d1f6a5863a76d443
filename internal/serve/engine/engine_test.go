package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/workload"
)

// Three distinct single-block programs: the "distinct shapes" half of the
// concurrency test. Each repeats many times in the mixed request stream, so
// every shape also exercises the warm cache path.
var testPrograms = []string{
	`task chain
block b
in a b
c = a + b
d = a * c
e = c + d
f = d - e
out e f
end
`,
	`task pair
block b
in x y
u = x * y
v = x + u
w = u - y
z = v + w
out z
end
`,
	`task diamond
block b
in p q r
s = p + q
t = q * r
u = s + t
v = s - t
x = u * v
out x
end
`,
}

// coldBlocks computes the request's reference answer on the sequential cold
// path — schedule, lifetime extraction, full core.Allocate per block — with
// the volatile fields (Stats, CacheHit) left zero for comparison.
func coldBlocks(t *testing.T, req *Request) []BlockResult {
	t.Helper()
	out, err := coldAnswer(req)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// coldAnswer is coldBlocks returning the cold path's error instead of
// failing the test.
func coldAnswer(req *Request) ([]BlockResult, error) {
	r := *req // validateRequest mutates options; keep the caller's copy clean
	if err := validateRequest(&r, DefaultMaxProgramBytes); err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	prog, err := parseProgram(&r)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	opts, _ := coreOptions(r.Options)
	var out []BlockResult
	for _, task := range prog.Tasks {
		for _, block := range task.Blocks {
			sc, err := schedule(block, r.Options)
			if err != nil {
				return nil, fmt.Errorf("schedule %s: %w", block.Name, err)
			}
			set, err := lifetime.FromSchedule(sc)
			if err != nil {
				return nil, fmt.Errorf("lifetimes %s: %w", block.Name, err)
			}
			res, err := core.Allocate(set, opts)
			if err != nil {
				return nil, fmt.Errorf("cold allocate %s: %w", block.Name, err)
			}
			out = append(out, BlockResult{
				Task:            task.Name,
				Block:           block.Name,
				Registers:       r.Options.Registers,
				RegistersUsed:   res.RegistersUsed,
				MemoryLocations: res.MemoryLocations,
				Energy:          res.TotalEnergy,
				BaselineEnergy:  res.BaselineEnergy,
				Assignments:     assignments(res),
			})
		}
	}
	return out, nil
}

// TestConcurrentMatchesSequentialCold pushes a mixed stream of identical and
// distinct programs through the engine concurrently (run under -race in CI)
// and demands every response be identical to the sequential cold Allocate
// answer, with the cache hits observable through SolveStats.Incremental.
func TestConcurrentMatchesSequentialCold(t *testing.T) {
	reqs := make([]*Request, 0, 2*len(testPrograms))
	for _, p := range testPrograms {
		reqs = append(reqs,
			&Request{Program: p, Options: RequestOptions{Registers: 3}},
			&Request{Program: p, Options: RequestOptions{Registers: 5}},
		)
	}
	want := make([][]BlockResult, len(reqs))
	for i, r := range reqs {
		want[i] = coldBlocks(t, r)
	}

	e := New(Config{Workers: 8, QueueDepth: 256})
	ctx := context.Background()
	defer e.Close(ctx)

	const rounds = 8 // every request repeats, so most solves are warm
	type outcome struct {
		i    int
		resp *Response
		err  error
	}
	results := make(chan outcome, rounds*len(reqs))
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for i, r := range reqs {
			wg.Add(1)
			go func(i int, r Request) {
				defer wg.Done()
				resp, err := e.Allocate(ctx, &r)
				results <- outcome{i: i, resp: resp, err: err}
			}(i, *r)
		}
	}
	wg.Wait()
	close(results)

	sawIncrementalHit := false
	for o := range results {
		if o.err != nil {
			t.Fatalf("request %d: %v", o.i, o.err)
		}
		got := make([]BlockResult, len(o.resp.Blocks))
		for j, b := range o.resp.Blocks {
			if b.CacheHit && b.Stats.Solver.Incremental {
				sawIncrementalHit = true
			}
			b.CacheHit = false
			b.Stats = core.RunStats{}
			got[j] = b
		}
		if !reflect.DeepEqual(got, want[o.i]) {
			t.Errorf("request %d: concurrent result diverges from sequential cold Allocate\n got %+v\nwant %+v",
				o.i, got, want[o.i])
		}
	}
	if !sawIncrementalHit {
		t.Fatalf("no response carried CacheHit with SolveStats.Incremental; warm path never observed")
	}

	snap := e.Snapshot()
	if snap.Requests != rounds*int64(len(reqs)) {
		t.Errorf("requests counter %d, want %d", snap.Requests, rounds*len(reqs))
	}
	// Register count is repriced on the warm path and excluded from the cache
	// key, so the distinct shapes are exactly the distinct programs.
	if snap.CacheMisses != int64(len(testPrograms)) {
		t.Errorf("cache misses %d, want %d (one per distinct program shape)", snap.CacheMisses, len(testPrograms))
	}
	if snap.CacheHits == 0 || snap.SolvesIncremental == 0 {
		t.Errorf("cache hits %d, incremental solves %d; want both > 0", snap.CacheHits, snap.SolvesIncremental)
	}
	if snap.Errors != 0 || snap.Panics != 0 {
		t.Errorf("errors %d panics %d, want 0", snap.Errors, snap.Panics)
	}
}

// TestAnswersEqualColdAcrossEviction: with room for one template, then two,
// a request stream that interleaves random programs, register counts, cost
// models and memory divisors keeps evicting and re-preparing templates, and
// re-solves each cached one under changed R and costs. Every response, minus
// Stats and CacheHit, must equal the cold answer, and every request the cold
// path rejects must fail in the engine too.
func TestAnswersEqualColdAcrossEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var programs []string
	for len(programs) < 8 {
		p, err := workload.RandomProgram(rng, 12+rng.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := ir.Format(&b, p); err != nil {
			t.Fatal(err)
		}
		if _, err := coldAnswer(&Request{Program: b.String(), Options: RequestOptions{Registers: 6}}); err == nil {
			programs = append(programs, b.String())
		}
	}
	type key struct {
		prog string
		opts RequestOptions
	}
	type outcome struct {
		blocks []BlockResult
		err    error
	}
	cold := map[key]outcome{}
	ctx := context.Background()
	for _, entries := range []int{1, 2} {
		e := New(Config{Workers: 1, CacheEntries: entries})
		prog, opts := programs[0], RequestOptions{}
		hits := 0
		for i := 0; i < 400; i++ {
			if i == 0 || rng.Intn(3) == 0 {
				prog = programs[rng.Intn(len(programs))]
				opts.MemDivisor = 1 + rng.Intn(2)
			}
			opts.Registers = 1 + rng.Intn(6)
			opts.Cost = []string{"static", "activity"}[rng.Intn(2)]
			req := Request{Program: prog, Options: opts}
			want, ok := cold[key{prog, opts}]
			if !ok {
				want.blocks, want.err = coldAnswer(&req)
				cold[key{prog, opts}] = want
			}
			resp, err := e.Allocate(ctx, &req)
			if (err == nil) != (want.err == nil) {
				t.Fatalf("cache %d request %d %+v: engine err %v, cold err %v", entries, i, opts, err, want.err)
			}
			if err != nil {
				continue
			}
			got := make([]BlockResult, len(resp.Blocks))
			for j, b := range resp.Blocks {
				if b.CacheHit {
					hits++
				}
				b.CacheHit = false
				b.Stats = core.RunStats{}
				got[j] = b
			}
			if !reflect.DeepEqual(got, want.blocks) {
				t.Errorf("cache %d request %d %+v: response differs from cold\n got %+v\nwant %+v",
					entries, i, opts, got, want.blocks)
			}
		}
		snap := e.Snapshot()
		if err := e.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if hits == 0 || snap.CacheEvictions == 0 {
			t.Fatalf("cache %d: %d hits, %d evictions; want both re-solves and re-prepares", entries, hits, snap.CacheEvictions)
		}
	}
}

// TestPrepareTimeCountedOnce: the cache miss that built a template reports
// its split/pin/build time; an identical request served from the cache
// reports none but keeps the network sizes, and the engine's stage totals do
// not grow on that hit.
func TestPrepareTimeCountedOnce(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	defer e.Close(ctx)
	req := Request{Program: testPrograms[0], Options: RequestOptions{Registers: 3}}

	r1, r2 := req, req
	miss, err := e.Allocate(ctx, &r1)
	if err != nil {
		t.Fatal(err)
	}
	m := miss.Blocks[0]
	if m.CacheHit || m.Stats.BuildTime <= 0 {
		t.Fatalf("first request: cache hit %t, build time %v; want a miss reporting its build", m.CacheHit, m.Stats.BuildTime)
	}
	before := e.Snapshot()
	hit, err := e.Allocate(ctx, &r2)
	if err != nil {
		t.Fatal(err)
	}
	h := hit.Blocks[0]
	if !h.CacheHit {
		t.Fatal("second request missed the template cache")
	}
	if st := h.Stats; st.SplitTime != 0 || st.PinTime != 0 || st.BuildTime != 0 {
		t.Errorf("cache hit replays prepare time: split %v pin %v build %v", st.SplitTime, st.PinTime, st.BuildTime)
	}
	if h.Stats.Nodes != m.Stats.Nodes || h.Stats.Arcs != m.Stats.Arcs || h.Stats.Nodes == 0 {
		t.Errorf("cache hit sizes %d nodes / %d arcs, miss %d / %d", h.Stats.Nodes, h.Stats.Arcs, m.Stats.Nodes, m.Stats.Arcs)
	}
	after := e.Snapshot()
	if after.StageSplitNS != before.StageSplitNS || after.StagePinNS != before.StagePinNS || after.StageBuildNS != before.StageBuildNS {
		t.Errorf("stage totals grew on a cache hit: split %d→%d pin %d→%d build %d→%d",
			before.StageSplitNS, after.StageSplitNS, before.StagePinNS, after.StagePinNS, before.StageBuildNS, after.StageBuildNS)
	}
}

// TestSpellingsShareTemplate: every spelling of one request shares one
// template-cache entry and one shard route. The spellings are the empty
// style and scheduler beside their defaults "density" and "list".
func TestSpellingsShareTemplate(t *testing.T) {
	ctx := context.Background()
	for _, spellings := range [][]RequestOptions{
		{{Style: ""}, {Style: "density"}},
		{{Scheduler: ""}, {Scheduler: "list"}},
	} {
		// A fresh engine per group, so only the group's first spelling can
		// prepare the template the others must hit.
		e := New(Config{Workers: 1, QueueDepth: 4})
		var first *BlockResult
		var firstKey string
		for i, o := range spellings {
			spelled := o
			o.Registers = 2
			req := Request{Program: testPrograms[1], Options: o}
			key := RouteKey(&req)
			resp, err := e.Allocate(ctx, &req)
			if err != nil {
				t.Fatal(err)
			}
			b := &resp.Blocks[0]
			if i == 0 {
				first, firstKey = b, key
				continue
			}
			if key != firstKey {
				t.Errorf("%+v routes apart from %+v", spelled, spellings[0])
			}
			if !b.CacheHit {
				t.Errorf("%+v missed the template %+v prepared", spelled, spellings[0])
			}
			if b.Energy != first.Energy {
				t.Errorf("%+v: energy %v, want %v", spelled, b.Energy, first.Energy)
			}
		}
		e.Close(ctx)
	}
}

// blockingHook returns a testHookPreSolve that signals entry and then parks
// until released, pinning a worker mid-request.
func blockingHook(entered chan<- struct{}, release <-chan struct{}) func(*Request) {
	return func(*Request) {
		entered <- struct{}{}
		<-release
	}
}

func TestOverloadReturnsTypedError(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	e.testHookPreSolve = blockingHook(entered, release)
	ctx := context.Background()
	req := &Request{Program: testPrograms[0], Options: RequestOptions{Registers: 3}}

	done := make(chan error, 2)
	go func() { _, err := e.Allocate(ctx, req); done <- err }()
	<-entered // the single worker is now parked inside a request
	go func() { _, err := e.Allocate(ctx, req); done <- err }()
	// Wait for the second request to occupy the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(e.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := e.Allocate(ctx, req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: got %v, want ErrOverloaded", err)
	}
	if snap := e.Snapshot(); snap.Overloads != 1 {
		t.Errorf("overloads counter %d, want 1", snap.Overloads)
	}

	close(release)
	<-entered // worker picks up the queued request
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("parked request %d failed after release: %v", i, err)
		}
	}
	if err := e.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestQueueWaitCounted: a request held in the admission queue behind a
// parked worker must show its wait in queue_wait, and request_latency must
// count it too, so neither request of the pair reads under the hold.
func TestQueueWaitCounted(t *testing.T) {
	const hold = 20 * time.Millisecond
	e := New(Config{Workers: 1, QueueDepth: 4})
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	e.testHookPreSolve = blockingHook(entered, release)
	ctx := context.Background()
	req := &Request{Program: testPrograms[0], Options: RequestOptions{Registers: 3}}

	done := make(chan error, 2)
	go func() { _, err := e.Allocate(ctx, req); done <- err }()
	<-entered // the single worker is now parked inside the first request
	go func() { _, err := e.Allocate(ctx, req); done <- err }()
	deadline := time.Now().Add(5 * time.Second)
	for len(e.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(hold + 5*time.Millisecond)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := e.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	wait := e.Metrics().Histogram("queue_wait").Snapshot()
	if wait.Count != 2 || wait.MaxNS < hold.Nanoseconds() {
		t.Errorf("queue_wait: %d observations, max %v; want 2 with one of at least %v", wait.Count, time.Duration(wait.MaxNS), hold)
	}
	lat := e.Metrics().Histogram("request_latency").Snapshot()
	if lat.Count != 2 || lat.MinNS < hold.Nanoseconds() {
		t.Errorf("request_latency: %d observations, min %v; want 2, each at least %v", lat.Count, time.Duration(lat.MinNS), hold)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 4})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	e.testHookPreSolve = blockingHook(entered, release)
	ctx := context.Background()
	req := &Request{Program: testPrograms[1], Options: RequestOptions{Registers: 3}}

	done := make(chan error, 1)
	go func() { _, err := e.Allocate(ctx, req); done <- err }()
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- e.Close(ctx) }()
	close(release) // let the in-flight request finish; Close should then return

	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := e.Allocate(ctx, req); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close request: got %v, want ErrClosed", err)
	}
	if err := e.Close(ctx); err != nil {
		t.Fatalf("second close not idempotent: %v", err)
	}
}

func TestPanicRecovery(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()
	defer e.Close(ctx)
	req := &Request{Program: testPrograms[2], Options: RequestOptions{Registers: 3}}

	var tripped atomic.Bool
	e.testHookPreSolve = func(*Request) {
		if tripped.CompareAndSwap(false, true) {
			panic("injected failure")
		}
	}

	var ie *InternalError
	if _, err := e.Allocate(ctx, req); !errors.As(err, &ie) {
		t.Fatalf("panicking request: got %v, want *InternalError", err)
	}
	if snap := e.Snapshot(); snap.Panics != 1 {
		t.Errorf("panics counter %d, want 1", snap.Panics)
	}
	// The pool survived: the same request now succeeds.
	resp, err := e.Allocate(ctx, req)
	if err != nil || len(resp.Blocks) != 1 {
		t.Fatalf("request after recovered panic: resp %+v err %v", resp, err)
	}
}

func TestRequestTimeout(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 4, RequestTimeout: 20 * time.Millisecond})
	release := make(chan struct{})
	e.testHookPreSolve = func(*Request) { <-release }
	req := &Request{Program: testPrograms[0], Options: RequestOptions{Registers: 3}}

	_, err := e.Allocate(context.Background(), req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled request: got %v, want context.DeadlineExceeded", err)
	}
	if snap := e.Snapshot(); snap.Timeouts != 1 {
		t.Errorf("timeouts counter %d, want 1", snap.Timeouts)
	}
	close(release)
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestInvalidRequestsAreTyped(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	defer e.Close(ctx)

	cases := []Request{
		{Program: ""},
		{Program: "task t\nblock b\nnot valid tac\nend\n"},
		{Program: testPrograms[0], Options: RequestOptions{Registers: -1}},
		{Program: testPrograms[0], Options: RequestOptions{Scheduler: "magic"}},
		{Program: testPrograms[0], Options: RequestOptions{MemDivisor: MaxMemDivisor + 1}},
	}
	for i, r := range cases {
		var re *RequestError
		if _, err := e.Allocate(ctx, &r); !errors.As(err, &re) {
			t.Errorf("case %d: got %v, want *RequestError", i, err)
		}
	}
}

func TestTemplateCacheLRUEviction(t *testing.T) {
	evicted := &Counter{}
	c := newTemplateCache(2, evicted)
	a := c.acquire("a")
	c.acquire("b")
	c.acquire("a") // refresh a: b is now the LRU entry
	c.acquire("c") // evicts b
	if got := evicted.Value(); got != 1 {
		t.Fatalf("evictions %d, want 1", got)
	}
	if c.len() != 2 {
		t.Fatalf("cache length %d, want 2", c.len())
	}
	if c.acquire("a") != a {
		t.Error("entry a was evicted; want b (the least recently used)")
	}
	c.mu.Lock()
	_, hasB := c.entries["b"]
	c.mu.Unlock()
	if hasB {
		t.Error("entry b survived; want it evicted as LRU")
	}
}
