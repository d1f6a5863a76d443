package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve/engine"
	"repro/internal/serve/shard"
	"repro/internal/serve/transport"
)

// stack is the serving stack cmd/leaserved assembles: one shard of a default
// engine.Config behind transport.NewMux, driven through ServeHTTP.
type stack struct {
	router  *shard.Router
	handler http.Handler
}

// newStack builds a stack. A non-nil tracer is put between the transport and
// the router as the transport's Service, and receives the engine's PreSolve
// callbacks.
func newStack(t *tracer) *stack {
	if t == nil {
		r := shard.New(shard.Config{Shards: 1})
		return &stack{router: r, handler: transport.NewMux(r)}
	}
	r := shard.New(shard.Config{Shards: 1, Engine: engine.Config{PreSolve: t.preSolve}})
	t.Router = r
	return &stack{router: r, handler: transport.NewMux(t)}
}

// close drains the engine and waits for its workers to exit.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.router.Close(ctx)
}

// epoch anchors span times; now reads the monotonic clock against it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one traced request: its ServeHTTP span, the child span of the
// tracer around the router, and the engine's PreSolve callback, all in
// nanoseconds since epoch. The span's address identifies the request.
type span struct {
	e                    *entry
	hit                  bool
	start, end           int64
	allocStart, allocEnd int64
	preSolve             atomic.Int64
}

type spanKey struct{}

// tracer is the Service the transport calls in traced runs: it forwards to
// the router and records each request's Allocate span.
type tracer struct {
	*shard.Router
	live sync.Map // *engine.Request → *span while the request is in the router
}

// Allocate forwards to the router, recording the span carried by ctx.
func (t *tracer) Allocate(ctx context.Context, req *engine.Request) (*engine.Response, error) {
	sp, _ := ctx.Value(spanKey{}).(*span)
	if sp == nil {
		return t.Router.Allocate(ctx, req)
	}
	t.live.Store(req, sp)
	sp.allocStart = now()
	resp, err := t.Router.Allocate(ctx, req)
	sp.allocEnd = now()
	t.live.Delete(req)
	return resp, err
}

// preSolve is the engine's PreSolve callback: it marks when the request
// first reached a solve.
func (t *tracer) preSolve(req *engine.Request) {
	if v, ok := t.live.Load(req); ok {
		v.(*span).preSolve.CompareAndSwap(0, now())
	}
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	if r.header == nil {
		r.header = make(http.Header)
	}
	clear(r.header)
	r.body.Reset()
	r.code = 0
}

// client is one closed-loop caller: it sends its next request only after the
// previous reply has arrived and been checked, as a compiler job waits for
// its allocation. With rng set it draws entries uniformly; without, it walks
// them in order.
type client struct {
	rng     *rand.Rand
	entries []*entry
	next    int
	rec     recorder
	p       phase
	spans   []span
}

func (c *client) pick() *entry {
	if c.rng != nil {
		return c.entries[c.rng.Intn(len(c.entries))]
	}
	e := c.entries[c.next%len(c.entries)]
	c.next++
	return e
}

// send issues e through h, checks the reply and records the op in c.p, and
// in sp when it is non-nil. Only the ServeHTTP call is timed.
func (c *client) send(h http.Handler, e *entry, sp *span) {
	c.p.ops++
	ctx := context.Background()
	if sp != nil {
		sp.e = e
		ctx = context.WithValue(ctx, spanKey{}, sp)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/allocate", bytes.NewReader(e.body))
	if err != nil {
		c.p.fail(err)
		return
	}
	c.rec.reset()
	t0 := now()
	h.ServeHTTP(&c.rec, req)
	t1 := now()
	c.p.lat = append(c.p.lat, float64(t1-t0)/1e3)
	c.p.respBytes += int64(c.rec.body.Len())
	hit, err := verify(e, c.rec.code, c.rec.body.Bytes())
	if sp != nil {
		sp.start, sp.end, sp.hit = t0, t1, hit
	}
	if err != nil {
		c.p.fail(err)
	}
}

// drive runs the clients concurrently against h, each for perClient requests
// when perClient > 0, else until d has passed, and merges their phases.
// Traced phases need perClient > 0.
func drive(h http.Handler, clients []*client, perClient int, d time.Duration, traced bool) (phase, error) {
	for _, c := range clients {
		c.p = phase{lat: make([]float64, 0, max(perClient, 4096))}
		// Untraced fixed-count phases hold the same span storage as traced
		// ones, so both run with the same live heap and so the same GC pace.
		c.spans = nil
		if perClient > 0 {
			c.spans = make([]span, perClient)
		}
	}
	runtime.GC()
	cpu0, err := cpuTime()
	if err != nil {
		return phase{}, err
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; (perClient > 0 && i < perClient) || (perClient == 0 && time.Now().Before(deadline)); i++ {
				var sp *span
				if traced {
					sp = &c.spans[i]
				}
				c.send(h, c.pick(), sp)
			}
		}()
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	cpu1, err := cpuTime()
	if err != nil {
		return phase{}, err
	}
	p.cpu = cpu1 - cpu0
	for _, c := range clients {
		p.merge(c.p)
	}
	return p, nil
}

// serveBench is a serving workload.
type serveBench struct {
	seed    int64
	clients int
	ops     int // requests per traced phase
	entries []*entry
	dropped int
	// warmDraws is the warm-up length in draws from client 0's stream; 0
	// sends every entry once, in order.
	warmDraws int
}

// newServeBench builds serve_hot (2 clients over 14 shapes, all template
// hits once warm) or serve_churn (1 client over 4× the template cache, so
// the cache inserts and evicts; with one client its hit and miss sequence
// repeats exactly).
func newServeBench(name string, seed int64) (*serveBench, error) {
	b := &serveBench{seed: seed}
	var err error
	if name == "serve_hot" {
		b.clients, b.ops = 2, hotOps
		b.entries, b.dropped, err = hotCorpus(seed)
	} else {
		b.clients, b.ops, b.warmDraws = 1, churnOps, churnWarmup
		b.entries, b.dropped, err = randomCorpus(seed, churnShapes)
	}
	return b, err
}

// newClients returns the workload's clients with fresh draw streams.
func (b *serveBench) newClients() []*client {
	cs := make([]*client, b.clients)
	for i := range cs {
		cs[i] = &client{rng: rand.New(rand.NewSource(b.seed*1000 + int64(i) + 1)), entries: b.entries}
	}
	return cs
}

// setUp builds a fresh stack and warms it. It returns the stack, its clients
// (whose draw streams continue after the warm-up) and the set-up time: stack
// construction plus the warm-up's ServeHTTP calls.
func (b *serveBench) setUp(t *tracer) (*stack, []*client, float64, error) {
	cs := b.newClients()
	t0 := time.Now()
	st := newStack(t)
	setup := time.Since(t0).Seconds()
	w := cs[0]
	if b.warmDraws == 0 {
		for _, e := range b.entries {
			w.send(st.handler, e, nil)
		}
	} else {
		for i := 0; i < b.warmDraws; i++ {
			w.send(st.handler, w.pick(), nil)
		}
	}
	for _, l := range w.p.lat {
		setup += l / 1e6
	}
	if w.p.firstErr != nil {
		return nil, nil, 0, errors.Join(fmt.Errorf("warm-up: %w", w.p.firstErr), st.close())
	}
	return st, cs, setup, nil
}

// measure implements bench.
func (b *serveBench) measure(d time.Duration) (*report, error) {
	var setups []float64
	var st *stack
	var cs []*client
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		var s float64
		var err error
		if st, cs, s, err = b.setUp(nil); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	p, err := drive(st.handler, cs, 0, d, false)
	if err = errors.Join(err, st.close()); err != nil {
		return nil, err
	}
	r := &report{}
	r.count(p)
	if err := r.endToEnd("", p, setups); err != nil {
		return nil, err
	}
	b.corpusNotes(r)
	return r, nil
}

// corpusNotes records the corpus size and how many generated programs the
// reference dropped.
func (b *serveBench) corpusNotes(r *report) {
	r.note("corpus.shapes", "count", float64(len(b.entries)), len(b.entries))
	r.note("corpus.dropped", "count", float64(b.dropped), len(b.entries)+b.dropped)
}

// tracedPhase is a serving phase measured with the tracer in place, in one
// or more rounds.
type tracedPhase struct {
	p      phase
	st     *stack // its handler also serves the replay probes
	spans  []*span
	replay []span         // client 0's first round, in the order sent
	s0, s1 shard.Snapshot // engine counters around the phase
	tally  solveTally     // RunStats of the phase's allocations
}

// round sends perClient requests per client through tp.st, whose tracer
// records the spans, with core's stats collector installed.
func (tp *tracedPhase) round(clients []*client, perClient int) error {
	core.SetStatsCollector(tp.tally.add)
	p, err := drive(tp.st.handler, clients, perClient, 0, true)
	core.SetStatsCollector(nil)
	tp.p.then(p)
	for _, c := range clients {
		for i := range c.spans {
			tp.spans = append(tp.spans, &c.spans[i])
		}
	}
	if tp.replay == nil {
		tp.replay = clients[0].spans
	}
	return err
}

// traced implements bench. Two stacks are set up and warmed alike; rounds
// alternate between the untraced one, the baseline for the tracing overhead
// and the runtime counters, and the traced one, so drift during the run
// falls on both sides. Layer replays then run on the traced requests.
func (b *serveBench) traced() (rep *report, err error) {
	stA, csA, setupA, err := b.setUp(nil)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, stA.close()) }()
	stB, csB, setupB, err := b.setUp(&tracer{})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, stB.close()) }()

	tp := &tracedPhase{st: stB, s0: stB.router.Snapshot()}
	var pa phase
	var mem memDelta
	perRound := b.ops / b.clients / 2 // two rounds per phase
	untraced := func() error {
		return mem.measure(func() error {
			p, err := drive(stA.handler, csA, perRound, 0, false)
			pa.then(p)
			return err
		})
	}
	traced := func() error { return tp.round(csB, perRound) }
	// ABBA order: a drift that is linear in time cancels out.
	for _, f := range []func() error{untraced, traced, traced, untraced} {
		if err := f(); err != nil {
			return nil, err
		}
	}
	tp.s1 = stB.router.Snapshot()

	r := &report{}
	r.count(pa)
	r.count(tp.p)
	if err := serviceLayers(r, tp, tp.replay[:min(replayOps, len(tp.replay))]); err != nil {
		return nil, err
	}
	tp.tally.metrics(r, tp.p.ops)
	if err := runnerReplay(r, tp.spans); err != nil {
		return nil, err
	}
	mem.metrics(r, pa.ops)
	if err := r.overhead(pa, tp.p, []float64{setupA}, []float64{setupB}); err != nil {
		return nil, err
	}
	b.corpusNotes(r)
	return r, nil
}
