// Command leaserved is the allocation-as-a-service daemon: a stdlib
// net/http front end (internal/serve/transport) over a consistent-hash shard
// router (internal/serve/shard) of allocation engines (internal/serve/engine),
// turning the paper's batch allocator into a long-running service whose warm
// template caches amortise network construction across requests with
// repeated program shapes. With -shards above 1, requests are routed by
// their program-shape key so each shard's cache stays warm for its share of
// the corpus.
//
// Endpoints:
//
//	POST /v1/allocate  — {"program": "<TAC text>", "options": {...}} in,
//	                     per-block allocations + energy + stage stats out
//	GET  /healthz      — liveness probe
//	GET  /statsz       — JSON counters, cache hit/miss/evict, latency
//	                     percentiles (per shard + fleet aggregate)
//	GET  /metrics      — flat text metric exposition (shard-labelled when
//	                     sharded)
//
// SIGINT/SIGTERM triggers a graceful drain: in-flight and queued requests
// finish, new ones are refused, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve/engine"
	"repro/internal/serve/shard"
	"repro/internal/serve/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "leaserved:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until shutdown. ready (may be nil)
// receives the bound address once listening — the test and tooling hook.
// stop (may be nil) supplements SIGINT/SIGTERM as a shutdown trigger.
func run(args []string, w io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("leaserved", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8311", "listen address")
		shards   = fs.Int("shards", 1, "engine shard count (requests are routed by program shape)")
		workers  = fs.Int("workers", 4, "solver worker pool size per shard")
		queue    = fs.Int("queue", 64, "admission queue depth per shard (full queue => HTTP 429)")
		cache    = fs.Int("cache", 128, "template cache capacity per shard (program shapes)")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-request timeout")
		maxBytes = fs.Int("max-program-bytes", engine.DefaultMaxProgramBytes, "largest accepted TAC program")
		drain    = fs.Duration("drain", 30*time.Second, "graceful shutdown budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("need at least one shard, got %d", *shards)
	}

	router := shard.New(shard.Config{
		Shards: *shards,
		Engine: engine.Config{
			Workers:         *workers,
			QueueDepth:      *queue,
			CacheEntries:    *cache,
			RequestTimeout:  *timeout,
			MaxProgramBytes: *maxBytes,
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: transport.NewMux(router)}

	sigCtx, cancelSig := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancelSig()

	fmt.Fprintf(w, "leaserved: listening on %s (%d shards, %d workers, queue %d, cache %d)\n",
		ln.Addr(), *shards, *workers, *queue, *cache)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-sigCtx.Done():
	case <-stopOrNever(stop):
	}

	fmt.Fprintf(w, "leaserved: draining (budget %s)\n", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := router.Close(ctx); err != nil {
		return fmt.Errorf("engine drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(w, "leaserved: shutdown clean")
	return nil
}

// stopOrNever adapts a possibly-nil stop channel into a never-firing one.
func stopOrNever(stop <-chan struct{}) <-chan struct{} {
	if stop != nil {
		return stop
	}
	return make(chan struct{})
}
