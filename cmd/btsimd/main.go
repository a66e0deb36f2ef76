// Command btsimd serves replica campaigns over HTTP: POST a netspec
// Spec (or a list of parameter points), a seed range and a slot
// horizon to /v1/jobs and the service runs the campaign on the
// internal/runner pool, streams progress and live metrics snapshots as
// server-sent events, and caches completed results by canonical spec
// hash so a resubmitted campaign is a lookup rather than a simulation.
// The results are byte-identical to running the same campaign
// in-process — the service adds scheduling, not noise.
//
// Usage:
//
//	btsimd -addr :8080
//	curl -s localhost:8080/v1/jobs -d @examples/specs/office-floor.json
//	curl -N localhost:8080/v1/jobs/j1/events
//	curl -s localhost:8080/v1/jobs/j1
//	curl -s localhost:8080/v1/stats
//	curl -s -X DELETE localhost:8080/v1/jobs/j1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/simd"
)

// Server timeouts. A client gets readHeaderTimeout to send its request
// headers and an idle keep-alive connection is closed after idleTimeout,
// so stalled or abandoned connections cannot pile up. There is
// deliberately no WriteTimeout: it would cut the long-lived SSE event
// streams of campaigns that run for minutes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the HTTP server for handler h on addr.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxJobs := flag.Int("max-jobs", 2, "campaigns running concurrently")
	queue := flag.Int("queue", 16, "jobs queued behind the running ones before submissions get 429")
	cacheSize := flag.Int("cache", 64, "result-cache capacity in campaigns (negative disables)")
	ckCache := flag.Int("ck-cache", 16, "checkpoint-cache capacity in settled worlds for forked campaigns (negative disables)")
	workers := flag.Int("workers", 0, "worker pool size per campaign (0 = GOMAXPROCS, -1 = serial)")
	snapshot := flag.Uint64("snapshot-slots", 2000, "period in slots of SSE snapshot frames, each the running metrics window of the campaign's first replica (0 disables)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget: SIGTERM stops intake and lets running campaigns finish for up to this long before they are canceled")
	flag.Parse()

	engine := simd.New(simd.Options{
		MaxJobs:             *maxJobs,
		QueueDepth:          *queue,
		CacheSize:           *cacheSize,
		CheckpointCacheSize: *ckCache,
		Workers:             *workers,
		SnapshotSlots:       *snapshot,
	})
	srv := newServer(*addr, engine.Handler())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		// Drain before touching the HTTP server: running campaigns
		// finish (queued ones cancel), every SSE subscriber gets its
		// terminal frame and its handler returns, and only then does
		// Shutdown wait out the connections — in the old order it
		// stalled on the very streams the engine was about to close.
		fmt.Fprintln(os.Stderr, "btsimd: draining")
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := engine.Drain(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "btsimd: drain budget exhausted; canceling remaining jobs")
		}
		cancel()
		engine.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	}()

	fmt.Fprintf(os.Stderr, "btsimd: listening on %s\n", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "btsimd: %v\n", err)
		os.Exit(1)
	}
	<-done
}
