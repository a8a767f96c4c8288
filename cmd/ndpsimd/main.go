// Command ndpsimd runs the NDP simulator as a long-lived
// simulation-as-a-service daemon: scenario Specs are submitted as jobs
// over HTTP/JSON, validated up front, queued on a bounded worker pool,
// streamed back as Server-Sent Events, and memoized in a
// content-addressed result cache keyed by (canonical Spec hash, seed).
//
// Usage:
//
//	ndpsimd -addr :9464 -workers 4 -cache-entries 512
//
//	curl -s localhost:9464/api/catalog
//	curl -s -X POST localhost:9464/api/jobs \
//	     -d '{"scenario":"incast","params":{"hosts":16,"degree":8,"flowsize":45000}}'
//	curl -N localhost:9464/api/jobs/job-000001/events   # SSE progress + result
//	curl -s localhost:9464/api/workers
//
// SIGINT/SIGTERM drains gracefully: submissions are refused with 503,
// queued and running jobs finish, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ndp/internal/simd"
)

func main() {
	var (
		addr         = flag.String("addr", ":9464", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulation jobs (0 = all cores)")
		cacheEntries = flag.Int("cache-entries", 128, "result cache capacity in entries (0 disables caching)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "how long to wait for in-flight jobs on shutdown")
	)
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "ndpsimd: -workers must be >= 0, got %d\n", *workers)
		os.Exit(2)
	}
	if *cacheEntries < 0 {
		fmt.Fprintf(os.Stderr, "ndpsimd: -cache-entries must be >= 0, got %d\n", *cacheEntries)
		os.Exit(2)
	}

	cache := *cacheEntries
	if cache == 0 {
		cache = -1 // Config: negative disables, 0 means default
	}
	srv := simd.New(simd.Config{Workers: *workers, CacheEntries: cache})
	// ReadHeaderTimeout stops a client that never finishes its headers
	// from holding a connection open forever.
	httpSrv := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: 10 * time.Second}

	errc := make(chan error, 1)
	go func() {
		log.Printf("ndpsimd: serving on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("ndpsimd: %v", err)
	case got := <-sig:
		log.Printf("ndpsimd: %v — draining (finishing queued and running jobs)", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("ndpsimd: drain incomplete: %v", err)
		httpSrv.Close()
		os.Exit(1)
	}
	// Jobs are done, so every SSE stream has delivered its result event;
	// Shutdown now only waits for response tails and idle keep-alives.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("ndpsimd: shutdown: %v", err)
		os.Exit(1)
	}
	log.Printf("ndpsimd: drained cleanly")
}
