// Command cagcserve runs the simulator as a long-lived HTTP service:
// submit jobs (single run, batch, sweep, fleet) as JSON, poll status,
// fetch deterministic result documents, text summaries, and Chrome
// traces. Admission is bounded — a full queue answers 429 with a
// Retry-After estimate instead of queueing unboundedly — and results
// are cached by canonical configuration hash, so a repeated submission
// is answered byte-identically without re-running. Finished jobs stay
// retrievable for as long as they are among the last -cache finished
// (at least -queue plus the job workers); an older job ID answers 410
// Gone, and resubmitting its spec answers the same document.
//
// Usage:
//
//	cagcserve -addr localhost:8080
//	cagcserve -queue 32 -jobworkers 4 -cache 256 -timeout 2m
//
//	curl -s localhost:8080/v1/jobs -d '{"workload":"mail","scheme":"cagc"}'
//	curl -s localhost:8080/v1/jobs/j-000001/result
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM begin a graceful shutdown: admission stops, in-flight
// jobs drain (bounded by -drain), then the process exits.
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

	"cagc/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stderr, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "cagcserve:", err)
		os.Exit(1)
	}
}

// run is the testable body of main: parse flags, serve until a signal
// arrives, drain, exit. ready (when non-nil) receives the bound
// address once the listener is up.
func run(args []string, stderr io.Writer, shutdown <-chan os.Signal, ready func(addr string)) error {
	fs := flag.NewFlagSet("cagcserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "localhost:8080", "listen address")
		queue      = fs.Int("queue", 16, "job queue depth; submissions past it get 429")
		jobWorkers = fs.Int("jobworkers", 0, "jobs executing concurrently (0 = one per core)")
		cacheN     = fs.Int("cache", 128, "result-cache entries (documents, LRU), and how many finished jobs stay retrievable (at least -queue plus the job workers); an older job ID answers 410")
		timeout    = fs.Duration("timeout", 0, "default per-job deadline for jobs that name none (0 = none)")
		maxTimeout = fs.Duration("maxtimeout", 0, "hard cap on any job's deadline (0 = uncapped)")
		drain      = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *queue < 1 {
		return fmt.Errorf("-queue %d: depth must be positive", *queue)
	}
	if *jobWorkers < 0 {
		return fmt.Errorf("-jobworkers %d: cannot be negative (0 = one per core)", *jobWorkers)
	}
	if *cacheN < 1 {
		return fmt.Errorf("-cache %d: capacity must be positive", *cacheN)
	}
	if *timeout < 0 || *maxTimeout < 0 || *drain < 0 {
		return fmt.Errorf("durations cannot be negative")
	}

	s := serve.New(serve.Options{
		QueueDepth:     *queue,
		Workers:        *jobWorkers,
		CacheEntries:   *cacheN,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// A client that stalls mid-headers or parks idle connections must
	// not hold server resources forever. No WriteTimeout: a result
	// document is written for as long as its reader takes.
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(stderr, "cagcserve: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-shutdown:
	}
	fmt.Fprintf(stderr, "cagcserve: shutting down (drain budget %v)\n", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first, then drain the job engine.
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "cagcserve: drain budget exceeded; in-flight jobs were cancelled\n")
	}
	<-errc // Serve has returned http.ErrServerClosed
	m := s.MetricsSnapshot()
	fmt.Fprintf(stderr, "cagcserve: served %d jobs (%d cache hits, %d rejected), %d events in %v\n",
		m.Queue.Done, m.Cache.Hits, m.Queue.Rejected, m.Events, m.Uptime.Round(time.Millisecond))
	return nil
}
