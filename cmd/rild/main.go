// Command rild is the SAT-attack service daemon: it accepts
// oracle-guided attack jobs over HTTP JSON, runs them on a bounded
// worker pool with per-job deadlines and panic isolation, and persists
// every job — spec, DIP journal, outcome — under -state, so a killed
// daemon restarts and resumes in-flight attacks without repeating a
// single oracle query.
//
// Serve:
//
//	rild -state /var/lib/rild [-addr :8372] [-workers N] [-cache-dir DIR]
//
// SIGINT/SIGTERM drains gracefully: stop accepting, give running jobs
// -drain-grace to finish, then interrupt them (their journals keep
// what they paid for), flush cache GC, exit 0.
//
// Load-test an already-running daemon:
//
//	rild -load 1000 -addr 127.0.0.1:8372
//
// The load harness (load.go) submits N attack jobs on 8 locked c17
// circuits, each with a 30 s deadline and no_cache set so that every
// job runs live, and fails unless every job reaches a terminal state
// exactly once.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8372", "listen address (serve) or daemon address (-load)")
		stateDir   = flag.String("state", "", "persistent state directory (required to serve)")
		workers    = flag.Int("workers", 0, "job workers (0 = all CPUs)")
		defTimeout = flag.Duration("default-timeout", 2*time.Minute, "job deadline when the spec sets none (0 = none)")
		drainGrace = flag.Duration("drain-grace", 10*time.Second, "how long a drain lets running jobs finish before interrupting them")
		loadJobs   = flag.Int("load", 0, "run as a load-test client: submit N attack jobs against -addr and exit")
		loadConc   = flag.Int("load-concurrency", 32, "load client goroutines")
	)
	var cacheFlags cache.Flags
	cacheFlags.Register(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *loadJobs > 0 {
		if err := runLoad(ctx, *addr, LoadOptions{Jobs: *loadJobs, Concurrency: *loadConc}); err != nil {
			fail(err)
		}
		return
	}

	if *stateDir == "" {
		fmt.Fprintln(os.Stderr, "rild: -state is required (or -load to run as a client)")
		os.Exit(2)
	}
	c, err := cacheFlags.Open()
	if err != nil {
		fail(err)
	}
	logger := log.New(os.Stderr, "rild: ", log.LstdFlags)
	srv, err := serve.New(serve.Options{
		StateDir:       *stateDir,
		Workers:        *workers,
		Cache:          c,
		DefaultTimeout: *defTimeout,
		Logf:           logger.Printf,
	})
	if err != nil {
		fail(err)
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// The actual address line doubles as the readiness signal for
	// scripts that started us on :0.
	fmt.Printf("rild: listening on %s\n", ln.Addr())
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() {
		defer recoverToErr(serveErr)
		serveErr <- hs.Serve(ln)
	}()

	select {
	case <-ctx.Done():
		stop() // a second signal kills immediately
		logger.Printf("signal received; draining (grace %v)", *drainGrace)
		srv.Drain(*drainGrace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = hs.Shutdown(shutdownCtx)
		cancel()
		if err != nil {
			logger.Printf("shutdown: %v", err)
		}
		logger.Printf("drained; exiting")
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}
}

// recoverToErr converts a panic in the HTTP serve goroutine into an
// error on the channel so main can report it instead of crashing.
func recoverToErr(ch chan<- error) {
	if r := recover(); r != nil {
		ch <- fmt.Errorf("http serve panicked: %v", r)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rild:", err)
	os.Exit(1)
}
