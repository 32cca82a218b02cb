// Command taoptd is the long-running campaign service: an HTTP/JSON API to
// submit scenario-DSL run documents, poll their status, and fetch the
// resulting v5 exports, telemetry digests and binary traces. Results are
// cached by the canonical scenario hash of the run configuration (minus the
// document name), so identical requests — the overwhelming majority at
// fleet scale — are cache hits served byte-identically to a fresh compute,
// and N concurrent identical submits compute exactly once.
//
// Usage:
//
//	taoptd                          # in-memory store on :8347
//	taoptd -data /var/lib/taopt     # durable file store
//	taoptd -addr :9000 -workers 4
//
// Walkthrough (see also README.md):
//
//	curl -s -X POST --data-binary @run.json 'localhost:8347/v1/runs?wait=1'
//	curl -s localhost:8347/v1/runs/r-000001/export
//
// SIGINT or SIGTERM shuts the server down gracefully: it stops accepting
// connections, lets in-progress requests finish, then drains in-flight
// computes so no run is left queued in the store, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"taopt/internal/cli"
	"taopt/internal/service"
)

var fatalf = cli.Fatalf("taoptd")

// Connection timeouts. A submit or a ?wait=1 request may legitimately block
// for a whole compute, so there is no read/write deadline on the request
// itself — only on the header, which bounds slow clients holding a
// connection open, and on idle keep-alive connections.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr    = flag.String("addr", ":8347", "listen address")
		dataDir = flag.String("data", "", "data directory for the durable file store (empty = in-memory)")
		workers = flag.Int("workers", 0, "max concurrently computed runs (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	cfg := service.Config{Workers: *workers}
	store := "memory"
	if *dataDir != "" {
		repo, err := service.NewFileRepo(*dataDir)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Repo = repo
		store = *dataDir
	}
	svc, err := service.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	// Bind before announcing readiness so scripts can poll the printed line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "taoptd: listening on %s (store: %s, workers: %d)\n",
		ln.Addr(), store, *workers)
	srv := &http.Server{
		Handler:           service.NewHandler(svc),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	select {
	case err := <-served:
		fatalf("%v", err)
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "taoptd: %v: shutting down\n", sig)
	}
	// Shutdown waits for in-progress requests, including ?wait=1 submits
	// blocked on a compute; Close then drains the computes no request waits
	// on, so every run settles before the process exits.
	if err := srv.Shutdown(context.Background()); err != nil {
		fatalf("%v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	if err := svc.Close(); err != nil {
		fatalf("%v", err)
	}
}
