// Command repexd is the multi-run daemon: a single process that
// launches, observes and cancels many concurrent replica-exchange
// simulations over HTTP, sharing one bounded core pool — the service
// face of the same flexible execution modes cmd/repex runs one at a
// time.
//
// Usage:
//
//	repexd [-config daemon.json] [-listen HOST:PORT]
//	       [-total-cores N] [-max-runs N] [-log-level LEVEL]
//
// The optional config file follows internal/config.Daemon; flags
// override it. Endpoints (see docs/repexd.md):
//
//	POST   /runs              launch from a config.Launch JSON body
//	GET    /runs              list run statuses
//	GET    /runs/{id}         one run's status
//	DELETE /runs/{id}         cancel at the next exchange boundary
//	GET    /runs/{id}/status  (also /stats, /metrics, /trace, /events)
//	GET    /metrics           aggregate Prometheus scrape, run-labelled
//	GET    /status            daemon status (runs, pool)
//	GET    /healthz           liveness probe with a run-state summary
//
// Every run gets its own bounded flight recorder ("trace_events" in the
// config sets its depth), served as Chrome trace-event JSON at
// GET /runs/{id}/trace. A "pprof": true config key mounts
// net/http/pprof under /debug/pprof/ — off by default; see
// docs/observability.md for the security note.
//
// A resume launch is a POST /runs whose body names a snapshot file in
// "resume"; checkpoints are written atomically to the "checkpoint"
// path. On SIGINT/SIGTERM the daemon cancels every active run and
// waits up to drain_timeout_sec for final snapshots before exiting.
// Diagnostics go to stderr as structured key=value lines; -log-level
// (debug, info, warn, error) sets the threshold.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/serve"
)

func main() {
	cfgPath := flag.String("config", "", "daemon JSON config file (internal/config.Daemon)")
	listen := flag.String("listen", "", "host:port to bind (overrides the config file)")
	totalCores := flag.Int("total-cores", -1, "shared core-pool capacity, 0 unbounded (overrides the config file)")
	maxRuns := flag.Int("max-runs", -1, "concurrently active run bound, 0 unbounded (overrides the config file)")
	logLevel := flag.String("log-level", "info", "stderr log threshold: debug, info, warn or error")
	flag.Parse()
	if err := serve.SetupLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "repexd:", err)
		os.Exit(2)
	}
	if err := run(*cfgPath, *listen, *totalCores, *maxRuns); err != nil {
		slog.Error("daemon failed", "error", err)
		os.Exit(1)
	}
}

func run(cfgPath, listen string, totalCores, maxRuns int) error {
	var d config.Daemon
	if cfgPath != "" {
		data, err := os.ReadFile(cfgPath)
		if err != nil {
			return err
		}
		parsed, err := config.ParseDaemon(data)
		if err != nil {
			return err
		}
		d = *parsed
	} else if err := d.Normalize(); err != nil {
		return err
	}
	if listen != "" {
		d.Listen = listen
	}
	if totalCores >= 0 {
		d.TotalCores = totalCores
	}
	if maxRuns >= 0 {
		d.MaxRuns = maxRuns
	}

	reg := serve.NewRegistry(d.TotalCores, d.MaxRuns)
	reg.SetTraceEvents(d.TraceEvents)
	if d.Pprof {
		reg.EnablePprof()
		slog.Warn("pprof endpoints enabled under /debug/pprof/; keep the listener trusted")
	}
	srv, lis, err := serve.Listen(d.Listen, reg.Handler())
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	slog.Info("listening", "addr", fmt.Sprintf("http://%s", lis.Addr()),
		"total_cores", d.TotalCores, "max_runs", d.MaxRuns)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		// Graceful drain: stop accepting work, cancel every active run
		// (each writes its final boundary snapshot if configured) and
		// bound the wait so a wedged run cannot block shutdown forever.
		slog.Info("draining runs", "signal", s.String())
		_ = srv.Close()
		reg.CancelAll()
		timeout := time.Duration(d.DrainTimeoutSec * float64(time.Second))
		if !reg.Wait(timeout) {
			return fmt.Errorf("drain timed out after %s with runs still active", timeout)
		}
		slog.Info("drained")
	}
	return nil
}
