// Command repex runs a replica-exchange simulation described by a JSON
// simulation file and a JSON resource file, in virtual time on the
// modelled cluster — the reproduction's equivalent of the RepEx
// command-line entry points (repex-amber-t, repex-namd-t, ...).
//
// Usage:
//
//	repex -sim simulation.json -res resource.json
//
// The simulation file follows internal/config.Simulation, e.g.:
//
//	{
//	  "name": "tsu-demo", "engine": "amber", "atoms": 2881,
//	  "dimensions": [
//	    {"type": "T", "count": 6, "min": 273, "max": 373},
//	    {"type": "S", "values": [0.1, 0.2, 0.4]},
//	    {"type": "U", "count": 8, "torsion": "phi"}
//	  ],
//	  "cores_per_replica": 1, "steps_per_cycle": 6000, "cycles": 4
//	}
//
// The optional "trigger" field ("barrier", "window", "count",
// "adaptive", "feedback", with "trigger_count" / "async_window_sec" /
// "target_acceptance" / "window_events" as parameters) selects an
// exchange-trigger policy beyond the two canonical patterns.
//
// and the resource file internal/config.Resource:
//
//	{"machine": "supermic", "pilot_cores": 144, "walltime_sec": 3600}
//
// A positive "walltime_sec" bounds each pilot's life; expired pilots are
// replaced transparently (failover) and interrupted MD segments are
// resubmitted. Checkpoint/restart covers runs longer than any single
// session: -checkpoint FILE writes a snapshot every -checkpoint-every
// exchange events, and -resume FILE continues a killed run from its last
// snapshot.
//
// Observability: -listen HOST:PORT (or a "serve": {"listen": ...} block
// in the simulation file) starts the live HTTP status server with
// GET /status, /stats, /metrics (Prometheus text format), /healthz and
// /trace. With a listener active the process keeps serving after the
// run completes until interrupted, so the final statistics remain
// scrapeable. A "serve": {"pprof": true} block additionally mounts
// net/http/pprof under /debug/pprof/ (off by default — see
// docs/observability.md for the security note).
//
// Tracing: -trace FILE attaches the bounded flight recorder and writes
// the run's span timeline as Chrome trace-event JSON at exit; load the
// file in Perfetto (https://ui.perfetto.dev) or chrome://tracing. With
// -listen the recorder is attached too and served live at GET /trace.
//
// Diagnostics go to stderr as structured key=value lines; -log-level
// (debug, info, warn, error) sets the threshold. The human-readable
// run report stays on stdout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	simPath := flag.String("sim", "", "simulation JSON file (required)")
	resPath := flag.String("res", "", "resource JSON file (required)")
	resumePath := flag.String("resume", "", "snapshot file to resume from")
	ckptPath := flag.String("checkpoint", "", "snapshot file to write checkpoints to")
	ckptEvery := flag.Int("checkpoint-every", 1, "exchange events between checkpoints")
	listen := flag.String("listen", "", "host:port for the live status server (overrides the sim file's serve block)")
	tracePath := flag.String("trace", "", "write the flight recorder's span timeline as Chrome trace-event JSON to this file at exit")
	logLevel := flag.String("log-level", "info", "stderr log threshold: debug, info, warn or error")
	flag.Parse()
	if *simPath == "" || *resPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := serve.SetupLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "repex:", err)
		os.Exit(2)
	}
	if _, err := run(context.Background(), *simPath, *resPath, *resumePath, *ckptPath, *ckptEvery, *listen, *tracePath); err != nil {
		slog.Error("run failed", "error", err)
		os.Exit(1)
	}
}

// run is a one-run client of the lifecycle object repexd hosts: the two
// files become a config.Launch, serve.NewRun assembles it
// (docs/architecture.md, "Run assembly"); what is left here is the
// listener, the wait and the stdout summary.
func run(ctx context.Context, simPath, resPath, resumePath, ckptPath string, ckptEvery int, listen, tracePath string) (*serve.Run, error) {
	simData, err := os.ReadFile(simPath)
	if err != nil {
		return nil, err
	}
	resData, err := os.ReadFile(resPath)
	if err != nil {
		return nil, err
	}
	simFile, err := config.ParseSimulation(simData)
	if err != nil {
		return nil, err
	}
	resFile, err := config.DecodeResource(resData)
	if err != nil {
		return nil, err
	}
	launch := &config.Launch{Sim: simFile, Res: resFile, Resume: resumePath, Checkpoint: ckptPath}
	if ckptPath != "" {
		launch.CheckpointEvery = max(ckptEvery, 1)
	}
	if listen == "" && simFile.Serve != nil {
		listen = simFile.Serve.Listen
	}

	// SIGINT/SIGTERM cancels through the dispatcher's context path: the
	// run stops at the next exchange boundary, drains its in-flight
	// segments and (with -checkpoint) leaves a resumable final snapshot.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	r, err := serve.NewRun(ctx, launch, listen != "", tracePath != "", 0)
	if errors.Is(err, serve.ErrResume) {
		err = fmt.Errorf("%w (is the path right? run without -resume to start fresh)", err)
	}
	if err != nil {
		return nil, err
	}
	spec := r.Spec()
	if spec.Resume != nil {
		fmt.Printf("resuming %q from snapshot at exchange event %d\n", spec.Name, spec.Resume.Events)
	}
	// window_events parameterizes the feedback controller and the
	// collector's rolling statistics; with neither in play it is dead
	// configuration worth flagging (target_acceptance on a non-feedback
	// trigger is rejected outright by the config layer).
	if simFile.WindowEvents != 0 && spec.TriggerName() != "feedback" &&
		listen == "" && ckptPath == "" {
		slog.Warn("window_events is set but nothing consumes it (no feedback trigger, no -listen, no -checkpoint)")
	}
	if tracePath != "" {
		defer writeTrace(tracePath, spec.Tracer)
	}
	if listen != "" {
		server := r.Server()
		if simFile.Serve != nil && simFile.Serve.Pprof {
			server.EnablePprof()
		}
		srv, lis, err := serve.Listen(listen, server.Handler())
		if err != nil {
			return nil, err
		}
		go func() { _ = srv.Serve(lis) }()
		defer srv.Close()
		fmt.Printf("status server listening on http://%s (/status /stats /metrics /healthz /trace)\n", lis.Addr())
	}

	r.Start(slog.Default())
	<-r.Done()
	report, err := r.Result()
	if err != nil {
		// A failed or cancelled run must exit non-zero promptly even with
		// a listener active — unattended invocations (cron, CI) would
		// otherwise hang on a signal that never comes.
		if errors.Is(err, core.ErrRunCancelled) {
			if report != nil {
				fmt.Print(report.String())
			}
			if ckptPath != "" {
				fmt.Printf("cancelled; resume with -resume %s\n", ckptPath)
			}
		}
		return r, err
	}
	printSummary(r, report)
	if listen != "" {
		fmt.Println("run finished; still serving — interrupt (Ctrl-C) to exit")
		<-ctx.Done()
	}
	return r, nil
}

// writeTrace exports the flight recorder's span timeline as Chrome
// trace-event JSON (the -trace flag, at exit).
func writeTrace(path string, tracer *trace.Recorder) {
	data, err := tracer.ExportJSON()
	if err == nil {
		err = ckpt.WriteAtomic(path, data)
	}
	if err != nil {
		slog.Error("writing trace", "path", path, "error", err)
		return
	}
	slog.Info("trace written", "path", path,
		"spans", tracer.Recorded(), "dropped", tracer.Dropped())
}

// printSummary writes the completed run's report to stdout.
func printSummary(r *serve.Run, report *core.Report) {
	spec := r.Spec()
	fmt.Print(report.String())
	d := report.Decompose()
	fmt.Printf("Eq.1 decomposition per cycle: T_MD=%.1fs T_EX=%.1fs T_data=%.2fs T_RepEx=%.2fs T_RP=%.2fs\n",
		d.TMD, d.TEX, d.TData, d.TRepEx, d.TRP)
	for dim := range spec.Dims {
		tmd, tex := report.DimDecompose(dim)
		fmt.Printf("  dim %d (%s): MD %.1fs, exchange %.1fs, acceptance %.1f%%\n",
			dim, spec.Dims[dim].Type, tmd, tex, 100*report.AcceptanceRatioByDim(dim))
	}
	if col := r.Collector(); col != nil {
		stats := col.Snapshot()
		fmt.Printf("mixing: %d round trips (mean %.1f events), %.0f%% of replicas traversed the full ladder\n",
			stats.RoundTrips, stats.MeanRoundTripEvents, 100*stats.FullTraversalFraction)
		for d, pairs := range stats.AcceptanceWindow {
			var attempted uint64
			for _, p := range pairs {
				attempted += p.Attempted
			}
			// A dimension with no buffered outcomes (single window, or
			// no attempts yet) has no ratio — 0.0% would read as
			// collapsed acceptance.
			if attempted == 0 {
				continue
			}
			fmt.Printf("  dim %d rolling acceptance (last <=%d outcomes/pair): %.1f%%\n",
				d, stats.WindowEvents, 100*analysis.WeightedRatio(pairs))
		}
		if stats.BusDropped > 0 {
			slog.Warn("collector lost events to ring overflow; statistics are partial",
				"dropped", stats.BusDropped)
		}
	}
	st := r.Status()
	for _, ds := range st.Feedback {
		fmt.Printf("  feedback dim %d: target %.2f, measured %.2f over %d outcomes, window %.1fs, min-ready %d\n",
			ds.Dim, ds.Target, ds.Measured, ds.Outcomes, ds.Window, ds.MinReady)
		if ds.Saturated {
			fmt.Printf("    SATURATED: target unreachable at the window clamp — revisit the dim-%d ladder spacing\n", ds.Dim)
		}
	}
	if st.Respace != nil {
		for _, rec := range st.Respace.History {
			fmt.Printf("  RESPACED dim %d (refit %d) at event %d: %s -> %s\n",
				rec.Dim, rec.Refit, rec.Event, fmtLadder(rec.Old), fmtLadder(rec.New))
		}
	}
}

// fmtLadder renders a value ladder compactly for the final summary,
// e.g. "[273 278.5 … 373]".
func fmtLadder(values []float64) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = strconv.FormatFloat(v, 'g', 6, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
