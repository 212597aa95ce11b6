package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// The tests call run in-process on the shipped configs, so the path a
// user's `repex -sim ... -res ...` takes is the path under test.

func shipped(name string) string { return filepath.Join("..", "..", "configs", name) }

// runChaos runs the committed chaos pair the way the CI chaos-soak lane
// invokes the binary, with stdout silenced.
func runChaos(t *testing.T, ctx context.Context, resume, ckpt string) (*serve.Run, error) {
	t.Helper()
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() {
		os.Stdout = stdout
		null.Close()
	}()
	return run(ctx, shipped("chaos_sim_small.json"), shipped("chaos_small.json"),
		resume, ckpt, 1, "", "")
}

func mustReport(t *testing.T, r *serve.Run) *core.Report {
	t.Helper()
	rep, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func fingerprint(t *testing.T, r *serve.Run) string {
	t.Helper()
	rep := mustReport(t, r)
	return fmt.Sprintf("%d %016x", rep.SlotRows, rep.SlotFingerprint)
}

// TestRunReproducesChaosGolden: the binary's own assembly path yields
// the committed golden slot fingerprint, and a run nobody observes
// stays bus-free and tracer-free.
func TestRunReproducesChaosGolden(t *testing.T) {
	r, err := runChaos(t, context.Background(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(shipped("chaos_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, r), strings.TrimSpace(string(golden)); got != want {
		t.Fatalf("cmd/repex diverged from configs/chaos_small.golden: got %q, want %q", got, want)
	}
	if spec := r.Spec(); spec.Bus != nil || spec.Tracer != nil || r.Collector() != nil {
		t.Fatalf("unobserved run attached observers: bus=%v tracer=%v collector=%v",
			spec.Bus != nil, spec.Tracer != nil, r.Collector() != nil)
	}
}

// TestRunCancelResume: a context cancelled before the first boundary
// stops the run there with a checkpoint on disk, and -resume from it
// completes with the uninterrupted run's slot history.
func TestRunCancelResume(t *testing.T) {
	full, err := runChaos(t, context.Background(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "snap.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled, err := runChaos(t, ctx, "", ckpt)
	if !errors.Is(err, core.ErrRunCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrRunCancelled", err)
	}
	if st := cancelled.State(); st != core.RunCancelled {
		t.Fatalf("state %v, want cancelled", st)
	}
	if part, _ := cancelled.Result(); part == nil || part.ExchangeEvents >= mustReport(t, full).ExchangeEvents {
		t.Fatalf("cancelled run did not stop early: %+v", part)
	}
	resumed, err := runChaos(t, context.Background(), ckpt, "")
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Spec().Resume == nil {
		t.Fatal("resumed run carries no snapshot")
	}
	if got, want := fingerprint(t, resumed), fingerprint(t, full); got != want {
		t.Fatalf("cancel+resume history %q differs from uninterrupted %q", got, want)
	}
}

// TestRunBadResumeFailsFast: a missing, empty or truncated -resume file
// is rejected before anything runs, naming the path and how to recover.
func TestRunBadResumeFailsFast(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if _, err := runChaos(t, context.Background(), "", good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{"missing.json": nil, "empty.json": {}, "truncated.json": data[:len(data)/2]}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if content != nil {
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := runChaos(t, context.Background(), path, "")
		if err == nil || r != nil {
			t.Fatalf("%s: run started (err %v)", name, err)
		}
		if !errors.Is(err, serve.ErrResume) {
			t.Errorf("%s: %v is not a resume error", name, err)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "run without -resume to start fresh") {
			t.Errorf("%s: error %q must name the path and the way out", name, err)
		}
	}
}

// TestRunRefusesBadCheckpointBeforeResuming: a -resume file that
// decodes but that the run cannot continue from is refused before
// anything runs — main exits 1 on the error — and before the
// "resuming" line, which would claim a resume that never happens.
func TestRunRefusesBadCheckpointBeforeResuming(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if _, err := runChaos(t, context.Background(), "", good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*core.Snapshot){
		"other trigger":         func(sn *core.Snapshot) { sn.Trigger = "count" },
		"skipped engine replay": func(sn *core.Snapshot) { sn.EngineDraws = -1 },
	} {
		sn, err := core.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(sn)
		enc, err := sn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := os.CreateTemp(dir, "stdout")
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = out
		r, err := run(context.Background(), shipped("chaos_sim_small.json"), shipped("chaos_small.json"),
			bad, "", 1, "", "")
		os.Stdout = stdout
		printed, _ := os.ReadFile(out.Name())
		out.Close()
		if err == nil || r != nil || !errors.Is(err, serve.ErrResume) {
			t.Errorf("%s: run %v, err %v; want a resume error and no run", name, r != nil, err)
		}
		if strings.Contains(string(printed), "resuming") {
			t.Errorf("%s: printed %q before refusing", name, printed)
		}
	}
}

// TestRunRejectsReplicaWiderThanPilot: a configuration whose replicas
// fit no pilot is an error naming both widths (main prints it and exits
// 1), not a panic inside the runtime.
func TestRunRejectsReplicaWiderThanPilot(t *testing.T) {
	dir := t.TempDir()
	sim := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(sim, []byte(`{"name": "wide", "seed": 1,
		"dimensions": [{"type": "T", "count": 4, "min": 273, "max": 373}],
		"cores_per_replica": 8, "steps_per_cycle": 2000, "cycles": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"small.json": `{"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 4}`,
		"split.json": `{"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 8, "pilots": 2}`,
	} {
		res := filepath.Join(dir, name)
		if err := os.WriteFile(res, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := run(context.Background(), sim, res, "", "", 0, "", "")
		if err == nil || r != nil {
			t.Fatalf("%s: run started (err %v)", name, err)
		}
		if !strings.Contains(err.Error(), "cores_per_replica 8 exceeds the widest pilot (4 cores") {
			t.Errorf("%s: error %q must name both widths", name, err)
		}
	}
}
