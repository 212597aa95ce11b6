package config_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
)

// End-to-end tests of the shipped example configuration files: parse
// them, run the simulation they describe on the virtual cluster through
// bench.LaunchParams — the mapping cmd/repex and repexd run — and check
// the outcome.

func readConfig(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "configs", name))
	if err != nil {
		t.Fatalf("reading shipped config: %v", err)
	}
	return data
}

func launchConfig(t *testing.T, simName, resName string) bench.RunParams {
	t.Helper()
	return launchData(t, readConfig(t, simName), resName)
}

// launchData is launchConfig over a simulation file's bytes.
func launchData(t *testing.T, simData []byte, resName string) bench.RunParams {
	t.Helper()
	simFile, err := config.ParseSimulation(simData)
	if err != nil {
		t.Fatal(err)
	}
	resFile, err := config.DecodeResource(readConfig(t, resName))
	if err != nil {
		t.Fatal(err)
	}
	params, err := bench.LaunchParams(&config.Launch{Sim: simFile, Res: resFile})
	if err != nil {
		t.Fatal(err)
	}
	return params
}

func runConfig(t *testing.T, simName, resName string) *core.Report {
	t.Helper()
	rep, err := bench.Run(launchConfig(t, simName, resName))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestShippedTSUConfig(t *testing.T) {
	rep := runConfig(t, "tsu_supermic.json", "supermic_144.json")
	if rep.DimCode != "TSU" || rep.Replicas != 6*3*8 {
		t.Fatalf("report %s/%d, want TSU/144", rep.DimCode, rep.Replicas)
	}
	if rep.Mode != core.ModeI {
		t.Fatalf("mode %v, want I (144 cores for 144 replicas)", rep.Mode)
	}
	d := rep.Decompose()
	if d.TMD < 400 || d.TMD > 440 {
		t.Fatalf("3-dim cycle MD %v, want ~3x139.6", d.TMD)
	}

	// A file that still carries the retired "exchange_workers" key parses
	// (encoding/json ignores it) and runs the same run.
	legacy := bytes.Replace(readConfig(t, "tsu_supermic.json"), []byte("{"), []byte(`{"exchange_workers": 4, `), 1)
	got, err := bench.Run(launchData(t, legacy, "supermic_144.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got.SlotFingerprint != rep.SlotFingerprint || got.SlotRows != rep.SlotRows || got.Makespan() != rep.Makespan() {
		t.Fatalf("with exchange_workers: fingerprint %#x rows %d makespan %v; without: %#x %d %v",
			got.SlotFingerprint, got.SlotRows, got.Makespan(), rep.SlotFingerprint, rep.SlotRows, rep.Makespan())
	}
}

func TestShippedFeedbackConfig(t *testing.T) {
	simFile, err := config.ParseSimulation(readConfig(t, "feedback_small.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := simFile.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.TriggerName(); got != "feedback" {
		t.Fatalf("trigger %q, want feedback", got)
	}
	rep := runConfig(t, "feedback_small.json", "small_cluster_16.json")
	if rep.Trigger != "feedback" {
		t.Fatalf("report trigger %q, want feedback", rep.Trigger)
	}
	if rep.ExchangeEvents == 0 {
		t.Fatal("no exchange events under the feedback trigger")
	}
	acc := rep.AcceptanceRatioByDim(0)
	if acc <= 0 || acc >= 1 {
		t.Fatalf("acceptance %v out of (0,1)", acc)
	}
}

// TestShippedSaturationConfig is scripts/ci/saturation_smoke.sh without
// the listener: feedback_small.json with a 0.9 target its ladder cannot
// reach ends with dimension 0's controller saturated at the window clamp.
func TestShippedSaturationConfig(t *testing.T) {
	params := launchConfig(t, "saturation_small.json", "small_cluster_16.json")
	if _, err := bench.Run(params); err != nil {
		t.Fatal(err)
	}
	fb, ok := params.Spec.Trigger.(*core.FeedbackTrigger)
	if !ok {
		t.Fatalf("trigger %q, want feedback", params.Spec.TriggerName())
	}
	if st := fb.DimStatus(0); !st.Saturated {
		t.Fatalf("dimension 0 ended unsaturated: %+v", st)
	}
}

func TestShippedAsyncPHConfig(t *testing.T) {
	rep := runConfig(t, "async_ph_small.json", "small_cluster_16.json")
	if rep.DimCode != "H" {
		t.Fatalf("dim code %q, want H", rep.DimCode)
	}
	if rep.Pattern != core.PatternAsynchronous {
		t.Fatal("pattern lost in config round trip")
	}
	if rep.ExchangeEvents == 0 {
		t.Fatal("no asynchronous exchange events")
	}
	acc := rep.AcceptanceRatioByDim(0)
	if acc <= 0 || acc >= 1 {
		t.Fatalf("pH acceptance %v out of (0,1)", acc)
	}
}
