package repex

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engines"
)

func TestRunLocalTREMD(t *testing.T) {
	spec := &Spec{
		Name:            "api-t-remd",
		Dims:            []Dimension{{Type: Temperature, Values: GeometricTemperatures(280, 340, 4)}},
		Pattern:         PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   40,
		Cycles:          2,
		Seed:            5,
	}
	rep, err := RunLocal(spec, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicas != 4 || rep.Engine != "amber-real" {
		t.Fatalf("report %d replicas engine %q", rep.Replicas, rep.Engine)
	}
	if len(rep.Records) != 2 {
		t.Fatalf("records %d, want 2", len(rep.Records))
	}
}

func TestRunLocalWithNAMDFlavor(t *testing.T) {
	eng, err := NewDipeptideEngine("namd", 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Name:            "api-namd",
		Dims:            []Dimension{{Type: Temperature, Values: []float64{290, 310}}},
		CoresPerReplica: 1,
		StepsPerCycle:   30,
		Cycles:          1,
	}
	rep, err := RunLocalWith(spec, eng, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != "namd-real" {
		t.Fatalf("engine %q", rep.Engine)
	}
}

func TestNewDipeptideEngineBadFlavor(t *testing.T) {
	if _, err := NewDipeptideEngine("gromacs", 1); err == nil {
		t.Fatal("unknown flavor accepted")
	}
}

func TestRunVirtualTSU(t *testing.T) {
	spec := &Spec{
		Name: "api-tsu",
		Dims: []Dimension{
			{Type: Temperature, Values: GeometricTemperatures(273, 373, 3)},
			{Type: Salt, Values: []float64{0.1, 0.3, 0.9}},
			{Type: Umbrella, Values: UniformWindows(3), Torsion: "phi", K: UmbrellaK002},
		},
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          2,
		Seed:            9,
	}
	rep, err := RunVirtual(spec, SuperMIC(), 27, AmberSander, 2881, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DimCode != "TSU" || rep.Mode.String() != "I" {
		t.Fatalf("report %s mode %v", rep.DimCode, rep.Mode)
	}
	if rep.Makespan() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestRunVirtualModeII(t *testing.T) {
	spec := &Spec{
		Name:            "api-mode2",
		Dims:            []Dimension{{Type: Temperature, Values: GeometricTemperatures(273, 373, 16)}},
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          1,
		Seed:            2,
	}
	rep, err := RunVirtual(spec, Small(2, 4), 8, AmberSander, 2881, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode.String() != "II" {
		t.Fatalf("8 cores / 16 replicas: mode %v, want II", rep.Mode)
	}
}

func TestRunVirtualUnknownEngine(t *testing.T) {
	spec := &Spec{
		Name:            "bad",
		Dims:            []Dimension{{Type: Temperature, Values: []float64{300, 310}}},
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          1,
	}
	if _, err := RunVirtual(spec, SuperMIC(), 2, "gromacs", 100, 1); err == nil {
		t.Fatal("unknown engine kind accepted")
	}
}

func TestRunVirtualRejectsNonPositiveAtoms(t *testing.T) {
	spec := &Spec{
		Name:            "bad",
		Dims:            []Dimension{{Type: Temperature, Values: []float64{300, 310}}},
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          1,
	}
	for _, atoms := range []int{0, -5} {
		if _, err := RunVirtual(spec, SuperMIC(), 2, AmberSander, atoms, 1); err == nil {
			t.Fatalf("atom count %d accepted", atoms)
		}
	}
}

// TestRunVirtualRejectsReplicaWiderThanPilot: the admission rule of the
// config front ends holds for the library entry point too — an error
// naming both widths, not the runtime's "fits no pilot" panic.
func TestRunVirtualRejectsReplicaWiderThanPilot(t *testing.T) {
	spec := &Spec{
		Name:            "wide",
		Dims:            []Dimension{{Type: Temperature, Values: []float64{300, 310}}},
		CoresPerReplica: 8,
		StepsPerCycle:   100,
		Cycles:          1,
	}
	_, err := RunVirtual(spec, Small(1, 8), 4, AmberSander, 2881, 1)
	if err == nil || !strings.Contains(err.Error(), "cores_per_replica 8 exceeds the widest pilot (4 cores") {
		t.Fatalf("err = %v, want the admission error", err)
	}
}

// TestRunLocalRejectsUnknownTorsion: an umbrella dimension on a torsion
// the dipeptide topology does not label is an error from RunLocal.
func TestRunLocalRejectsUnknownTorsion(t *testing.T) {
	spec := &Spec{
		Name:            "chi",
		Dims:            []Dimension{{Type: Umbrella, Values: UniformWindows(2), Torsion: "chi", K: UmbrellaK002}},
		CoresPerReplica: 1,
		StepsPerCycle:   10,
		Cycles:          1,
	}
	_, err := RunLocal(spec, 1, 1)
	if err == nil || !strings.Contains(err.Error(), `no torsion labelled "chi"`) {
		t.Fatalf("err = %v, want the unknown-torsion error", err)
	}
}

// TestRunLocalRefusesResume: a snapshot carries no molecular state, so a
// real-engine run handed one fails before it simulates anything, naming
// the engine, instead of restarting every replica from fresh
// coordinates. The snapshot is a real one, taken by a virtual run of the
// same spec.
func TestRunLocalRefusesResume(t *testing.T) {
	newSpec := func() *Spec {
		return &Spec{
			Name:            "resume-real",
			Dims:            []Dimension{{Type: Temperature, Values: GeometricTemperatures(280, 340, 4)}},
			CoresPerReplica: 1,
			StepsPerCycle:   40,
			Cycles:          2,
			Seed:            5,
		}
	}
	var snap *Snapshot
	spec := newSpec()
	spec.SnapshotEvery = 1
	spec.OnSnapshot = func(sn *Snapshot) { snap = sn }
	if _, err := RunVirtual(spec, Small(1, 4), 4, AmberSander, 2881, 5); err != nil || snap == nil {
		t.Fatalf("virtual run: %v, snapshot %v", err, snap != nil)
	}
	spec = newSpec()
	spec.Resume = snap
	rep, err := RunLocal(spec, 2, 11)
	if err == nil || !strings.Contains(err.Error(), `engine "amber-real" cannot resume`) {
		t.Fatalf("RunLocal resumed: report %v, err %v", rep, err)
	}
}

func TestVersion(t *testing.T) {
	if Version == "" {
		t.Fatal("empty version")
	}
}

// TestRunVirtualMatchesBenchRun: RunVirtual is bench.Run with the kind's
// engine, a single unbounded pilot and the same seeds — one spec per
// kind yields the identical slot history.
func TestRunVirtualMatchesBenchRun(t *testing.T) {
	newSpec := func() *Spec {
		return &Spec{
			Name:            "api-parity",
			Dims:            []Dimension{{Type: Temperature, Values: GeometricTemperatures(280, 360, 8)}},
			CoresPerReplica: 1, StepsPerCycle: 2000, Cycles: 3, Seed: 9,
		}
	}
	kinds := map[VirtualEngineKind]func(int64) core.Engine{
		AmberSander: func(s int64) core.Engine { return engines.NewAmberVirtual(2881, s) },
		AmberPmemd:  func(s int64) core.Engine { return engines.NewPmemdVirtual(2881, s) },
		NAMD:        func(s int64) core.Engine { return engines.NewNAMDVirtual(2881, s) },
	}
	for kind, newEngine := range kinds {
		got, err := RunVirtual(newSpec(), Small(1, 8), 8, kind, 2881, 17)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bench.Run(bench.RunParams{Spec: newSpec(), Cluster: Small(1, 8),
			PilotCores: 8, NewEngine: newEngine, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		if got.SlotFingerprint != want.SlotFingerprint || got.SlotRows != want.SlotRows || got.Engine != want.Engine {
			t.Errorf("%s: RunVirtual %s %d rows %016x, bench.Run %s %d rows %016x", kind,
				got.Engine, got.SlotRows, got.SlotFingerprint, want.Engine, want.SlotRows, want.SlotFingerprint)
		}
	}
}
