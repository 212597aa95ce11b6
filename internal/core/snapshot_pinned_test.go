package core_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exchange"
)

// The files in testdata/snapshot_v2_*.json were written by the
// reflection encoder (json.MarshalIndent) that Snapshot.Encode used
// before the append-based codec replaced it. They are never
// regenerated: whatever Encode and DecodeSnapshot become, they must
// keep reading these bytes to the value encoding/json reads, and write
// bytes encoding/json reads back to the same value.

// pinnedRun is one pinned checkpoint: the run that produced it, rebuilt
// fresh per call (specs carry triggers and collectors, which are
// stateful), and the exchange event the file was captured at.
type pinnedRun struct {
	file  string
	event int
	// build returns the spec and, when the run carries online analysis,
	// the collector attached to its bus.
	build func() (*core.Spec, *analysis.Collector)
	cores int
}

func pinnedRuns() []pinnedRun {
	return []pinnedRun{
		{
			// A small T x S x U grid under the window trigger, Mode II,
			// with a collector's state attached.
			file: "snapshot_v2_tsu.json", event: 4, cores: 6,
			build: func() (*core.Spec, *analysis.Collector) {
				spec := &core.Spec{
					Name: "pinned-tsu",
					Dims: []core.Dimension{
						{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 3)},
						{Type: exchange.Salt, Values: []float64{0.1, 0.2}},
						{Type: exchange.Umbrella, Values: core.UniformWindows(2), Torsion: "phi", K: core.UmbrellaK002},
					},
					Pattern:         core.PatternAsynchronous,
					Trigger:         core.NewWindowTrigger(100, 0),
					CoresPerReplica: 1,
					StepsPerCycle:   6000,
					Cycles:          3,
					Seed:            11,
					SnapshotEvery:   2,
				}
				return spec, attachCollector(spec)
			},
		},
		{
			// The respacing run of respace_test.go: the feedback trigger's
			// controller state, a refitted grid and the refit history.
			file: "snapshot_v2_feedback_respaced.json", event: 15, cores: 8,
			build: func() (*core.Spec, *analysis.Collector) {
				spec, _, col := mkRespaceRun()
				return spec, col
			},
		},
		{
			// A bounded history: four rows recorded, two retained.
			file: "snapshot_v2_history_tail.json", event: 4, cores: 6,
			build: func() (*core.Spec, *analysis.Collector) {
				spec := smallTREMD(6, 6)
				spec.Name = "pinned-tail"
				spec.HistoryTail = 2
				spec.SnapshotEvery = 2
				return spec, nil
			},
		},
	}
}

func attachCollector(spec *core.Spec) *analysis.Collector {
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	return col
}

// TestPinnedSnapshots checks, per pinned file: DecodeSnapshot agrees
// with encoding/json on the file; Encode's output, read by
// encoding/json, is the same value (so builds that decode with
// encoding/json read new files); and a run resumed from the file ends
// on the uninterrupted run's slot fingerprint.
func TestPinnedSnapshots(t *testing.T) {
	for _, pr := range pinnedRuns() {
		t.Run(pr.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", pr.file))
			if err != nil {
				t.Fatal(err)
			}
			var ref core.Snapshot
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatal(err)
			}
			got, err := core.DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, &ref) {
				t.Fatalf("DecodeSnapshot disagrees with encoding/json:\n got %+v\nwant %+v", got, &ref)
			}
			if got.Events != pr.event {
				t.Fatalf("file captured at event %d, want %d", got.Events, pr.event)
			}
			var back core.Snapshot
			if err := json.Unmarshal(mustEncode(t, got), &back); err != nil {
				t.Fatalf("encoding/json cannot read Encode's output: %v", err)
			}
			if !reflect.DeepEqual(&back, &ref) {
				t.Fatalf("Encode changed the value encoding/json reads:\n got %+v\nwant %+v", &back, &ref)
			}

			spec, _ := pr.build()
			spec.OnSnapshot = func(*core.Snapshot) {}
			full := runVirtual(t, spec, quietCluster(), pr.cores, 2881)
			if full.SlotRows <= got.SlotRows {
				t.Fatalf("the run ends at event %d, the file was captured at %d: nothing left to resume",
					full.SlotRows, got.SlotRows)
			}

			spec, col := pr.build()
			spec.OnSnapshot = func(*core.Snapshot) {}
			if col != nil {
				if err := col.Restore(got.Analysis); err != nil {
					t.Fatalf("restoring the pinned analysis state: %v", err)
				}
			}
			spec.Resume = got
			resumed := runVirtual(t, spec, quietCluster(), pr.cores, 2881)
			if resumed.SlotRows != full.SlotRows || resumed.SlotFingerprint != full.SlotFingerprint {
				t.Fatalf("resumed run ends on fingerprint %#x over %d rows, uninterrupted on %#x over %d",
					resumed.SlotFingerprint, resumed.SlotRows, full.SlotFingerprint, full.SlotRows)
			}
		})
	}
}
