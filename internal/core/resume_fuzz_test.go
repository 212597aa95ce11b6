package core_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/pilot"
	"repro/internal/sim"
)

// resumeOutcome is what pinnedResume saw: New's error, else the
// collector's refusal of the snapshot, else the run's report and error;
// and the checkpoints the run delivered.
type resumeOutcome struct {
	newErr, colErr, runErr error
	rep                    *core.Report
	snaps                  []*core.Snapshot
}

// pinnedResume resumes one pinned run's spec from sn (nil: runs it
// fresh) on a quiet virtual cluster under ctx, restoring the run's
// collector (if any) from the snapshot the way serve.NewRun does.
func pinnedResume(pr pinnedRun, sn *core.Snapshot, ctx context.Context) (out resumeOutcome) {
	spec, col := pr.build()
	spec.Resume = sn
	spec.OnSnapshot = func(sn *core.Snapshot) { out.snaps = append(out.snaps, sn) }
	env := sim.NewEnv()
	pl, err := pilot.Launch(cluster.MustNew(env, quietCluster(), spec.Seed+1), pilot.Description{Cores: pr.cores})
	if err != nil {
		panic(err)
	}
	env.Go("emm", func(p *sim.Proc) {
		simu, err := core.New(spec, engines.NewAmberVirtual(2881, spec.Seed+2), pilot.NewRuntime(pl, p))
		if err != nil {
			out.newErr = err
			return
		}
		if col != nil && sn != nil {
			if len(sn.Analysis) > 0 {
				out.colErr = col.Restore(sn.Analysis)
			} else {
				out.colErr = col.SeedResume(sn)
			}
			if out.colErr != nil {
				return
			}
		}
		out.rep, out.runErr = simu.RunContext(ctx)
	})
	env.Run()
	return out
}

// FuzzResume: CheckResume and New agree on every checkpoint, and one
// they accept resumes. The input is checkpoint bytes and two integer
// deltas applied after decoding: dEvents to the exchange-event count
// and the slot-history row count alike, dRows to the row count alone.
// The deltas are a field-level mutation beside the byte-level one: the
// row count must follow the event count, so a negative event count is
// a two-field edit in bytes and one delta here. The pinned run whose
// spec they resume is the one the name picks (the first run's when
// none matches, which New refuses). Accepted, the snapshot
// restores exactly — a run cancelled before its first boundary hands
// it back unchanged — and the resumed run finishes without a panic,
// every slot-history row it records a permutation of the slots. The
// one exception is trigger state the policy's RestoreState rejects:
// New fails then, as it should. Seeds: each pinned file, and each
// pinned run's event-0 checkpoint (a run cancelled before it fired),
// with zero deltas.
func FuzzResume(f *testing.F) {
	runs := pinnedRuns()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	byName := map[string]pinnedRun{}
	for _, pr := range runs {
		spec, _ := pr.build()
		byName[spec.Name] = pr
		pinned, err := core.DecodeSnapshot(readPinned(f, pr.file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mustEncode(f, pinned), 0, 0)
		at0 := pinnedResume(pr, nil, cancelled)
		if !errors.Is(at0.runErr, core.ErrRunCancelled) || len(at0.snaps) != 1 {
			f.Fatalf("%s: a fresh run cancelled at once: %v, %d checkpoints", pr.file, at0.runErr, len(at0.snaps))
		}
		f.Add(mustEncode(f, at0.snaps[0]), 0, 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, dEvents, dRows int) {
		sn, err := core.DecodeSnapshot(data)
		if err != nil {
			return
		}
		sn.Events += dEvents
		sn.SlotRows += dEvents + dRows
		pr, ok := byName[sn.Name]
		if !ok {
			pr = runs[0]
		}
		spec, _ := pr.build()
		spec.Resume = sn
		checkErr := core.CheckResume(spec, engines.NewAmberVirtual(2881, spec.Seed+2))

		at0 := pinnedResume(pr, sn, cancelled)
		if checkErr != nil {
			if at0.newErr == nil {
				t.Fatalf("CheckResume refused what New accepts: %v", checkErr)
			}
			return
		}
		if at0.newErr != nil {
			spec, _ := pr.build()
			if st, ok := spec.Trigger.(core.StatefulTrigger); ok && len(sn.TriggerData) > 0 && st.RestoreState(sn.TriggerData) != nil {
				return
			}
			t.Fatalf("New refused what CheckResume accepts: %v", at0.newErr)
		}
		if at0.colErr != nil {
			return // the daemon refuses it too, as ErrResume
		}
		if len(at0.snaps) != 1 {
			t.Fatalf("a run cancelled before its first boundary delivered %d checkpoints", len(at0.snaps))
		}
		back := at0.snaps[0]
		if back.Events != sn.Events || back.RNGDraws != sn.RNGDraws || back.EngineDraws != sn.EngineDraws ||
			back.SlotRows != sn.SlotRows || back.SlotFingerprint != sn.SlotFingerprint ||
			!reflect.DeepEqual(back.Replicas, sn.Replicas) {
			t.Fatalf("resumed and cancelled at once, the run holds\n%+v\nnot the snapshot\n%+v", back, sn)
		}

		rep := pinnedResume(pr, sn, context.Background()).rep
		if rep == nil {
			t.Fatal("the resumed run returned no report")
		}
		fresh := max(0, min(rep.SlotRows-sn.SlotRows, len(rep.SlotHistory)))
		for _, row := range rep.SlotHistory[len(rep.SlotHistory)-fresh:] {
			seen := make([]bool, len(row))
			for _, slot := range row {
				if slot < 0 || slot >= len(row) || seen[slot] {
					t.Fatalf("the resumed run recorded slots %v: not a permutation", row)
				}
				seen[slot] = true
			}
		}
	})
}
