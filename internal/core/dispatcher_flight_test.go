package core

import (
	"strings"
	"testing"

	"repro/internal/task"
)

// unstampedEngine is costEngine with the MD spec's ReplicaID left at -1:
// the dispatcher, not the engine, says whose segment a spec is.
type unstampedEngine struct{ *costEngine }

func (e unstampedEngine) MDTask(r *Replica, s *Spec, dim int) *task.Spec {
	sp := e.costEngine.MDTask(r, s, dim)
	sp.ReplicaID = -1
	return sp
}

// foreignRuntime is tickRuntime whose first delivery carries one handle
// the dispatcher never submitted as a watched MD segment.
type foreignRuntime struct {
	*tickRuntime
	foreign task.Handle
}

func (r *foreignRuntime) AwaitNext(deadline float64) []task.Handle {
	out := r.tickRuntime.AwaitNext(deadline)
	if r.foreign != nil && len(out) > 0 {
		out = append(out, r.foreign)
		r.foreign = nil
	}
	return out
}

func TestDispatcherStampsReplicaID(t *testing.T) {
	for _, sc := range costScenarios {
		if sc.name != "barrier" && sc.name != "window-tu" {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			s, err := New(sc.spec(), unstampedEngine{newCostEngine(1024)}, sc.runtime())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := costWant[sc.name][0]
			if rep.SlotFingerprint != want.Fingerprint || rep.ExchangeEvents != want.Events {
				t.Errorf("fingerprint %#x after %d events, pinned %#x after %d",
					rep.SlotFingerprint, rep.ExchangeEvents, want.Fingerprint, want.Events)
			}
		})
	}

	// A handle for a replica that exists but is not that replica's flight,
	// one for a replica that does not exist, and one with no spec at all.
	for name, spec := range map[string]*task.Spec{
		"other-handle": {Name: "stray", ReplicaID: 3, Cores: 1},
		"no-replica":   {Name: "stray", ReplicaID: -1, Cores: 1},
		"no-spec":      nil,
	} {
		t.Run(name, func(t *testing.T) {
			sc := costScenarios[0]
			rt := &foreignRuntime{tickRuntime: sc.runtime()}
			rt.foreign = rt.Submit(spec)
			s, err := New(sc.spec(), newCostEngine(1024), rt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "no replica's in-flight MD segment") {
				t.Fatalf("err = %v, want the foreign-handle error", err)
			}
		})
	}
}
