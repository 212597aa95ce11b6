//go:build simcheck

package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/task"
)

// hookTrigger runs hook once, at its at-th observed completion: from
// inside the dispatcher, between taking a completion and the next check.
type hookTrigger struct {
	Trigger
	n, at int
	hook  func()
}

func (h *hookTrigger) Observe(res task.Result) {
	h.Trigger.Observe(res)
	if h.n++; h.n == h.at {
		h.hook()
	}
}

// Under the simcheck build tag the dispatcher checks its bookkeeping
// after every exchange event and before it takes every delivered
// completion: each corruption below, made at a completion of the second
// round, panics out of the run with an invariant violation.
func TestDispatcherInvariantsBite(t *testing.T) {
	const n = 8
	cases := []struct {
		name    string
		trigger func() Trigger
		corrupt func(d *dispatcher)
	}{
		// Two replicas in one slot: a swap that moved one side only.
		{"slots", barrier, func(d *dispatcher) { d.s.replicas[0].Slot = d.s.replicas[1].Slot }},
		// A completion counted off twice.
		{"pending", barrier, func(d *dispatcher) { d.pending-- }},
		{"alive", barrier, func(d *dispatcher) { d.alive++ }},
		{"budget", barrier, func(d *dispatcher) { d.s.replicas[3].Cycle = d.segBudget + 1 }},
		// A refitted ladder that lost its order.
		{"ladder", barrier, func(d *dispatcher) {
			v := d.s.spec.Dims[0].Values
			d.s.respacings = append(d.s.respacings, RespaceRecord{Dim: 0, Refit: 1, Old: slices.Clone(v)})
			v[1], v[2] = v[2], v[1]
		}},
		{"readyB", func() Trigger { return NewCountTrigger(4) }, func(d *dispatcher) { d.readyB++ }},
		// A flight forgotten: a segment in the air dropped without landing.
		{"flight", barrier, func(d *dispatcher) {
			i := slices.IndexFunc(d.flights, func(f mdFlight) bool { return f.h != nil })
			d.flights[i].h = nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := &Spec{
				Name:            "invariants",
				Dims:            []Dimension{{Type: exchange.Temperature, Values: GeometricTemperatures(273, 373, n)}},
				CoresPerReplica: 1,
				StepsPerCycle:   100,
				Cycles:          4,
				Seed:            3,
			}
			hook := &hookTrigger{Trigger: tc.trigger(), at: n + 3}
			spec.Trigger = hook
			rt := newTickRuntime(n, 2)
			s, err := New(spec, newCostEngine(n), rt)
			if err != nil {
				t.Fatal(err)
			}
			d := newDispatcher(context.Background(), s, hook)
			hook.hook = func() { tc.corrupt(d) }
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "core: invariant: ") {
					t.Fatalf("the run ended with %q, want an invariant violation", msg)
				}
				t.Log(msg)
			}()
			err = d.run()
			t.Fatalf("the run ended (err %v), want an invariant violation", err)
		})
	}
}

func barrier() Trigger { return NewBarrierTrigger() }
