//go:build simcheck

package sim

import (
	"strings"
	"testing"
)

// Under the simcheck build tag the kernel checks its invariants at every
// event: each corruption below, one a case, panics out of Run.
func TestInvariantsBite(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(e *Env, p *Proc)
	}{
		// An event behind the one just delivered, slipped into a delay
		// queue: (t, seq) would go back.
		{"order", func(e *Env, p *Proc) {
			q := e.Delay(5)
			q.q.push(event{t: 0.5, seq: 1, gen: p.gen, slot: p.slot}, 0)
			e.check.scheduled()
		}},
		// An event in the heap that no schedule counted.
		{"pending", func(e *Env, p *Proc) {
			e.push(event{t: 3, seq: e.seq + 1, gen: p.gen, slot: p.slot})
		}},
		// An event at a generation its process has not reached.
		{"generation", func(e *Env, p *Proc) {
			e.seq++
			e.check.scheduled()
			e.push(event{t: 3, seq: e.seq, gen: p.gen + 5, slot: p.slot})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			spawn(e, "s", func(p *Proc, wake int) {
				if wake == 0 {
					p.WakeIn(1)
					return
				}
				if wake == 1 {
					tc.corrupt(e, p)
					p.WakeIn(10)
					return
				}
				p.Exit()
			})
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "sim: invariant: ") {
					t.Fatalf("Run panicked with %q, want an invariant violation", msg)
				}
				t.Log(msg)
			}()
			e.Run()
		})
	}
}
