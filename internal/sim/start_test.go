package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// scripted is a stepped process that logs every step and sleeps its
// script's delays in turn, then exits.
type scripted struct {
	name   string
	script []float64
	k      int
	proc   Proc
	log    *[]string
}

func (s *scripted) ProcName() string { return s.name }

func (s *scripted) Step(p *Proc) {
	*s.log = append(*s.log, fmt.Sprintf("%s:%d@%g", s.name, s.k, p.Now()))
	if s.k == len(s.script) {
		p.Exit()
		return
	}
	p.WakeIn(s.script[s.k])
	s.k++
}

// startScenario runs one random workload whose stepped processes are
// all started through start, and returns the log of every step and
// goroutine wakeup, and the number of kernel events. A caller goroutine
// starts processes in bursts and spawns goroutines among them; between
// bursts it waits on a signal a ticker process broadcasts, the way an
// orchestrator waits on completions. Background processes and the
// goroutines have wakeups due at the instants it works at. Within
// Start's contract: a first step sleeps a positive time, and the caller
// schedules nothing but goroutines at the current instant before it
// yields.
func startScenario(seed int64, start func(e *Env, p *Proc, s Stepper)) ([]string, int) {
	rng := rand.New(rand.NewSource(seed))
	delays := []float64{0, 0, 0.5, 1}
	e := NewEnv()
	events := 0
	e.SetTrace(func(float64, string) { events++ })
	var log []string
	n := 0
	newProc := func() *scripted {
		n++
		s := &scripted{name: fmt.Sprintf("s%d", n), log: &log}
		s.script = append(s.script, delays[2+rng.Intn(2)])
		for k := rng.Intn(4); k > 0; k-- {
			s.script = append(s.script, delays[rng.Intn(len(delays))])
		}
		return s
	}
	for i := rng.Intn(3); i > 0; i-- {
		s := newProc()
		e.Spawn(&s.proc, s)
	}
	tick := NewSignal(e)
	e.Go("ticker", func(p *Proc) {
		for round := 0; round < 6; round++ {
			p.Sleep(delays[rng.Intn(len(delays))])
			tick.Broadcast()
		}
	})
	e.Go("caller", func(p *Proc) {
		for round := 0; round < 6; round++ {
			for op := rng.Intn(6); op > 0; op-- {
				switch rng.Intn(5) {
				case 0:
					d := delays[rng.Intn(len(delays))]
					name := fmt.Sprintf("g%d", n)
					n++
					e.Go(name, func(q *Proc) {
						log = append(log, fmt.Sprintf("%s@%g", name, q.Now()))
						q.Sleep(d)
						log = append(log, fmt.Sprintf("%s@%g", name, q.Now()))
					})
				default:
					s := newProc()
					start(e, &s.proc, s)
				}
			}
			tick.Wait(p)
		}
	})
	e.Run()
	return log, events
}

// Start runs every step in the order Spawn does, and saves kernel
// events doing it: on random workloads with same-instant wakeups from
// the first steps, from the caller and from other processes, the step
// logs match Spawn's line for line, and Start never takes more events.
func TestStartRunsInSpawnOrder(t *testing.T) {
	spawn := func(e *Env, p *Proc, s Stepper) { e.Spawn(p, s) }
	start := func(e *Env, p *Proc, s Stepper) { e.Start(p, s) }
	saved := 0
	for seed := int64(0); seed < 400; seed++ {
		want, wantEvents := startScenario(seed, spawn)
		got, gotEvents := startScenario(seed, start)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: Start's order differs from Spawn's:\n got %v\nwant %v", seed, got, want)
		}
		if gotEvents > wantEvents {
			t.Fatalf("seed %d: Start took %d kernel events, Spawn %d", seed, gotEvents, wantEvents)
		}
		saved += wantEvents - gotEvents
	}
	if saved == 0 {
		t.Fatal("Start never saved a kernel event")
	}
}

// A first step taken inline is not a kernel event and not traced; one
// started while a wakeup is due at the current instant is queued behind
// it, as Spawn queues it.
func TestStartStepsInlineWhenQuiet(t *testing.T) {
	e := NewEnv()
	var log []string
	traced := 0
	e.SetTrace(func(float64, string) { traced++ })
	a := &scripted{name: "a", script: []float64{1}, log: &log}
	b := &scripted{name: "b", script: []float64{1}, log: &log}
	e.Start(&a.proc, a)
	e.Start(&b.proc, b)
	if want := []string{"a:0@0", "b:0@0"}; !slices.Equal(log, want) {
		t.Fatalf("steps before Run: %v, want %v", log, want)
	}
	e.Run()
	if traced != 2 {
		t.Fatalf("%d traced wakeups, want 2 (the second steps)", traced)
	}
	log, traced = nil, 0
	c := &scripted{name: "c", script: []float64{1}, log: &log}
	d := &scripted{name: "d", script: []float64{1}, log: &log}
	e.Spawn(&c.proc, c)
	e.Start(&d.proc, d)
	e.Run()
	if want := []string{"c:0@1", "d:0@1", "c:1@2", "d:1@2"}; !slices.Equal(log, want) || traced != 4 {
		t.Fatalf("steps %v with %d traced wakeups, want %v with 4", log, traced, want)
	}
}
