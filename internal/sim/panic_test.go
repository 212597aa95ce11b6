package sim

import "testing"

// A panic in a goroutine process unwinds through the kernel and out of
// Run in the caller's goroutine, where it can be recovered; processes that
// ran before it are unaffected. Both hand-offs do this: the coroutine by
// construction, the channel pair by catching and re-raising.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	e := NewEnv()
	healthy := 0
	e.Go("healthy", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			healthy++
		}
	})
	e.Go("doomed", func(p *Proc) {
		p.Sleep(2.5)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want the process's panic value", got)
	}
	if healthy != 2 || e.Now() != 2.5 {
		t.Fatalf("healthy ran %d wakeups, clock %v; want 2 and 2.5 (stopped at the panic)", healthy, e.Now())
	}
}

// A stepper that panics while a parked goroutine process drives the queue
// unwinds through that process's stack and surfaces from Run the same
// way, with the stepper's value and the clock at the panic.
func TestStepperPanicUnderParkedProcessSurfacesFromRun(t *testing.T) {
	e := NewEnv()
	e.Go("orchestrator", func(p *Proc) { p.Sleep(10) })
	spawn(e, "doomed", func(p *Proc, wake int) {
		if wake == 0 {
			p.WakeIn(2.5)
			return
		}
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want the stepper's panic value", got)
	}
	if e.Now() != 2.5 {
		t.Fatalf("clock %v after the panic, want 2.5", e.Now())
	}
	if !e.Idle() {
		t.Fatal("RunUntil left its bound or a handed-over process behind after a panic")
	}
}

// RunUntil leaves no bound and no handed-over process behind when it
// returns, whether goroutine processes are still parked or all are gone.
func TestRunUntilLeavesEnvIdle(t *testing.T) {
	e := NewEnv()
	if !e.Idle() {
		t.Fatal("a new Env is not idle")
	}
	ping, pong := NewSignal(e), NewSignal(e)
	e.Go("ping", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(1)
			pong.Signal()
			ping.Wait(p)
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < 4; i++ {
			pong.Wait(p)
			ping.Signal()
		}
	})
	e.RunUntil(2.5)
	if !e.Idle() || e.Now() != 2.5 || e.Live() != 2 {
		t.Fatalf("after RunUntil(2.5): idle %v, clock %v, %d live; want idle at 2.5 with both parked", e.Idle(), e.Now(), e.Live())
	}
	e.Run()
	if !e.Idle() || e.Now() != 4 || e.Live() != 0 {
		t.Fatalf("after Run: idle %v, clock %v, %d live; want idle at 4 with none left", e.Idle(), e.Now(), e.Live())
	}
}
