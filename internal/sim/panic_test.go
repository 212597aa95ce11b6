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
