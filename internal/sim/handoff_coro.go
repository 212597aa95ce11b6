//go:build go1.23

package sim

import "iter"

// coroutine is what a goroutine process needs to switch between its body
// and the kernel: iter.Pull's next and cancel, the body's yield, and
// whether park is unwinding the body for stop.
type coroutine struct {
	next      func() (struct{}, bool)
	cancel    func()
	yield     func(struct{}) bool
	unwinding bool
}

// start readies the process's body, suspended, as a coroutine of
// whichever goroutine calls resume: a switch stays on one thread and
// never enters the scheduler, and a panic in the body surfaces from
// resume.
func (g *goProc) start() { g.next, g.cancel = iter.Pull(g.body) }

// body runs fn and ends the process; the unwinding panic park raises for
// stop ends here.
func (g *goProc) body(yield func(struct{}) bool) {
	defer func() {
		if g.unwinding {
			recover()
		}
	}()
	g.yield = yield
	g.fn(&g.Proc)
	g.Exit()
}

// resume, called by the kernel, runs the body until it next calls park
// or returns.
func (g *goProc) resume() { g.next() }

// park, called from inside the body, suspends it until the next resume.
func (g *goProc) park() {
	// yield returns false only once stop has been called.
	if !g.yield(struct{}{}) {
		g.unwinding = true
		panic(errUnwound)
	}
}

// stop, called by the kernel while the body is parked or has not
// started, unwinds it (park panics, the body's deferred calls run, and
// the panic ends with the body) and does nothing once it has returned.
func (g *goProc) stop() { g.cancel() }
