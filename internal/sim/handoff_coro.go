//go:build go1.23

package sim

import "iter"

// handoff starts body suspended and returns the three switches between
// it and the kernel: resume, called by the kernel, runs body until it
// next calls park or returns; park, called from inside body, suspends it
// until the next resume; stop, called by the kernel while body is parked
// or has not started, unwinds it (park panics, body's deferred calls
// run, and the panic ends with body) and does nothing once body has
// returned. Body runs as a coroutine of whichever goroutine calls
// resume: a switch stays on one thread and never enters the scheduler,
// and a panic in body surfaces from resume.
func handoff(body func()) (resume, park, stop func()) {
	// One variable shared by body's wrapper and park: iter.Pull's yield,
	// and whether park is unwinding body for stop.
	var co struct {
		yield     func(struct{}) bool
		unwinding bool
	}
	next, stop := iter.Pull(func(y func(struct{}) bool) {
		defer func() {
			if co.unwinding {
				recover()
			}
		}()
		co.yield = y
		body()
	})
	park = func() {
		// yield returns false only once stop has been called.
		if !co.yield(struct{}{}) {
			co.unwinding = true
			panic(errUnwound)
		}
	}
	return func() { next() }, park, stop
}
