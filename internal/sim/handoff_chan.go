//go:build !go1.23

package sim

// handoff starts body suspended and returns the three switches between
// it and the kernel: resume, called by the kernel, runs body until it
// next calls park or returns; park, called from inside body, suspends it
// until the next resume; stop, called by the kernel while body is parked
// or has not started, unwinds it (park panics, body's deferred calls
// run, and the panic ends with body) and does nothing once body has
// returned. Before go1.23 there is no iter.Pull: body gets its own
// goroutine and each switch is a send and a receive on a channel pair,
// and stop closes the kernel's side. A panic in body is caught on that
// goroutine and raised again from resume, so it surfaces in the kernel's
// goroutine as it does from a coroutine. Delete this file when go.mod's
// floor reaches 1.23.
func handoff(body func()) (resume, park, stop func()) {
	in, out := make(chan struct{}), make(chan struct{})
	var co struct {
		panicked       any
		stopped, ended bool
	}
	go func() {
		defer func() {
			if p := recover(); !co.stopped {
				co.panicked = p
			}
			co.ended = true
			out <- struct{}{}
		}()
		// Wait until the kernel first resumes us; a closed channel is a
		// stop before the start.
		if _, ok := <-in; ok {
			body()
		}
	}()
	resume = func() {
		in <- struct{}{}
		<-out
		if co.panicked != nil {
			panic(co.panicked)
		}
	}
	park = func() {
		out <- struct{}{}
		if _, ok := <-in; !ok {
			panic(errUnwound)
		}
	}
	stop = func() {
		if !co.ended {
			co.stopped = true
			close(in)
			<-out
		}
	}
	return resume, park, stop
}
