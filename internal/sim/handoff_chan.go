//go:build !go1.23

package sim

// handoff starts body suspended and returns the two switches between it
// and the kernel: resume, called by the kernel, runs body until it next
// calls park or returns; park, called from inside body, suspends it until
// the next resume. Before go1.23 there is no iter.Pull: body gets its own
// goroutine and each switch is a send and a receive on a channel pair. A
// panic in body is caught on that goroutine and raised again from resume,
// so it surfaces in the kernel's goroutine as it does from a coroutine.
// Delete this file when go.mod's floor reaches 1.23.
func handoff(body func()) (resume, park func()) {
	in, out := make(chan struct{}), make(chan struct{})
	var panicked any
	go func() {
		defer func() {
			panicked = recover()
			out <- struct{}{}
		}()
		<-in // wait until the kernel first resumes us
		body()
	}()
	resume = func() {
		in <- struct{}{}
		<-out
		if panicked != nil {
			panic(panicked)
		}
	}
	return resume, func() { out <- struct{}{}; <-in }
}
