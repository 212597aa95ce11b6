//go:build go1.23

package sim

import "iter"

// handoff starts body suspended and returns the two switches between it
// and the kernel: resume, called by the kernel, runs body until it next
// calls park or returns; park, called from inside body, suspends it until
// the next resume. Body runs as a coroutine of whichever goroutine calls
// resume: a switch stays on one thread and never enters the scheduler,
// and a panic in body surfaces from resume.
func handoff(body func()) (resume, park func()) {
	var yield func(struct{}) bool
	next, _ := iter.Pull(func(y func(struct{}) bool) {
		yield = y
		body()
	})
	return func() { next() }, func() { yield(struct{}{}) }
}
