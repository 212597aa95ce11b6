package sim

import "math"

// MaxDelays is the cap on delay queues, for the external tests.
const MaxDelays = maxDelays

// Delays reports how many delay queues next scans.
func (e *Env) Delays() int { return len(e.delays) }

// HeapLen reports how many events wait in the heap.
func (e *Env) HeapLen() int { return len(e.events) }

// CountResumes wraps the goroutine process p's resume so that *n counts
// the coroutine switches into its body.
func (p *Proc) CountResumes(n *int) {
	resume := p.co.resume
	p.co.resume = func() { *n++; resume() }
}

// Idle reports whether no RunUntil is in progress: no bound kept and no
// process handed over.
func (e *Env) Idle() bool { return e.limit == math.Inf(-1) && e.due == nil }
