package sim

import "math"

// MaxDelays is the cap on delay queues, for the external tests.
const MaxDelays = maxDelays

// Delays reports how many delay queues next scans.
func (e *Env) Delays() int { return len(e.delays) }

// CountResumes wraps the goroutine process p's resume so that *n counts
// the coroutine switches into its body.
func (p *Proc) CountResumes(n *int) {
	resume := p.resume
	p.resume = func() { *n++; resume() }
}

// Idle reports whether no RunUntil is in progress: no bound kept and no
// process handed over.
func (e *Env) Idle() bool { return e.limit == math.Inf(-1) && e.due == nil }
