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
	next := p.g.next
	p.g.next = func() (struct{}, bool) { *n++; return next() }
}

// Idle reports whether no RunUntil is in progress: no bound kept and no
// process handed over.
func (e *Env) Idle() bool { return e.limit == math.Inf(-1) && e.due == nil }

// NewCompletion returns an unfired completion bound to env.
func NewCompletion(env *Env) *Completion {
	c := new(Completion)
	c.Init(env)
	return c
}

// AwaitTimeout blocks until the completion fires or d seconds pass; it
// reports whether the completion fired. The pilot's stepped timers
// (a unit's execution, a pilot's walltime watchdog and preemption
// notice) make its kernel calls, with its (now+d)-now arithmetic.
func (c *Completion) AwaitTimeout(p *Proc, d float64) bool {
	if c.done {
		return true
	}
	deadline := c.sig.env.now + d
	for !c.done {
		remain := deadline - c.sig.env.now
		if remain < 0 {
			return false
		}
		if !c.sig.WaitTimeout(p, remain) && !c.done {
			return false
		}
	}
	return true
}
