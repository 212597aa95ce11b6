package sim

// MaxDelays is the cap on delay queues, for the external tests.
const MaxDelays = maxDelays

// Delays reports how many delay queues next scans.
func (e *Env) Delays() int { return len(e.delays) }
