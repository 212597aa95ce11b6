//go:build !go1.23

package sim

// coroutine is what a goroutine process needs to switch between its body
// and the kernel. Before go1.23 there is no iter.Pull: the body gets its
// own goroutine and each switch is a send and a receive on a channel
// pair, and stop closes the kernel's side. A panic in the body is caught
// on that goroutine and raised again from resume, so it surfaces in the
// kernel's goroutine as it does from a coroutine. Delete this file when
// go.mod's floor reaches 1.23.
type coroutine struct {
	next           func() (struct{}, bool)
	in, out        chan struct{}
	panicked       any
	stopped, ended bool
}

// start readies the process's body, suspended, on a goroutine of its
// own.
func (g *goProc) start() {
	g.in, g.out = make(chan struct{}), make(chan struct{})
	go g.body()
	g.next = func() (struct{}, bool) {
		g.in <- struct{}{}
		<-g.out
		return struct{}{}, !g.ended
	}
}

// body waits until the kernel first resumes it, runs fn and ends the
// process; a closed channel is a stop before the start.
func (g *goProc) body() {
	defer func() {
		if p := recover(); !g.stopped {
			g.panicked = p
		}
		g.ended = true
		g.out <- struct{}{}
	}()
	if _, ok := <-g.in; ok {
		g.fn(&g.Proc)
		g.Exit()
	}
}

// resume, called by the kernel, runs the body until it next calls park
// or returns, and raises a panic the body ended with.
func (g *goProc) resume() {
	g.next()
	if g.panicked != nil {
		panic(g.panicked)
	}
}

// park, called from inside the body, suspends it until the next resume.
func (g *goProc) park() {
	g.out <- struct{}{}
	if _, ok := <-g.in; !ok {
		panic(errUnwound)
	}
}

// stop, called by the kernel while the body is parked or has not
// started, unwinds it (park panics, the body's deferred calls run, and
// the panic ends with the body) and does nothing once it has returned.
func (g *goProc) stop() {
	if !g.ended {
		g.stopped = true
		close(g.in)
		<-g.out
	}
}
