//go:build simcheck

package tasktest

import (
	"math"
	"testing"

	"repro/internal/localexec"
	"repro/internal/pilot"
	"repro/internal/task"
)

// poisons reports whether rt poisons its dead handles instead of reusing
// them: under simcheck, both backends do, and reading a dead handle
// panics.
func poisons(rt task.Runtime) bool {
	switch rt.(type) {
	case *localexec.Runtime, *pilot.Runtime:
		return true
	}
	return false
}

// The poison check: a handle read past its reuse point panics. It runs
// on every backend that poisons and passes trivially on one that does
// not.
func init() {
	contract = append(contract, contractCase{"HandleReadLatePanics", 0, func(t *testing.T, rt task.Runtime) {
		if !poisons(rt) {
			return
		}
		a := rt.SubmitWatched(sleeper("a", 0.01))
		if got := rt.AwaitNext(math.Inf(1)); len(got) != 1 || got[0] != a || a.Result().Spec.Name != "a" {
			t.Errorf("delivered %v, want [a]", names(got))
			return
		}
		rt.SubmitWatched(sleeper("b", 0.01))
		if got := names(rt.AwaitNext(math.Inf(1))); len(got) != 1 || got[0] != "b" {
			t.Errorf("delivered %v, want [b]", got)
			return
		}
		if !panics(func() { a.Result() }) || !panics(func() { a.Done() }) {
			t.Error("a handle read one AwaitNext late did not panic")
		}
		c := rt.Submit(sleeper("c", 0.01))
		rt.Await(c)
		if !panics(func() { c.Result() }) {
			t.Error("a handle read after Await returned it did not panic")
		}
		batch, ok := rt.(task.BatchAwaiter)
		if !ok {
			return
		}
		d := rt.SubmitWatched(sleeper("d", 0.01))
		if got := batch.AwaitBatch(1, math.Inf(1)); len(got) != 1 || got[0] != d || d.Result().Spec.Name != "d" {
			t.Errorf("batch delivered %v, want [d]", names(got))
			return
		}
		rt.Overhead(0)
		if !panics(func() { d.Result() }) {
			t.Error("a batch's handle read after the next blocking call did not panic")
		}
	}})
}
