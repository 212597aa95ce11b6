//go:build !simcheck

package sim

// checker is empty without the simcheck build tag (see check_on.go): the
// kernel checks nothing, and its calls compile to nothing.
type checker struct{}

func (*checker) scheduled()            {}
func (*checker) delivered(*Env, event) {}
