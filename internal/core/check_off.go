//go:build !simcheck

package core

// checkInvariants is empty without the simcheck build tag (see
// check_on.go): the dispatcher checks nothing, and its calls compile to
// nothing.
func (d *dispatcher) checkInvariants() {}
