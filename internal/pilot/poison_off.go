//go:build !simcheck

package pilot

// poison is unset without the simcheck build tag (see poison_on.go):
// delivered units become spares.
const poison = false
