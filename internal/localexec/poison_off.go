//go:build !simcheck

package localexec

// poison is unset without the simcheck build tag (see poison_on.go):
// dead handles go back on the free list.
const poison = false
