//go:build !simcheck

package tasktest

import "repro/internal/task"

// poisons reports whether rt poisons its dead handles instead of reusing
// them. Only a simcheck build poisons (see poison_on_test.go).
func poisons(task.Runtime) bool { return false }
