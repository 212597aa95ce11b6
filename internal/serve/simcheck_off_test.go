//go:build !simcheck

package serve_test

// simcheck reports a simcheck build (see simcheck_on_test.go).
const simcheck = false
