//go:build simcheck

package pilot

// poison is set under the simcheck build tag (go test -tags simcheck):
// no delivered unit is reused, and a dead one panics when read.
const poison = true
