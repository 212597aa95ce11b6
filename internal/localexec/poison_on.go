//go:build simcheck

package localexec

// poison is set under the simcheck build tag (go test -tags simcheck):
// no handle is reused, and a dead one panics when read.
const poison = true
