//go:build simcheck

package serve_test

// simcheck reports a simcheck build, whose pilot runtime reuses no
// delivered unit: a run carves a unit for every submission.
const simcheck = true
