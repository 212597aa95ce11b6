//go:build !race

package repex

// raceDetector reports a -race build, whose detector allocates beside
// the program and so moves allocation counts.
const raceDetector = false
