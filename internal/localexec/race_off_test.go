//go:build !race

package localexec

// raceDetector reports a -race build, whose detector allocates beside
// the program and so moves allocation counts.
const raceDetector = false
