//go:build !race

package serve

// raceDetector reports a -race build, whose detector allocates beside
// the program and so moves allocation counts.
const raceDetector = false
