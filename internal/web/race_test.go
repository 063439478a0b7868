//go:build race

package web

// The race detector allocates for its own bookkeeping, so allocation
// counts taken under it say nothing about the program.
func init() { raceDetector = true }
