//go:build race

package runtime_test

// The race detector's instrumentation allocates on its own, so tests that
// count a build's bytes do not hold under it.
func init() { raceEnabled = true }
