//go:build race

package bft

// raceEnabled tells timing tests that the race detector is on: its
// instrumentation multiplies the cost of every memory access, so
// nanosecond-scale ratios measured under it say nothing.
const raceEnabled = true
