//go:build race

package service

// raceEnabled reports a -race build, whose instrumentation distorts
// latency measurements.
const raceEnabled = true
