//go:build race

package cluster_test

// raceEnabled reports a -race build; the walls then size a subset.
const raceEnabled = true
