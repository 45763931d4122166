//go:build race

package explore

// raceEnabled: the race detector's instrumentation allocates where the
// plain build does not, so allocation guards skip under it.
const raceEnabled = true
