//go:build race

package ftrouting

// raceEnabled reports that this build runs under the race detector,
// whose instrumentation allocates; the zero-allocation gates skip.
const raceEnabled = true
