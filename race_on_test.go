//go:build race

package cicada_test

// The race detector's instrumentation allocates, so allocation-budget tests
// skip themselves in race builds (the non-race CI job enforces the budgets).
const raceEnabled = true
