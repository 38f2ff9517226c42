//go:build !race

package cicada_test

const raceEnabled = false
