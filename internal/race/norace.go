//go:build !race

// Package race reports whether the binary was built with the race
// detector, as the standard library's internal/race does. Tests use it
// to skip allocation-count assertions that the detector makes
// meaningless: under -race, sync.Pool drops items at random, so pooled
// scratch is reallocated at random.
package race

// Enabled is true when the race detector is on.
const Enabled = false
