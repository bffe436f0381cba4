//go:build race

// Package race reports whether the race detector is compiled in, for tests
// whose assertions (timing shapes, allocation counts) it invalidates.
package race

// Enabled is true when the binary was built with -race.
const Enabled = true
