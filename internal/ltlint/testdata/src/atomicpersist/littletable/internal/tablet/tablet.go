// Package tablet stands in for the tablet writer helper.go calls: a
// package-level Create that owns the durable-write recipe itself.
package tablet

// Create builds a tablet in dir.
func Create(dir string) error { return nil }
