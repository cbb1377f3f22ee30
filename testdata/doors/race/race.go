//go:build race

// Package race is a file pair split by build tags: type-checking both
// files together would declare Mode twice.
package race

func Mode() string { return "race" }
