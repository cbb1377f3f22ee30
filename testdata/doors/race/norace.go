//go:build !race

package race

func Mode() string { return "plain" }
