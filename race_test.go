//go:build race

package mdegst_test

func init() { raceEnabled = true }
