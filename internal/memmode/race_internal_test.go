//go:build race

package memmode

func init() { raceEnabled = true }
