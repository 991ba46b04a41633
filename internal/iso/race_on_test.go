//go:build race

package iso

const raceEnabled = true
