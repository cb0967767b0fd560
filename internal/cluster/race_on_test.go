//go:build race

package cluster

const raceEnabled = true
