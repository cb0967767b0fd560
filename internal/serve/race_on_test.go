//go:build race

package serve

// raceEnabled reports that the race detector is on. sync.Pool then drops a
// quarter of its Puts on purpose, so allocation ceilings that rely on
// pooled buffers cannot hold.
const raceEnabled = true
