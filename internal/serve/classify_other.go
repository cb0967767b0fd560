//go:build !amd64

package serve

// The classifier is amd64 assembly: elsewhere vectorScan stays false and
// nothing calls it.
func classifyAVX2(m []blockMasks, b []byte) { panic("serve: no vector classifier") }
