//go:build !amd64

package serve

// The scanner's kernels are amd64 assembly: elsewhere vectorScan stays
// false and nothing calls them.
func checkRowsAVX2(*rowState, []byte, uint64, int) uint64 { panic("serve: no vector scanner") }
func classifyAVX2([]uint64, []byte)                       { panic("serve: no vector scanner") }
