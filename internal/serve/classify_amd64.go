package serve

// The kernels of scanCompact, in classify_amd64.s. They run only when
// mathx.Vector() holds.

//go:noescape
func checkRowsAVX2(st *rowState, b []byte, valid uint64, d1 int) (bad uint64)

//go:noescape
func classifyAVX2(m []uint64, b []byte)
