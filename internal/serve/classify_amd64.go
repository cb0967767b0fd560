package serve

// classifyAVX2 is implemented in classify_amd64.s: it sets m[k] to the
// classes of b[64k : 64k+64] for every k < len(m); b must hold at least
// 64*len(m) bytes. It runs only when mathx.Vector() holds.
//
//go:noescape
func classifyAVX2(m []blockMasks, b []byte)
