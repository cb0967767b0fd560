//go:build !unix || aix

package cluster

const peeksIdleConns = false
