//go:build unix && !aix

package cluster

// peeksIdleConns: reusable probes the socket, so a worker restarted on the
// same address is noticed before the next exchange.
const peeksIdleConns = true
