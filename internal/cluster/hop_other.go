//go:build !unix || aix

package cluster

import (
	"net"
	"time"
)

// reusable trusts a connection idle for under a second: without a socket
// peek, a worker restarted on the same address within it fails one exchange.
func reusable(_ net.Conn, idleSince time.Time) bool { return time.Since(idleSince) < time.Second }
