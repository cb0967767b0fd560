//go:build !unix || aix

package cluster

import (
	"net"
	"time"
)

type idleCheck struct{}

func newIdleCheck(net.Conn) *idleCheck { return nil }

// reusable trusts a connection idle for under a second: without a socket
// peek, a worker restarted on the same address within it fails one exchange.
func (c *hopConn) reusable() bool { return time.Since(c.idleSince) < time.Second }
