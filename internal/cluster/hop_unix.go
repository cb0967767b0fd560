//go:build unix && !aix

package cluster

import (
	"net"
	"syscall"
)

// idleCheck peeks at a connection's socket. It is built once, at dial, so
// the check before each exchange allocates nothing.
type idleCheck struct {
	rc   syscall.RawConn // nil when the connection has no socket
	peek func(fd uintptr)
	err  error // what the last peek read
}

func newIdleCheck(nc net.Conn) *idleCheck {
	ic := &idleCheck{}
	if sc, ok := nc.(syscall.Conn); ok {
		ic.rc, _ = sc.SyscallConn()
	}
	ic.peek = func(fd uintptr) {
		var b [1]byte
		_, _, ic.err = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	}
	return ic
}

// reusable reports whether an idle connection can carry the next exchange:
// a one-byte MSG_PEEK must find nothing to read. End of stream (a worker
// restarted on the same address closed it), a reset, or a byte nobody asked
// for would each fail or corrupt the exchange.
func (c *hopConn) reusable() bool {
	ic := c.check
	return ic.rc != nil && ic.rc.Control(ic.peek) == nil && (ic.err == syscall.EAGAIN || ic.err == syscall.EWOULDBLOCK)
}
