//go:build unix && !aix

package cluster

import (
	"net"
	"syscall"
	"time"
)

// reusable reports whether an idle connection can carry the next exchange:
// a one-byte MSG_PEEK must find nothing to read. End of stream (a worker
// restarted on the same address closed it), a reset, or a byte nobody asked
// for would each fail or corrupt the exchange.
func reusable(nc net.Conn, _ time.Time) bool {
	rc, err := nc.(syscall.Conn).SyscallConn()
	if err != nil {
		return false
	}
	var perr error
	err = rc.Control(func(fd uintptr) {
		var b [1]byte
		_, _, perr = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	})
	return err == nil && (perr == syscall.EAGAIN || perr == syscall.EWOULDBLOCK)
}
