//go:build unix

package cluster

import (
	"errors"
	"syscall"
)

// alive reports whether a pooled connection can carry another
// exchange: a non-blocking recv(MSG_PEEK) finds it open with nothing
// to read. A node that closed it while it sat idle shows EOF or an
// error there; unsolicited bytes would corrupt the next answer.
func (c *nodeConn) alive() bool {
	raw, err := c.conn.(syscall.Conn).SyscallConn() // a dialed *net.TCPConn
	if err != nil {
		return false
	}
	open := false
	err = raw.Read(func(fd uintptr) bool {
		var b [1]byte
		_, _, rerr := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		open = errors.Is(rerr, syscall.EAGAIN) || errors.Is(rerr, syscall.EWOULDBLOCK)
		return true
	})
	return err == nil && open
}
