//go:build unix

package client

import (
	"net"
	"syscall"
)

// peeker looks into a pooled connection's receive queue without reading
// it: one non-blocking MSG_PEEK on the descriptor, and no allocation.
type peeker struct {
	rc  syscall.RawConn    // nil if the connection has no descriptor
	fn  func(uintptr) bool // the peek, bound once
	err error              // its result
	buf [1]byte
}

func (p *peeker) init(nc net.Conn) {
	if sc, ok := nc.(syscall.Conn); ok {
		p.rc, _ = sc.SyscallConn()
	}
	p.fn = func(fd uintptr) bool {
		_, _, p.err = syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true
	}
}

// quiet reports whether the receive queue is empty and still open. Data
// (a response nobody asked for) or EOF (the server closed the connection
// while it sat idle) mean the connection is done with, and so does an
// error such as a passed deadline.
func (p *peeker) quiet() bool {
	if p.rc == nil {
		return true
	}
	if err := p.rc.Read(p.fn); err != nil {
		return false
	}
	return p.err == syscall.EAGAIN
}
