//go:build !unix

package client

import "net"

// peeker has no non-blocking peek on this platform: a pooled connection
// the server closed while it sat idle fails the call that takes it, which
// does not send its request again.
type peeker struct{}

func (*peeker) init(net.Conn) {}
func (*peeker) quiet() bool   { return true }
