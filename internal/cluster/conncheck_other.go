//go:build !unix

package cluster

// alive trusts a pooled connection: there is no portable non-blocking
// peek, so a connection the node closed while it sat idle fails its
// next exchange.
func (c *nodeConn) alive() bool { return true }
