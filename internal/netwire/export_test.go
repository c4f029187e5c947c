package netwire

import (
	"net"
	"net/netip"
)

// LocalAddrPort reports the bound socket address (the ephemeral port after
// ListenUDP with ":0").
func (c *UDPCarrier) LocalAddrPort() netip.AddrPort {
	return c.conn.LocalAddr().(*net.UDPAddr).AddrPort()
}
