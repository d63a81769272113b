package netx

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// ParseMAC parses a colon-separated hexadecimal hardware address such as
// "74:da:38:1b:20:01".
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if len(s) != 17 {
		return m, fmt.Errorf("netx: invalid MAC %q", s)
	}
	for i := 0; i < 6; i++ {
		hi, ok1 := unhex(s[i*3])
		lo, ok2 := unhex(s[i*3+1])
		if !ok1 || !ok2 {
			return m, fmt.Errorf("netx: invalid MAC %q", s)
		}
		if i < 5 && s[i*3+2] != ':' {
			return m, fmt.Errorf("netx: invalid MAC %q", s)
		}
		m[i] = hi<<4 | lo
	}
	return m, nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// String renders the address in canonical lower-case colon notation.
func (m MAC) String() string {
	const hexdigit = "0123456789abcdef"
	buf := make([]byte, 0, 17)
	for i, b := range m {
		if i > 0 {
			buf = append(buf, ':')
		}
		buf = append(buf, hexdigit[b>>4], hexdigit[b&0xf])
	}
	return string(buf)
}

// IsBroadcast reports whether the address is ff:ff:ff:ff:ff:ff.
func (m MAC) IsBroadcast() bool {
	return m == MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
}

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IsZero reports whether the address is all zeros.
func (m MAC) IsZero() bool { return m == MAC{} }

// OUI returns the 24-bit organisationally unique identifier, which vendor
// databases (and the PII scanner, §6.2 of the paper) use to identify the
// device manufacturer from a leaked MAC address.
func (m MAC) OUI() uint32 {
	return uint32(m[0])<<16 | uint32(m[1])<<8 | uint32(m[2])
}

// Broadcast is the Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Addr is an IP address; we alias the standard library's netip.Addr, which
// is comparable and therefore usable directly as a map key in flow tables.
type Addr = netip.Addr

// ParseAddr wraps netip.ParseAddr.
func ParseAddr(s string) (Addr, error) { return netip.ParseAddr(s) }

// MustParseAddr wraps netip.MustParseAddr.
func MustParseAddr(s string) Addr { return netip.MustParseAddr(s) }

// addr4 converts 4 wire bytes into an Addr.
func addr4(b []byte) Addr {
	var a [4]byte
	copy(a[:], b)
	return netip.AddrFrom4(a)
}

// addr16 converts 16 wire bytes into an Addr.
func addr16(b []byte) Addr {
	var a [16]byte
	copy(a[:], b)
	return netip.AddrFrom16(a)
}

// be16 reads a big-endian uint16.
func be16(b []byte) uint16 { return binary.BigEndian.Uint16(b) }

// be32 reads a big-endian uint32.
func be32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

// put16 writes a big-endian uint16.
func put16(b []byte, v uint16) { binary.BigEndian.PutUint16(b, v) }

// put32 writes a big-endian uint32.
func put32(b []byte, v uint32) { binary.BigEndian.PutUint32(b, v) }
