package netx

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

var (
	testTime = time.Date(2019, 4, 1, 12, 0, 0, 0, time.UTC)
	hostMAC  = MAC{0x74, 0xda, 0x38, 0x1b, 0x20, 0x01}
	gwMAC    = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
)

func tcpPacket(payload []byte) *Packet {
	return &Packet{
		Eth: Ethernet{
			Src:       hostMAC,
			Dst:       gwMAC,
			EtherType: EtherTypeIPv4,
		},
		IPv4: &IPv4{
			TTL:      64,
			Protocol: ProtoTCP,
			Src:      MustParseAddr("192.168.10.15"),
			Dst:      MustParseAddr("52.1.2.3"),
			ID:       0x1234,
		},
		TCP: &TCP{
			SrcPort: 49152,
			DstPort: 443,
			Seq:     1000,
			Ack:     2000,
			Flags:   TCPPsh | TCPAck,
			Window:  65535,
		},
		Payload: payload,
	}
}

func TestTCPRoundTrip(t *testing.T) {
	p := tcpPacket([]byte("hello, cloud"))
	wire := p.Serialize()
	if len(wire) != p.WireLen() {
		t.Fatalf("WireLen = %d, serialized %d", p.WireLen(), len(wire))
	}
	q, err := Decode(testTime, wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if q.IPv4 == nil || q.TCP == nil {
		t.Fatal("missing layers after decode")
	}
	if q.IPv4.Src != p.IPv4.Src || q.IPv4.Dst != p.IPv4.Dst {
		t.Errorf("IP addrs: got %v->%v", q.IPv4.Src, q.IPv4.Dst)
	}
	if q.TCP.SrcPort != 49152 || q.TCP.DstPort != 443 {
		t.Errorf("ports: got %d->%d", q.TCP.SrcPort, q.TCP.DstPort)
	}
	if q.TCP.Flags != TCPPsh|TCPAck {
		t.Errorf("flags: got %08b", q.TCP.Flags)
	}
	if !bytes.Equal(q.Payload, []byte("hello, cloud")) {
		t.Errorf("payload: got %q", q.Payload)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{
			Src:       hostMAC,
			Dst:       gwMAC,
			EtherType: EtherTypeIPv4,
		},
		IPv4: &IPv4{TTL: 64, Protocol: ProtoUDP,
			Src: MustParseAddr("192.168.10.15"), Dst: MustParseAddr("8.8.8.8")},
		UDP:     &UDP{SrcPort: 5353, DstPort: 53},
		Payload: []byte{0xab, 0xcd, 0x01, 0x00},
	}
	q, err := Decode(testTime, p.Serialize())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if q.UDP == nil {
		t.Fatal("no UDP layer")
	}
	if q.UDP.SrcPort != 5353 || q.UDP.DstPort != 53 {
		t.Errorf("ports: %d->%d", q.UDP.SrcPort, q.UDP.DstPort)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Errorf("payload mismatch: %x", q.Payload)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{EtherType: EtherTypeIPv6},
		IPv6: &IPv6{HopLimit: 64, NextHeader: ProtoTCP,
			Src: MustParseAddr("fd00::15"), Dst: MustParseAddr("2001:db8::1")},
		TCP:     &TCP{SrcPort: 40000, DstPort: 443, Flags: TCPSyn},
		Payload: nil,
	}
	q, err := Decode(testTime, p.Serialize())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if q.IPv6 == nil || q.TCP == nil {
		t.Fatal("missing layers")
	}
	if q.IPv6.Src != p.IPv6.Src {
		t.Errorf("src: %v", q.IPv6.Src)
	}
	if q.TCP.Flags != TCPSyn {
		t.Errorf("flags: %08b", q.TCP.Flags)
	}
}

func TestARPRoundTrip(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{
			Src:       hostMAC,
			Dst:       Broadcast,
			EtherType: EtherTypeARP,
		},
		ARP: &ARP{
			Op:        ARPRequest,
			SenderMAC: hostMAC,
			SenderIP:  MustParseAddr("192.168.10.15"),
			TargetIP:  MustParseAddr("192.168.10.1"),
		},
	}
	q, err := Decode(testTime, p.Serialize())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if q.ARP == nil {
		t.Fatal("no ARP layer")
	}
	if q.ARP.Op != ARPRequest || q.ARP.TargetIP != MustParseAddr("192.168.10.1") {
		t.Errorf("ARP fields: %+v", q.ARP)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{EtherType: EtherTypeIPv4},
		IPv4: &IPv4{TTL: 1, Protocol: ProtoICMP,
			Src: MustParseAddr("192.168.10.15"), Dst: MustParseAddr("52.1.2.3")},
		ICMP: &ICMP{Type: ICMPEchoRequest, ID: 7, Seq: 3, Body: []byte("probe")},
	}
	q, err := Decode(testTime, p.Serialize())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if q.ICMP == nil {
		t.Fatal("no ICMP layer")
	}
	if q.ICMP.Type != ICMPEchoRequest || q.ICMP.ID != 7 || q.ICMP.Seq != 3 {
		t.Errorf("ICMP fields: %+v", q.ICMP)
	}
	if !bytes.Equal(q.ICMP.Body, []byte("probe")) {
		t.Errorf("body: %q", q.ICMP.Body)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	wire := tcpPacket([]byte("x")).Serialize()
	// Verify the IPv4 header checksum validates to zero.
	ipHdr := wire[EthernetHeaderLen : EthernetHeaderLen+IPv4HeaderLen]
	if got := Checksum(ipHdr); got != 0 {
		t.Fatalf("IPv4 header checksum does not validate: %04x", got)
	}
}

func TestTCPChecksumValid(t *testing.T) {
	p := tcpPacket([]byte("odd-length."))
	wire := p.Serialize()
	seg := wire[EthernetHeaderLen+IPv4HeaderLen:]
	if got := TransportChecksum(p.IPv4.Src, p.IPv4.Dst, ProtoTCP, seg); got != 0 {
		t.Fatalf("TCP checksum does not validate: %04x", got)
	}
}

func TestDecodeTruncatedFrames(t *testing.T) {
	if _, err := Decode(testTime, []byte{1, 2, 3}); err == nil {
		t.Error("expected error for 3-byte frame")
	}
	// Truncated IPv4: decode keeps Ethernet layer, payload raw.
	full := tcpPacket(nil).Serialize()
	p, err := Decode(testTime, full[:EthernetHeaderLen+4])
	if err != nil {
		t.Fatalf("Decode truncated: %v", err)
	}
	if p.IPv4 != nil {
		t.Error("IPv4 should not decode from 4 bytes")
	}
	if len(p.Payload) != 4 {
		t.Errorf("payload = %d bytes", len(p.Payload))
	}
}

func TestDecodeUnknownEtherType(t *testing.T) {
	frame := make([]byte, 20)
	frame[12], frame[13] = 0x88, 0xcc // LLDP
	p, err := Decode(testTime, frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.Eth.EtherType != 0x88cc {
		t.Errorf("ethertype: %04x", p.Eth.EtherType)
	}
	if len(p.Payload) != 6 {
		t.Errorf("payload: %d", len(p.Payload))
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(payload []byte, sport, dport uint16, seq, ack uint32) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := tcpPacket(payload)
		p.TCP.SrcPort, p.TCP.DstPort = sport, dport
		p.TCP.Seq, p.TCP.Ack = seq, ack
		q, err := Decode(testTime, p.Serialize())
		if err != nil {
			return false
		}
		return q.TCP != nil &&
			q.TCP.SrcPort == sport && q.TCP.DstPort == dport &&
			q.TCP.Seq == seq && q.TCP.Ack == ack &&
			bytes.Equal(q.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketString(t *testing.T) {
	p := tcpPacket([]byte("x"))
	p.Meta.Timestamp = testTime
	s := p.String()
	if want := "192.168.10.15.49152 > 52.1.2.3.443"; !bytes.Contains([]byte(s), []byte(want)) {
		t.Errorf("String() = %q, want substring %q", s, want)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of {0x00,0x01,0xf2,0x03,0xf4,0xf5,0xf6,0xf7}.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %04x, want %04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length data is padded with a zero byte.
	if Checksum([]byte{0xab}) != Checksum([]byte{0xab, 0x00}) {
		t.Fatal("odd-length checksum should equal zero-padded checksum")
	}
}

func TestIPv6UDPRoundTrip(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{EtherType: EtherTypeIPv6},
		IPv6: &IPv6{HopLimit: 64, NextHeader: ProtoUDP, TrafficClass: 0x20, FlowLabel: 0xabcde,
			Src: MustParseAddr("fd00::15"), Dst: MustParseAddr("2001:db8::53")},
		UDP:     &UDP{SrcPort: 5353, DstPort: 53},
		Payload: []byte{1, 2, 3},
	}
	q, err := Decode(testTime, p.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if q.IPv6 == nil || q.UDP == nil {
		t.Fatal("missing layers")
	}
	if q.IPv6.TrafficClass != 0x20 || q.IPv6.FlowLabel != 0xabcde {
		t.Errorf("tc/flow: %x %x", q.IPv6.TrafficClass, q.IPv6.FlowLabel)
	}
	if !bytes.Equal(q.Payload, []byte{1, 2, 3}) {
		t.Errorf("payload: %v", q.Payload)
	}
}

func TestUDPChecksumValidates(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{EtherType: EtherTypeIPv4},
		IPv4: &IPv4{TTL: 64, Protocol: ProtoUDP,
			Src: MustParseAddr("192.168.10.15"), Dst: MustParseAddr("8.8.8.8")},
		UDP:     &UDP{SrcPort: 9999, DstPort: 53},
		Payload: []byte("abcde"),
	}
	wire := p.Serialize()
	seg := wire[EthernetHeaderLen+IPv4HeaderLen:]
	if got := TransportChecksum(p.IPv4.Src, p.IPv4.Dst, ProtoUDP, seg); got != 0 && got != 0xffff {
		t.Fatalf("UDP checksum does not validate: %04x", got)
	}
}

func TestTCPFlagString(t *testing.T) {
	cases := map[uint8]string{
		TCPSyn:                   "S",
		TCPSyn | TCPAck:          "SA",
		TCPPsh | TCPAck:          "PA",
		TCPFin | TCPAck:          "FA",
		TCPRst:                   "R",
		0:                        ".",
		TCPUrg | TCPPsh | TCPAck: "PAU",
	}
	for flags, want := range cases {
		tcp := &TCP{Flags: flags}
		if got := tcp.FlagString(); got != want {
			t.Errorf("FlagString(%08b) = %q, want %q", flags, got, want)
		}
	}
}

func TestWireLenMatchesSerializeAcrossShapes(t *testing.T) {
	shapes := []*Packet{
		tcpPacket([]byte("xyz")),
		{Eth: Ethernet{EtherType: EtherTypeIPv4},
			IPv4: &IPv4{Protocol: ProtoUDP, Src: MustParseAddr("10.0.0.1"), Dst: MustParseAddr("10.0.0.2")},
			UDP:  &UDP{SrcPort: 1, DstPort: 2}, Payload: []byte("hello")},
		{Eth: Ethernet{EtherType: EtherTypeARP}, ARP: &ARP{Op: ARPReply,
			SenderIP: MustParseAddr("10.0.0.1"), TargetIP: MustParseAddr("10.0.0.2")}},
		{Eth: Ethernet{EtherType: EtherTypeIPv4},
			IPv4: &IPv4{Protocol: ProtoICMP, Src: MustParseAddr("10.0.0.1"), Dst: MustParseAddr("10.0.0.2")},
			ICMP: &ICMP{Type: ICMPTimeExceeded, Body: []byte("ttl")}},
		{Eth: Ethernet{EtherType: 0x9999}, Payload: []byte("raw")},
	}
	for i, p := range shapes {
		if got, want := len(p.Serialize()), p.WireLen(); got != want {
			t.Errorf("shape %d: Serialize %d bytes, WireLen %d", i, got, want)
		}
	}
}
