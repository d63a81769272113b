package netx

import (
	"bytes"
	"testing"
	"time"
)

func flowPacket(ts time.Time, src, dst string, sport, dport uint16, payload []byte) *Packet {
	p := &Packet{
		Meta: CaptureInfo{Timestamp: ts, Length: EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen + len(payload)},
		Eth:  Ethernet{EtherType: EtherTypeIPv4},
		IPv4: &IPv4{TTL: 64, Protocol: ProtoTCP,
			Src: MustParseAddr(src), Dst: MustParseAddr(dst)},
		TCP:     &TCP{SrcPort: sport, DstPort: dport, Flags: TCPAck},
		Payload: payload,
	}
	return p
}

func TestFlowKeyCanonical(t *testing.T) {
	a := Endpoint{Addr: MustParseAddr("192.168.10.15"), Port: 49152}
	b := Endpoint{Addr: MustParseAddr("52.1.2.3"), Port: 443}
	k1 := NewFlowKey(a, b, ProtoTCP)
	k2 := NewFlowKey(b, a, ProtoTCP)
	if k1 != k2 {
		t.Fatalf("flow keys not symmetric: %v vs %v", k1, k2)
	}
}

func TestFlowAssembly(t *testing.T) {
	base := testTime
	tbl := NewFlowTable()
	tbl.Add(flowPacket(base, "192.168.10.15", "52.1.2.3", 49152, 443, []byte("req1")))
	tbl.Add(flowPacket(base.Add(10*time.Millisecond), "52.1.2.3", "192.168.10.15", 443, 49152, []byte("resp1long")))
	tbl.Add(flowPacket(base.Add(20*time.Millisecond), "192.168.10.15", "52.1.2.3", 49152, 443, []byte("req2")))

	flows := tbl.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	f := flows[0]
	if f.Initiator.Port != 49152 {
		t.Errorf("initiator = %v", f.Initiator)
	}
	if f.BytesUp != 8 || f.BytesDown != 9 {
		t.Errorf("bytes up/down = %d/%d", f.BytesUp, f.BytesDown)
	}
	if f.PacketsUp != 2 || f.PacketsDown != 1 {
		t.Errorf("packets up/down = %d/%d", f.PacketsUp, f.PacketsDown)
	}
	if f.Duration() != 20*time.Millisecond {
		t.Errorf("duration = %v", f.Duration())
	}
	if got := f.PayloadUp(0); !bytes.Equal(got, []byte("req1req2")) {
		t.Errorf("PayloadUp = %q", got)
	}
	if got := f.PayloadDown(4); !bytes.Equal(got, []byte("resp")) {
		t.Errorf("PayloadDown(4) = %q", got)
	}
}

func TestFlowTableSeparatesConversations(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(flowPacket(testTime, "192.168.10.15", "52.1.2.3", 49152, 443, nil))
	tbl.Add(flowPacket(testTime, "192.168.10.15", "52.1.2.3", 49153, 443, nil))
	tbl.Add(flowPacket(testTime, "192.168.10.16", "52.1.2.3", 49152, 443, nil))
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}
}

func TestFlowTableIgnoresARP(t *testing.T) {
	tbl := NewFlowTable()
	arp := &Packet{
		Eth: Ethernet{EtherType: EtherTypeARP},
		ARP: &ARP{Op: ARPRequest},
	}
	if f := tbl.Add(arp); f != nil {
		t.Fatal("ARP packet should not create a flow")
	}
}

func TestSortPacketsByTime(t *testing.T) {
	p1 := flowPacket(testTime.Add(time.Second), "192.168.10.15", "52.1.2.3", 1, 2, nil)
	p2 := flowPacket(testTime, "192.168.10.15", "52.1.2.3", 1, 2, nil)
	pkts := []*Packet{p1, p2}
	SortPacketsByTime(pkts)
	if pkts[0] != p2 {
		t.Fatal("packets not sorted by time")
	}
}

func TestAssembleFlows(t *testing.T) {
	pkts := []*Packet{
		flowPacket(testTime, "192.168.10.15", "52.1.2.3", 49152, 443, []byte("a")),
		flowPacket(testTime, "192.168.10.15", "8.8.8.8", 5353, 53, nil),
	}
	flows := AssembleFlows(pkts)
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
}

// TestAppendHeadsMatchesPayloadDirs requires AppendHeads to append what
// PayloadUp and PayloadDown return, for caps below, inside and past
// packet boundaries, after whatever the buffers already hold.
func TestAppendHeadsMatchesPayloadDirs(t *testing.T) {
	tbl := NewFlowTable()
	up, down := []string{"req1", "", "request-two", "r3"}, []string{"resp1long", "", "x", "response-four"}
	for i := range up {
		ts := testTime.Add(time.Duration(i) * time.Millisecond)
		tbl.Add(flowPacket(ts, "192.168.10.15", "52.1.2.3", 49152, 443, []byte(up[i])))
		tbl.Add(flowPacket(ts, "52.1.2.3", "192.168.10.15", 443, 49152, []byte(down[i])))
	}
	f := tbl.Flows()[0]
	for limit := -1; limit <= 30; limit++ {
		gotUp, gotDown := f.AppendHeads([]byte("u:"), []byte("d:"), limit)
		if want := append([]byte("u:"), f.PayloadUp(limit)...); !bytes.Equal(gotUp, want) {
			t.Errorf("limit %d: up %q, want %q", limit, gotUp, want)
		}
		if want := append([]byte("d:"), f.PayloadDown(limit)...); !bytes.Equal(gotDown, want) {
			t.Errorf("limit %d: down %q, want %q", limit, gotDown, want)
		}
	}
}
