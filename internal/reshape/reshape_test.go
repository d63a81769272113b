package reshape

import (
	"bytes"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

var (
	deviceIP = netip.AddrFrom4([4]byte{192, 168, 1, 23})
	wanA     = netip.AddrFrom4([4]byte{93, 184, 216, 34})
	wanB     = netip.AddrFrom4([4]byte{151, 101, 1, 69})
	ssdpIP   = netip.AddrFrom4([4]byte{239, 255, 255, 250})
	devMAC   = netx.MAC{0x02, 0x42, 0xac, 0x11, 0x00, 0x02}
	gwMAC    = netx.MAC{0x02, 0x42, 0xac, 0x11, 0x00, 0x01}
)

func tcpPkt(ts time.Time, src, dst netip.Addr, sport, dport uint16, payload string) *netx.Packet {
	p := &netx.Packet{
		Meta: netx.CaptureInfo{Timestamp: ts},
		Eth:  netx.Ethernet{Src: devMAC, Dst: gwMAC, EtherType: netx.EtherTypeIPv4},
		IPv4: &netx.IPv4{TTL: 64, Protocol: netx.ProtoTCP, Src: src, Dst: dst},
		TCP:  &netx.TCP{SrcPort: sport, DstPort: dport, Flags: netx.TCPAck},
	}
	p.Payload = []byte(payload)
	p.Meta.Length = p.WireLen()
	p.Meta.CaptureLength = p.Meta.Length
	return p
}

func udpPkt(ts time.Time, src, dst netip.Addr, sport, dport uint16, payload string) *netx.Packet {
	p := &netx.Packet{
		Meta: netx.CaptureInfo{Timestamp: ts},
		Eth:  netx.Ethernet{Src: devMAC, Dst: gwMAC, EtherType: netx.EtherTypeIPv4},
		IPv4: &netx.IPv4{TTL: 64, Protocol: netx.ProtoUDP, Src: src, Dst: dst},
		UDP:  &netx.UDP{SrcPort: sport, DstPort: dport},
	}
	p.Payload = []byte(payload)
	p.Meta.Length = p.WireLen()
	p.Meta.CaptureLength = p.Meta.Length
	return p
}

// testExp builds a small but representative capture: DNS, a TCP
// exchange, a UDP exchange, LAN multicast, and an empty-payload ACK.
func testExp() *testbed.Experiment {
	dev := &devices.Instance{
		Profile: &devices.Profile{Name: "Test Cam"},
		Lab:     "US",
		MAC:     devMAC,
	}
	t0 := time.Unix(1_560_000_000, 0).UTC()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	pkts := []*netx.Packet{
		udpPkt(at(0), deviceIP, wanB, 54321, 53, "\x12\x34dns query camera.example"),
		udpPkt(at(35), wanB, deviceIP, 53, 54321, "\x12\x34dns answer 93.184.216.34"),
		tcpPkt(at(120), deviceIP, wanA, 40001, 443, "client hello with a sni inside"),
		tcpPkt(at(180), wanA, deviceIP, 443, 40001, "server hello certificate chain and more bytes"),
		tcpPkt(at(250), deviceIP, wanA, 40001, 443, ""),
		tcpPkt(at(900), deviceIP, wanA, 40001, 443, "POST /upload frame-data-0"),
		tcpPkt(at(1800), wanA, deviceIP, 443, 40001, "200 OK"),
		udpPkt(at(2500), deviceIP, wanB, 40002, 32100, "wire-enc ping"),
		udpPkt(at(2600), wanB, deviceIP, 32100, 40002, "wire-enc pong"),
		udpPkt(at(4000), deviceIP, ssdpIP, 1900, 1900, "M-SEARCH * HTTP/1.1"),
		tcpPkt(at(9000), deviceIP, wanA, 40001, 443, "keepalive"),
	}
	return &testbed.Experiment{
		Lab:      "US",
		Column:   "wan",
		Device:   dev,
		DeviceIP: deviceIP,
		Kind:     testbed.KindInteraction,
		Activity: "android_wan_photo",
		Start:    t0,
		End:      t0.Add(10 * time.Second),
		Packets:  pkts,
	}
}

func clonePacket(p *netx.Packet) *netx.Packet {
	q := *p
	if p.IPv4 != nil {
		v := *p.IPv4
		q.IPv4 = &v
	}
	if p.IPv6 != nil {
		v := *p.IPv6
		q.IPv6 = &v
	}
	if p.TCP != nil {
		v := *p.TCP
		q.TCP = &v
	}
	if p.UDP != nil {
		v := *p.UDP
		q.UDP = &v
	}
	if p.ARP != nil {
		v := *p.ARP
		q.ARP = &v
	}
	if p.ICMP != nil {
		v := *p.ICMP
		q.ICMP = &v
	}
	q.Payload = append([]byte(nil), p.Payload...)
	return &q
}

func cloneExp(exp *testbed.Experiment) *testbed.Experiment {
	c := *exp
	c.Packets = make([]*netx.Packet, len(exp.Packets))
	for i, p := range exp.Packets {
		c.Packets[i] = clonePacket(p)
	}
	return &c
}

// fingerprint renders an experiment's packets — wire bytes plus
// timestamps — so byte-identity means identity of everything a capture
// file would record.
func fingerprint(exp *testbed.Experiment) string {
	var b bytes.Buffer
	for _, p := range exp.Packets {
		fmt.Fprintf(&b, "%d %d %x\n", p.Meta.Timestamp.UnixNano(), p.Meta.Length, p.Serialize())
	}
	return b.String()
}

func mustEngine(t *testing.T, stack []string, seed int64, budget float64) *Engine {
	t.Helper()
	e, err := New(Config{Stack: stack, Seed: seed, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseStack(t *testing.T) {
	for _, in := range []string{"", "none", "clean", " , "} {
		got, err := ParseStack(in)
		if err != nil || got != nil {
			t.Fatalf("ParseStack(%q) = %v, %v; want nil, nil", in, got, err)
		}
	}
	got, err := ParseStack(" pad , dummy,vpn ")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pad", "dummy", "vpn"}
	if len(got) != len(want) {
		t.Fatalf("ParseStack = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseStack = %v, want %v", got, want)
		}
	}
	if _, err := ParseStack("pad,quantize"); err == nil {
		t.Fatal("unknown transform did not error")
	}
}

func TestNewValidation(t *testing.T) {
	if e, err := New(Config{}); e != nil || err != nil {
		t.Fatalf("New(empty) = %v, %v; want nil, nil", e, err)
	}
	if _, err := New(Config{Stack: []string{"pad"}, Budget: 1.5}); err == nil {
		t.Fatal("budget > 1 did not error")
	}
	if _, err := New(Config{Stack: []string{"pad"}, Budget: -0.1}); err == nil {
		t.Fatal("budget < 0 did not error")
	}
	if _, err := New(Config{Stack: []string{"nope"}, Budget: 0.5}); err == nil {
		t.Fatal("unknown transform did not error")
	}
}

func TestNilEngineInert(t *testing.T) {
	var e *Engine
	if e.Enabled() || e.Stack() != nil || e.Budget() != 0 || e.Seed() != 0 {
		t.Fatal("nil engine not inert")
	}
	if e.DropBudget(100) != 0 {
		t.Fatal("nil engine has a drop budget")
	}
	e.SetObs(nil)
	exp := testExp()
	before := fingerprint(exp)
	e.Transform(exp)
	if fingerprint(exp) != before {
		t.Fatal("nil engine mutated the capture")
	}
}

func TestZeroBudgetIsIdentity(t *testing.T) {
	e := mustEngine(t, KnownTransforms, 7, 0)
	exp := testExp()
	before := fingerprint(exp)
	e.Transform(exp)
	if fingerprint(exp) != before {
		t.Fatal("zero-budget stack is not bit-for-bit identity")
	}
}

func TestDropFloor(t *testing.T) {
	stacks := [][]string{
		{TransformPad}, {TransformShape}, {TransformDummy}, {TransformVPN},
		KnownTransforms,
	}
	for _, stack := range stacks {
		for _, budget := range []float64{0.1, 0.3, 0.5, 1.0} {
			e := mustEngine(t, stack, 3, budget)
			exp := testExp()
			n := len(exp.Packets)
			e.Transform(exp)
			floor := n - e.DropBudget(n)
			if len(exp.Packets) < floor {
				t.Errorf("stack %v budget %v: %d packets < floor %d",
					stack, budget, len(exp.Packets), floor)
			}
		}
	}
}

func TestPaddingPreservesPayloadBytes(t *testing.T) {
	for _, budget := range []float64{0.1, 0.5, 1.0} {
		e := mustEngine(t, []string{TransformPad}, 11, budget)
		orig := testExp()
		exp := cloneExp(orig)
		e.Transform(exp)
		if len(exp.Packets) != len(orig.Packets) {
			t.Fatalf("budget %v: padding changed packet count", budget)
		}
		for i, p := range exp.Packets {
			want := orig.Packets[i].Payload
			if len(p.Payload) < len(want) || !bytes.Equal(p.Payload[:len(want)], want) {
				t.Fatalf("budget %v packet %d: original payload not a prefix of padded payload", budget, i)
			}
			q := e.padQuantum()
			if len(want) > 0 && !isDNS(p) && len(p.Payload)%q != 0 {
				t.Fatalf("budget %v packet %d: padded length %d not a multiple of quantum %d",
					budget, i, len(p.Payload), q)
			}
		}
	}
}

func TestDNSExemptFromPadding(t *testing.T) {
	e := mustEngine(t, []string{TransformPad}, 1, 1)
	orig := testExp()
	exp := cloneExp(orig)
	e.Transform(exp)
	for i, p := range exp.Packets {
		if isDNS(p) && !bytes.Equal(p.Payload, orig.Packets[i].Payload) {
			t.Fatalf("packet %d: DNS payload was padded", i)
		}
	}
}

func TestSeededDeterminismAcrossRunsAndGoroutines(t *testing.T) {
	for _, seed := range []int64{1, 42, 987654321} {
		e := mustEngine(t, KnownTransforms, seed, 0.4)
		base := cloneExp(testExp())
		e.Transform(base)
		want := fingerprint(base)

		// Repeated serial runs and concurrent runs (simulating any
		// analysis worker count) must all reshape byte-identically.
		var wg sync.WaitGroup
		got := make([]string, 5)
		for w := 0; w < 5; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				exp := cloneExp(testExp())
				e.Transform(exp)
				got[w] = fingerprint(exp)
			}(w)
		}
		wg.Wait()
		for w, g := range got {
			if g != want {
				t.Fatalf("seed %d: goroutine %d produced a different capture", seed, w)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := cloneExp(testExp())
	b := cloneExp(testExp())
	mustEngine(t, KnownTransforms, 1, 0.4).Transform(a)
	mustEngine(t, KnownTransforms, 2, 0.4).Transform(b)
	if fingerprint(a) == fingerprint(b) {
		t.Fatal("different seeds reshaped identically")
	}
}

func TestVPNCollapsesWANTuples(t *testing.T) {
	e := mustEngine(t, []string{TransformVPN}, 5, 0.3)
	exp := testExp()
	e.Transform(exp)
	for i, p := range exp.Packets {
		src, okS := p.NetworkSrc()
		dst, okD := p.NetworkDst()
		if !okS || !okD {
			continue
		}
		wan := !isLAN(src) || !isLAN(dst)
		if !wan {
			continue
		}
		if src != TunnelAddr && dst != TunnelAddr {
			t.Fatalf("packet %d: WAN traffic outside the tunnel (%v -> %v)", i, src, dst)
		}
		if p.UDP == nil || p.UDP.SrcPort != TunnelPort || p.UDP.DstPort != TunnelPort {
			t.Fatalf("packet %d: tunnel packet not UDP/%d", i, TunnelPort)
		}
	}
}

func TestDummyAddsNoNewDestinations(t *testing.T) {
	e := mustEngine(t, []string{TransformDummy}, 9, 1)
	orig := testExp()
	exp := cloneExp(orig)
	e.Transform(exp)
	if len(exp.Packets) <= len(orig.Packets) {
		t.Fatal("budget 1 dummy injected nothing")
	}
	known := map[netip.Addr]bool{}
	for _, p := range orig.Packets {
		if dst, ok := p.NetworkDst(); ok {
			known[dst] = true
		}
	}
	for i, p := range exp.Packets {
		dst, ok := p.NetworkDst()
		if ok && !known[dst] {
			t.Fatalf("packet %d: cover flow to unseen destination %v", i, dst)
		}
	}
}

func TestObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	e := mustEngine(t, KnownTransforms, 13, 0.5)
	e.SetObs(reg)
	e.Transform(testExp())
	for _, name := range []string{
		"reshape_experiments_total", "reshape_padded_packets_total",
		"reshape_pad_bytes_total", "reshape_dummy_packets_total",
		"reshape_tunneled_packets_total",
	} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("%s is zero after a full-stack transform", name)
		}
	}
}
