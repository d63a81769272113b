package devices

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/entropy"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/pii"
)

var synthStart = time.Date(2019, 4, 1, 10, 0, 0, 0, time.UTC)

// mustMAC parses a MAC literal, failing the test on error.
func mustMAC(t testing.TB, s string) netx.MAC {
	t.Helper()
	m, err := netx.ParseMAC(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testEnv(t *testing.T, lab string, vpn bool, seed int64) *Env {
	t.Helper()
	in := cloud.New()
	egress := lab
	if vpn {
		if lab == LabUS {
			egress = LabUK
		} else {
			egress = LabUS
		}
	}
	return &Env{
		Lookup: func(fqdn string, t time.Time, attempt int) (cloud.Resolution, error) {
			return in.Resolve(fqdn, egress, cloud.ResolveOpts{VPN: vpn, Time: t, Attempt: attempt})
		},
		Peer:       in.ResidentialPeer,
		DeviceIP:   netip.MustParseAddr("192.168.10.15"),
		GatewayIP:  netip.MustParseAddr("192.168.10.1"),
		DNSAddr:    netip.MustParseAddr("192.168.10.1"),
		DeviceMAC:  mustMAC(t, "74:da:38:00:00:01"),
		GatewayMAC: mustMAC(t, "02:00:00:00:00:01"),
		Lab:        lab,
		VPN:        vpn,
		Rng:        rand.New(rand.NewSource(seed)),
	}
}

func TestInventoryMatchesPaper(t *testing.T) {
	if err := instanceCheck(Catalog()); err != nil {
		t.Fatal(err)
	}
	if got := len(Instances()); got != 81 {
		t.Fatalf("instances = %d, want 81", got)
	}
	if got := len(InstancesInLab(LabUS)); got != 46 {
		t.Fatalf("US instances = %d, want 46", got)
	}
	if got := len(InstancesInLab(LabUK)); got != 35 {
		t.Fatalf("UK instances = %d, want 35", got)
	}
}

func TestCatalogWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Catalog() {
		if seen[p.Name] {
			t.Errorf("duplicate device name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Manufacturer == "" || p.Category == "" || len(p.Labs) == 0 {
			t.Errorf("%s: incomplete profile", p.Name)
		}
		if len(p.Endpoints) == 0 || len(p.PowerEndpoints) == 0 {
			t.Errorf("%s: no endpoints", p.Name)
		}
		for _, key := range p.PowerEndpoints {
			if _, ok := p.Endpoint(key); !ok {
				t.Errorf("%s: power endpoint %q undefined", p.Name, key)
			}
		}
		for _, a := range p.Activities {
			if len(a.Methods) == 0 {
				t.Errorf("%s/%s: no methods", p.Name, a.Name)
			}
			for _, key := range a.Endpoints {
				if _, ok := p.Endpoint(key); !ok {
					t.Errorf("%s/%s: endpoint %q undefined", p.Name, a.Name, key)
				}
			}
		}
		for _, l := range p.PII {
			if _, ok := p.Endpoint(l.Endpoint); !ok {
				t.Errorf("%s: PII leak endpoint %q undefined", p.Name, l.Endpoint)
			}
		}
		for _, sp := range p.Idle.Spurious {
			if _, ok := p.Activity(sp.ActivityName); !ok {
				t.Errorf("%s: spurious activity %q undefined", p.Name, sp.ActivityName)
			}
		}
	}
}

func TestAllEndpointDomainsResolve(t *testing.T) {
	in := cloud.New()
	for _, p := range Catalog() {
		for _, ep := range p.Endpoints {
			if ep.Domain == "" {
				if ep.PeerISP == "" {
					t.Errorf("%s/%s: neither domain nor peer ISP", p.Name, ep.Key)
				}
				continue
			}
			for _, egress := range []string{"US", "GB"} {
				if _, err := in.Lookup(ep.Domain, egress); err != nil {
					t.Errorf("%s/%s: %v", p.Name, ep.Key, err)
				}
			}
		}
	}
}

func TestIdentityDeterministicAndDistinct(t *testing.T) {
	p, _ := ByName("Samsung Fridge")
	a := NewInstance(p, LabUS)
	b := NewInstance(p, LabUS)
	if a.MAC != b.MAC {
		t.Fatal("identity not deterministic")
	}
	if a.MAC[0] != p.OUI[0] || a.MAC[1] != p.OUI[1] || a.MAC[2] != p.OUI[2] {
		t.Errorf("MAC %v does not carry OUI %v", a.MAC, p.OUI)
	}
	macs := map[netx.MAC]string{}
	for _, inst := range Instances() {
		if prev, dup := macs[inst.MAC]; dup {
			t.Errorf("MAC collision: %s and %s", prev, inst.ID())
		}
		macs[inst.MAC] = inst.ID()
	}
}

func TestInstancePIICorpus(t *testing.T) {
	p, _ := ByName("Ring Doorbell")
	inst := NewInstance(p, LabUK)
	kinds := map[pii.Kind]bool{}
	for _, it := range inst.PII.Items() {
		kinds[it.Kind] = true
	}
	for _, want := range []pii.Kind{pii.KindMAC, pii.KindUUID, pii.KindEmail, pii.KindName, pii.KindGeo} {
		if !kinds[want] {
			t.Errorf("missing PII kind %v", want)
		}
	}
	// UK instances register under the UK persona.
	found := false
	for _, it := range inst.PII.Items() {
		if it.Kind == pii.KindName && it.Value == "John Bull" {
			found = true
		}
	}
	if !found {
		t.Error("UK registrant not used")
	}
}

func TestExpandTemplate(t *testing.T) {
	p, _ := ByName("Samsung Fridge")
	inst := NewInstance(p, LabUS)
	out := inst.ExpandTemplate("device={mac}&when={hour_date}", "2019-04-01T10")
	if !strings.Contains(out, inst.MAC.String()) || !strings.Contains(out, "2019-04-01T10") {
		t.Errorf("expansion: %q", out)
	}
}

func TestPowerGeneratesTraffic(t *testing.T) {
	p, _ := ByName("Samsung TV")
	inst := NewInstance(p, LabUS)
	g := NewGen(inst, testEnv(t, LabUS, false, 1))
	pkts, end := g.Power(synthStart)
	if len(pkts) < 20 {
		t.Fatalf("power burst too small: %d packets", len(pkts))
	}
	if !end.After(synthStart) {
		t.Error("time did not advance")
	}
	// Every packet must carry valid timestamps and serialize round-trip.
	for _, pk := range pkts {
		wire := pk.Serialize()
		if _, err := netx.Decode(pk.Meta.Timestamp, wire); err != nil {
			t.Fatalf("packet does not round-trip: %v", err)
		}
	}
	// DNS must have been emitted for the API domain.
	foundDNS := false
	for _, pk := range pkts {
		if pk.UDP != nil && pk.UDP.DstPort == 53 {
			foundDNS = true
		}
	}
	if !foundDNS {
		t.Error("no DNS query in power burst")
	}
}

func TestInteractionDeterministic(t *testing.T) {
	p, _ := ByName("TP-Link Plug")
	inst := NewInstance(p, LabUS)
	act, _ := p.Activity("on")
	g1 := NewGen(inst, testEnv(t, LabUS, false, 7))
	g2 := NewGen(inst, testEnv(t, LabUS, false, 7))
	a, _ := g1.Interaction(act, MethodLAN, synthStart)
	b, _ := g2.Interaction(act, MethodLAN, synthStart)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %d vs %d packets", len(a), len(b))
	}
	for i := range a {
		if string(a[i].Serialize()) != string(b[i].Serialize()) {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestWireClassifications(t *testing.T) {
	cases := []struct {
		device, activity string
		endpoint         string
		want             entropy.Class
	}{
		{"Echo Dot", "voice", "voice", entropy.ClassEncrypted},         // TLS
		{"Google Home Mini", "voice", "voice", entropy.ClassEncrypted}, // QUIC
		{"TP-Link Plug", "on", "ctl", entropy.ClassUnencrypted},        // tcp-plain
		{"Microseven Cam", "move", "media", entropy.ClassMedia},        // media-http
		{"Lefun Cam", "watch", "stream", entropy.ClassUnknown},         // tcp-mixed
		{"Amcrest Cam", "watch", "stream", entropy.ClassEncrypted},     // tcp-enc
	}
	for _, c := range cases {
		p, ok := ByName(c.device)
		if !ok {
			t.Fatalf("device %q missing", c.device)
		}
		inst := NewInstance(p, LabUS)
		act, ok := p.Activity(c.activity)
		if !ok {
			t.Fatalf("%s: activity %q missing", c.device, c.activity)
		}
		g := NewGen(inst, testEnv(t, LabUS, false, 11))
		pkts, _ := g.Interaction(act, act.Methods[0], synthStart)
		flows := netx.AssembleFlows(pkts)
		ep, _ := p.Endpoint(c.endpoint)
		var got *entropy.FlowVerdict
		for _, f := range flows {
			if f.Responder.Port == ep.Port && f.TotalPayload() > 0 {
				v := new(entropy.Classifier).Classify(f, entropy.PaperThresholds)
				got = &v
				break
			}
		}
		if got == nil {
			t.Errorf("%s/%s: no flow to endpoint %q", c.device, c.activity, c.endpoint)
			continue
		}
		if got.Class != c.want {
			t.Errorf("%s/%s/%s: classified %v (method %s), want %v",
				c.device, c.activity, c.endpoint, got.Class, got.Method, c.want)
		}
	}
}

func TestPIILeakAppearsInPlaintext(t *testing.T) {
	p, _ := ByName("Magichome Strip")
	inst := NewInstance(p, LabUS)
	g := NewGen(inst, testEnv(t, LabUS, false, 3))
	act, _ := p.Activity("on")
	pkts, _ := g.Interaction(act, MethodLAN, synthStart)
	scanner := pii.NewScanner(inst.PII)
	found := false
	for _, pk := range pkts {
		if len(scanner.Scan(pk.Payload)) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("Magichome MAC leak not present in plaintext traffic")
	}
}

func TestInsteonLeakUKOnly(t *testing.T) {
	p, _ := ByName("Insteon Hub")
	for _, lab := range []string{LabUS, LabUK} {
		inst := NewInstance(p, lab)
		g := NewGen(inst, testEnv(t, lab, false, 5))
		pkts, _ := g.Power(synthStart)
		scanner := pii.NewScanner(inst.PII)
		found := false
		for _, pk := range pkts {
			for _, m := range scanner.Scan(pk.Payload) {
				if m.Item.Kind == pii.KindMAC {
					found = true
				}
			}
		}
		if lab == LabUK && !found {
			t.Error("Insteon UK power-on should leak MAC")
		}
		if lab == LabUS && found {
			t.Error("Insteon US power-on should not leak MAC")
		}
	}
}

func TestIdleProducesHeartbeatsAndEvents(t *testing.T) {
	p, _ := ByName("ZModo Doorbell")
	inst := NewInstance(p, LabUS)
	g := NewGen(inst, testEnv(t, LabUS, false, 9))
	pkts, events := g.Idle(synthStart, time.Hour)
	if len(pkts) < 50 {
		t.Fatalf("idle traffic too small: %d packets", len(pkts))
	}
	moves := 0
	for _, e := range events {
		if e.Activity == "move" {
			moves++
		}
	}
	// Rate is 66/h; allow wide slack for the Poisson draw.
	if moves < 30 || moves > 120 {
		t.Errorf("Zmodo idle moves = %d, want ≈66", moves)
	}
	// Packets must be time-ordered.
	for i := 1; i < len(pkts); i++ {
		if pkts[i].Meta.Timestamp.Before(pkts[i-1].Meta.Timestamp) {
			t.Fatal("idle packets not sorted")
		}
	}
}

func TestVPNOnlyEndpointGating(t *testing.T) {
	p, _ := ByName("Fire TV")
	inst := NewInstance(p, LabUS)

	direct := NewGen(inst, testEnv(t, LabUS, false, 13))
	pktsDirect, _ := direct.Power(synthStart)
	vpn := NewGen(inst, testEnv(t, LabUS, true, 13))
	pktsVPN, _ := vpn.Power(synthStart)

	hasBranch := func(pkts []*netx.Packet) bool {
		for _, pk := range pkts {
			if pk.UDP != nil && pk.UDP.DstPort == 53 {
				if strings.Contains(string(pk.Payload), "branch") {
					return true
				}
			}
		}
		return false
	}
	if hasBranch(pktsDirect) {
		t.Error("branch.io contacted without VPN")
	}
	if !hasBranch(pktsVPN) {
		t.Error("branch.io not contacted under VPN")
	}
}

func TestEnvColumn(t *testing.T) {
	cases := []struct {
		lab  string
		vpn  bool
		want string
	}{
		{LabUS, false, "US"}, {LabUK, false, "GB"},
		{LabUS, true, "US->GB"}, {LabUK, true, "GB->US"},
	}
	for _, c := range cases {
		e := &Env{Lab: c.lab, VPN: c.vpn}
		if got := e.Column(); got != c.want {
			t.Errorf("Column(%s,%v) = %q", c.lab, c.vpn, got)
		}
	}
}

func TestWansviewP2PPeersUKOnly(t *testing.T) {
	p, _ := ByName("Wansview Cam")
	ep, ok := p.Endpoint("p2p")
	if !ok {
		t.Fatal("p2p endpoint missing")
	}
	instUK := NewInstance(p, LabUK)
	gUK := NewGen(instUK, testEnv(t, LabUK, false, 17))
	if !gUK.endpointActive(ep) {
		t.Error("p2p should be active in UK")
	}
	instUS := NewInstance(p, LabUS)
	gUS := NewGen(instUS, testEnv(t, LabUS, false, 17))
	if gUS.endpointActive(ep) {
		t.Error("p2p should be inactive in US")
	}
}
