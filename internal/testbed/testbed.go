package testbed

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/faults"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/pcapio"
)

// StudyEpoch is the simulated wall clock's zero: the experiments of the
// paper ran during April 2019.
var StudyEpoch = time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)

// Lab is one testbed site.
type Lab struct {
	// Name is the lab's country code: "US" or "GB".
	Name string
	// Internet is the simulated server side (shared between labs).
	Internet *cloud.Internet
	// Subnet is the private IoT network.
	Subnet netip.Prefix
	// GatewayIP doubles as the DNS resolver address.
	GatewayIP  netip.Addr
	GatewayMAC netx.MAC
	// PeerName is the other lab's country code (the VPN egress).
	PeerName string

	slots []*DeviceSlot
	seed  int64

	// faultEng injects network impairments into synthesis and the WAN
	// view; nil means a perfect network (the historical behaviour).
	faultEng *faults.Engine

	// Synthesis volume counters (nil until SetObs; nil-safe).
	pktsSynth  *obs.Counter
	bytesSynth *obs.Counter
}

// DeviceSlot is one device attached to a lab network.
type DeviceSlot struct {
	Inst *devices.Instance
	IP   netip.Addr
}

// NewLab builds a lab and attaches every catalog device deployed there.
func NewLab(name string, internet *cloud.Internet, seed int64) (*Lab, error) {
	var subnet netip.Prefix
	var peer string
	switch name {
	case devices.LabUS:
		subnet = netip.MustParsePrefix("192.168.10.0/24")
		peer = devices.LabUK
	case devices.LabUK:
		subnet = netip.MustParsePrefix("192.168.20.0/24")
		peer = devices.LabUS
	default:
		return nil, fmt.Errorf("testbed: unknown lab %q", name)
	}
	base := subnet.Addr().As4()
	l := &Lab{
		Name:       name,
		Internet:   internet,
		Subnet:     subnet,
		GatewayIP:  netip.AddrFrom4([4]byte{base[0], base[1], base[2], 1}),
		GatewayMAC: netx.MAC{0x02, 0x00, 0x00, 0x00, base[2], 0x01},
		PeerName:   peer,
		seed:       seed,
	}
	host := byte(10)
	for _, inst := range devices.InstancesInLab(name) {
		l.slots = append(l.slots, &DeviceSlot{
			Inst: inst,
			IP:   netip.AddrFrom4([4]byte{base[0], base[1], base[2], host}),
		})
		host++
		if host == 0 { // wrapped: subnet too small
			return nil, fmt.Errorf("testbed: subnet %v exhausted", subnet)
		}
	}
	return l, nil
}

// NewHomeLab builds a single simulated home: a lab-shaped site with an
// arbitrary subnet and an explicit device roster instead of the full
// two-lab catalog deployment. The home's Name is its region ("US" or
// "GB"), which keeps egress geolocation, catalog traffic rates and
// report columns working unchanged; PeerName is set to the other region
// but homes never raise the VPN leg, so it only names the hypothetical
// tunnel egress. The fleet synthesizer calls this once per home with a
// per-home subnet and seed.
func NewHomeLab(region string, internet *cloud.Internet, seed int64, insts []*devices.Instance, subnet netip.Prefix) (*Lab, error) {
	var peer string
	switch region {
	case devices.LabUS:
		peer = devices.LabUK
	case devices.LabUK:
		peer = devices.LabUS
	default:
		return nil, fmt.Errorf("testbed: unknown home region %q", region)
	}
	if !subnet.Addr().Is4() || subnet.Bits() > 24 {
		return nil, fmt.Errorf("testbed: home subnet %v must be an IPv4 prefix of /24 or wider", subnet)
	}
	base := subnet.Addr().As4()
	l := &Lab{
		Name:       region,
		Internet:   internet,
		Subnet:     subnet,
		GatewayIP:  netip.AddrFrom4([4]byte{base[0], base[1], base[2], 1}),
		GatewayMAC: netx.MAC{0x02, 0x00, 0x00, base[1], base[2], 0x01},
		PeerName:   peer,
		seed:       seed,
	}
	host := byte(10)
	for _, inst := range insts {
		l.slots = append(l.slots, &DeviceSlot{
			Inst: inst,
			IP:   netip.AddrFrom4([4]byte{base[0], base[1], base[2], host}),
		})
		host++
		if host == 0 {
			return nil, fmt.Errorf("testbed: subnet %v exhausted", subnet)
		}
	}
	return l, nil
}

// SetObs attaches a metrics registry; every experiment the lab runs then
// counts its synthesized packets and wire bytes. Call before running
// experiments (workers read the counters concurrently afterwards).
func (l *Lab) SetObs(reg *obs.Registry) {
	l.pktsSynth = reg.Counter("packets_synthesized_total")
	l.bytesSynth = reg.Counter("bytes_synthesized_total")
}

// countSynth records an experiment's synthesis volume; no-op when
// observability is disabled (nil counters).
func (l *Lab) countSynth(exp *Experiment) {
	if l.pktsSynth == nil {
		return
	}
	l.pktsSynth.Add(int64(len(exp.Packets)))
	l.bytesSynth.Add(int64(exp.Bytes()))
}

// SetFaults attaches a network-impairment engine to the lab; device
// generators and the WAN view then consult it on every exchange. Call
// before running experiments. A nil engine restores the perfect network.
func (l *Lab) SetFaults(e *faults.Engine) { l.faultEng = e }

// Faults returns the lab's impairment engine (nil when disabled).
func (l *Lab) Faults() *faults.Engine { return l.faultEng }

// Slots returns the attached devices.
func (l *Lab) Slots() []*DeviceSlot { return l.slots }

// Slot returns the slot for a device model name.
func (l *Lab) Slot(deviceName string) (*DeviceSlot, bool) {
	for _, s := range l.slots {
		if s.Inst.Profile.Name == deviceName {
			return s, true
		}
	}
	return nil, false
}

// Egress returns the country traffic exits from, given the VPN state.
func (l *Lab) Egress(vpn bool) string {
	if vpn {
		return l.PeerName
	}
	return l.Name
}

// Column returns the table-column key ("US", "GB", "US->GB", "GB->US").
func (l *Lab) Column(vpn bool) string {
	if !vpn {
		return l.Name
	}
	return l.Name + "->" + l.PeerName
}

// env builds the generator environment for a slot.
func (l *Lab) env(slot *DeviceSlot, vpn bool, rng *rand.Rand) *devices.Env {
	egress := l.Egress(vpn)
	return &devices.Env{
		Lookup: func(fqdn string, t time.Time, attempt int) (cloud.Resolution, error) {
			return l.Internet.Resolve(fqdn, egress, cloud.ResolveOpts{VPN: vpn, Time: t, Attempt: attempt})
		},
		Peer:       l.Internet.ResidentialPeer,
		Faults:     l.faultEng,
		DeviceIP:   slot.IP,
		GatewayIP:  l.GatewayIP,
		DNSAddr:    l.GatewayIP,
		DeviceMAC:  slot.Inst.MAC,
		GatewayMAC: l.GatewayMAC,
		Lab:        l.Name,
		VPN:        vpn,
		Rng:        rng,
	}
}

// ExperimentKind mirrors §3.3's experiment taxonomy.
type ExperimentKind string

const (
	KindPower        ExperimentKind = "power"
	KindInteraction  ExperimentKind = "interaction"
	KindIdle         ExperimentKind = "idle"
	KindUncontrolled ExperimentKind = "uncontrolled"
)

// Experiment is one labelled capture window for one device.
type Experiment struct {
	Lab      string
	VPN      bool
	Column   string
	Device   *devices.Instance
	DeviceIP netip.Addr
	Kind     ExperimentKind
	// Activity is the label ("power", "local_move", "android_lan_on",
	// "idle", ...).
	Activity string
	Start    time.Time
	End      time.Time
	Packets  []*netx.Packet
	// IdleEvents is the generator's ground truth for idle/uncontrolled
	// windows: which activity-like emissions actually happened.
	IdleEvents []devices.IdleEvent
	// Release, when non-nil, returns the memory backing Packets to its
	// owner. No in-tree source sets it today; the pipeline and its
	// collectors still honour the contract. The final consumer calls
	// Done exactly once after its last touch of Packets or their
	// payloads; never calling it is safe — the backing memory is simply
	// left to the garbage collector.
	Release func()
}

// Done invokes and clears Release; see that field. Safe on experiments
// without one.
func (e *Experiment) Done() {
	if r := e.Release; r != nil {
		e.Release = nil
		r()
	}
}

// Bytes is the total captured wire volume.
func (e *Experiment) Bytes() int {
	total := 0
	for _, p := range e.Packets {
		total += p.Meta.Length
	}
	return total
}

// Label converts the experiment to a capture label. VPN legs are marked
// with a "vpn=1" tag so re-ingested captures land in the right table
// column ("US->GB" vs "US").
func (e *Experiment) Label() pcapio.Label {
	l := pcapio.Label{Start: e.Start, End: e.End, Experiment: string(e.Kind), Activity: e.Activity}
	if e.VPN {
		l.Tags = map[string]string{"vpn": "1"}
	}
	return l
}

// expSeed derives the deterministic RNG seed of one experiment.
func (l *Lab) expSeed(slot *DeviceSlot, kind ExperimentKind, label string, vpn bool, rep int) int64 {
	h := int64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= int64(s[i])
			h *= 1099511628211
		}
	}
	mix(l.Name)
	mix(slot.Inst.ID())
	mix(string(kind))
	mix(label)
	if vpn {
		mix("vpn")
	}
	h ^= int64(rep) * 16777619
	h ^= l.seed
	return h
}

// RunPower performs one power experiment (§3.3).
func (l *Lab) RunPower(slot *DeviceSlot, vpn bool, start time.Time, rep int) *Experiment {
	rng := rand.New(rand.NewSource(l.expSeed(slot, KindPower, "power", vpn, rep)))
	g := devices.NewGen(slot.Inst, l.env(slot, vpn, rng))
	pkts, end := g.Power(start)
	exp := &Experiment{
		Lab: l.Name, VPN: vpn, Column: l.Column(vpn),
		Device: slot.Inst, DeviceIP: slot.IP,
		Kind: KindPower, Activity: "power",
		Start: start, End: end.Add(2 * time.Second), Packets: pkts,
	}
	l.countSynth(exp)
	return exp
}

// RunInteraction performs one labelled interaction experiment.
func (l *Lab) RunInteraction(slot *DeviceSlot, act *devices.Activity, method devices.Method, vpn bool, start time.Time, rep int) *Experiment {
	label := string(method) + "_" + act.Name
	rng := rand.New(rand.NewSource(l.expSeed(slot, KindInteraction, label, vpn, rep)))
	g := devices.NewGen(slot.Inst, l.env(slot, vpn, rng))
	pkts, end := g.Interaction(act, method, start)
	exp := &Experiment{
		Lab: l.Name, VPN: vpn, Column: l.Column(vpn),
		Device: slot.Inst, DeviceIP: slot.IP,
		Kind: KindInteraction, Activity: label,
		Start: start, End: end.Add(5 * time.Second), Packets: pkts,
	}
	l.countSynth(exp)
	return exp
}

// RunIdle captures an idle window.
func (l *Lab) RunIdle(slot *DeviceSlot, vpn bool, start time.Time, dur time.Duration, rep int) *Experiment {
	rng := rand.New(rand.NewSource(l.expSeed(slot, KindIdle, "idle", vpn, rep)))
	g := devices.NewGen(slot.Inst, l.env(slot, vpn, rng))
	pkts, events := g.Idle(start, dur)
	exp := &Experiment{
		Lab: l.Name, VPN: vpn, Column: l.Column(vpn),
		Device: slot.Inst, DeviceIP: slot.IP,
		Kind: KindIdle, Activity: "idle",
		Start: start, End: start.Add(dur), Packets: pkts, IdleEvents: events,
	}
	l.countSynth(exp)
	return exp
}

// WritePcap serializes an experiment's packets as a classic pcap stream,
// exactly as the gateway's per-MAC tcpdump would have recorded them.
func WritePcap(w io.Writer, exp *Experiment) error {
	pw, err := pcapio.NewWriter(w, pcapio.WriterOptions{})
	if err != nil {
		return err
	}
	pkts := obs.Default().Counter("pcap_write_packets_total")
	bytec := obs.Default().Counter("pcap_write_bytes_total")
	for _, p := range exp.Packets {
		data := p.Serialize()
		if err := pw.WritePacket(p.Meta.Timestamp, data); err != nil {
			return err
		}
		pkts.Inc()
		bytec.Add(int64(len(data)))
	}
	return pw.Flush()
}

// SaveExperiment writes an experiment the way the Mon(IoT)r gateway laid
// out captures on disk: "<dir>/<device-id>/<n>.pcap" plus a
// "<n>.labels" sidecar marking the experiment window. It returns the
// pcap path.
func SaveExperiment(dir string, n int, exp *Experiment) (string, error) {
	devDir := filepath.Join(dir, filepath.FromSlash(exp.Device.ID()))
	if err := os.MkdirAll(devDir, 0o755); err != nil {
		return "", err
	}
	pcapPath := filepath.Join(devDir, fmt.Sprintf("%06d.pcap", n))
	f, err := os.Create(pcapPath)
	if err != nil {
		return "", err
	}
	if err := WritePcap(f, exp); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	lf, err := os.Create(filepath.Join(devDir, fmt.Sprintf("%06d.labels", n)))
	if err != nil {
		return "", err
	}
	defer lf.Close()
	if err := pcapio.WriteLabels(lf, []pcapio.Label{exp.Label()}); err != nil {
		return "", err
	}
	return pcapPath, nil
}

// LoadExperiment reads a capture written by SaveExperiment back into
// packets plus its labels.
func LoadExperiment(pcapPath string) ([]*netx.Packet, []pcapio.Label, error) {
	f, err := os.Open(pcapPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	pkts, err := ReadPcap(f)
	if err != nil {
		return nil, nil, err
	}
	labelPath := strings.TrimSuffix(pcapPath, ".pcap") + ".labels"
	lf, err := os.Open(labelPath)
	if err != nil {
		if os.IsNotExist(err) {
			return pkts, nil, nil
		}
		return nil, nil, err
	}
	defer lf.Close()
	labels, err := pcapio.ReadLabels(lf)
	if err != nil {
		return nil, nil, err
	}
	return pkts, labels, nil
}

// ReadPcap decodes a capture stream — classic pcap or pcapng, Ethernet,
// 802.1Q-tagged or Linux cooked (SLL) framing — back into packets (the
// analysis-side entry point for on-disk captures). Capture metadata is
// normalized to Ethernet-equivalent lengths so size features match the
// same traffic captured natively.
func ReadPcap(r io.Reader) ([]*netx.Packet, error) {
	pr, err := pcapio.NewReader(r)
	if err != nil {
		return nil, err
	}
	recs, err := pr.ReadAll()
	if err != nil {
		return nil, err
	}
	pktc := obs.Default().Counter("pcap_read_packets_total")
	bytec := obs.Default().Counter("pcap_read_bytes_total")
	pkts := make([]*netx.Packet, 0, len(recs))
	for _, rec := range recs {
		pktc.Inc()
		bytec.Add(int64(len(rec.Data)))
		link := rec.Link
		if link == 0 {
			link = pr.LinkType()
		}
		p, err := netx.DecodeLink(rec.Time, rec.Data, link)
		if err != nil {
			continue // tolerate malformed frames like tcpdump does
		}
		// DecodeLink normalizes CaptureLength to the Ethernet-equivalent
		// frame size; charge the same framing overhead to the wire length.
		overhead := len(rec.Data) - p.Meta.CaptureLength
		if p.Meta.Length = rec.OrigLen - overhead; p.Meta.Length < 0 {
			p.Meta.Length = 0
		}
		pkts = append(pkts, p)
	}
	return pkts, nil
}
