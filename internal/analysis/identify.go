package analysis

import (
	"fmt"
	"sort"
	"strings"

	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/dnsmsg"
	"github.com/neu-sns/intl-iot-go/internal/features"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// Device identification: §4.4 observes that cloud and CDN providers "not
// only can learn the types of devices in a household, but also how/when
// they are used, simply by analyzing the network traffic". This collector
// quantifies that claim the way the related fingerprinting literature
// (§8) does: train one global classifier mapping traffic shape → device
// identity, and evaluate it with the same cross-validation protocol as
// the activity models.
type IdentifyCollector struct {
	// FeatureSet must match the activity models for comparability.
	FeatureSet features.Set

	// rows buffers one entry per training experiment in delivery order;
	// the per-column datasets interleave rows from every device in that
	// order.
	rows []identRow

	// built lazily from rows; also evaluates a category-level classifier.
	datasets map[string]*ml.Dataset // column → global dataset
	category map[string]*ml.Dataset
	built    bool
}

type identRow struct {
	column   string
	device   string
	category string
	vec      []float64
}

// NewIdentifyCollector builds a collector.
func NewIdentifyCollector() *IdentifyCollector {
	return &IdentifyCollector{
		FeatureSet: features.SetPaper,
		datasets:   make(map[string]*ml.Dataset),
		category:   make(map[string]*ml.Dataset),
	}
}

// Visit adds one experiment as a (traffic → device) training row.
func (c *IdentifyCollector) Visit(exp *testbed.Experiment) {
	if exp.Kind != testbed.KindPower && exp.Kind != testbed.KindInteraction {
		return
	}
	if len(exp.Packets) < 2 {
		return
	}
	c.rows = append(c.rows, identRow{
		column:   exp.Column,
		device:   exp.Device.Profile.Name,
		category: string(exp.Device.Profile.Category),
		vec:      features.Vector(exp.Packets, c.FeatureSet),
	})
	c.built = false
}

// newFoldUnit returns an empty collector with c's feature set.
func (c *IdentifyCollector) newFoldUnit() *IdentifyCollector {
	s := NewIdentifyCollector()
	s.FeatureSet = c.FeatureSet
	return s
}

// mergeFold appends a unit's rows. Units merge in delivery order, so the
// rows stay in the order a serial visit appends them.
func (c *IdentifyCollector) mergeFold(o *IdentifyCollector) {
	c.rows = append(c.rows, o.rows...)
	c.built = false
}

// build materializes the per-column datasets from the buffered rows in
// delivery order.
func (c *IdentifyCollector) build() {
	if c.built {
		return
	}
	c.datasets = make(map[string]*ml.Dataset)
	c.category = make(map[string]*ml.Dataset)
	for _, row := range c.rows {
		ds := c.datasets[row.column]
		if ds == nil {
			ds = &ml.Dataset{FeatureNames: features.Names(c.FeatureSet)}
			c.datasets[row.column] = ds
		}
		ds.Features = append(ds.Features, row.vec)
		ds.Labels = append(ds.Labels, row.device)

		cs := c.category[row.column]
		if cs == nil {
			cs = &ml.Dataset{FeatureNames: features.Names(c.FeatureSet)}
			c.category[row.column] = cs
		}
		cs.Features = append(cs.Features, row.vec)
		cs.Labels = append(cs.Labels, row.category)
	}
	c.built = true
}

// IdentifyResult is the outcome for one column.
type IdentifyResult struct {
	Column string
	// DeviceF1 is the weighted F1 of the device-level classifier.
	DeviceF1 float64
	// DeviceAccuracy is plain accuracy over devices.
	DeviceAccuracy float64
	// CategoryF1/CategoryAccuracy evaluate the coarser category task.
	CategoryF1       float64
	CategoryAccuracy float64
	Devices          int
	Samples          int
}

// Evaluate cross-validates the identification classifiers per column.
func (c *IdentifyCollector) Evaluate(cv ml.CVConfig) []IdentifyResult {
	c.build()
	cols := make([]string, 0, len(c.datasets))
	for col := range c.datasets {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	var out []IdentifyResult
	for _, col := range cols {
		ds := c.datasets[col]
		if ds.NumExamples() < 10 {
			continue
		}
		devRes := ml.CrossValidate(ds, cv)
		catRes := ml.CrossValidate(c.category[col], cv)
		out = append(out, IdentifyResult{
			Column:           col,
			DeviceF1:         devRes.DeviceF1,
			DeviceAccuracy:   devRes.Accuracy,
			CategoryF1:       catRes.DeviceF1,
			CategoryAccuracy: catRes.Accuracy,
			Devices:          len(ds.Classes()),
			Samples:          ds.NumExamples(),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Capture-file device identification.
//
// When ingesting a real Mon(IoT)r capture directory (internal/ingest) the
// per-file device identity is nominally given by the testbed's per-MAC
// capture rules (§3.2: "all network traffic ... is captured ... per
// device"). In practice MACs drift — devices get replaced, captures get
// copied between deployments — so ingestion falls back to the same
// fingerprints a network observer would use: names the device asserts
// about itself (DHCP, mDNS, SSDP), its vendor OUI, and the DNS names it
// resolves.

// Identification methods, strongest first.
const (
	IdentifyByMAC      = "mac"      // exact catalog MAC observed as a frame source
	IdentifyByHostname = "hostname" // device-asserted name (DHCP opt 12, mDNS, SSDP)
	IdentifyByOUI      = "oui"      // vendor MAC prefix unique within the catalog
	IdentifyByDNS      = "dns"      // overlap between queried and profile domains
)

// CaptureEvidence is everything a single capture file reveals about which
// device produced it.
type CaptureEvidence struct {
	// SrcPackets counts frames per unicast source MAC.
	SrcPackets map[netx.MAC]int
	// Hostnames are names the device asserted about itself, in assertion
	// order: DHCP option-12 hostnames, mDNS record owners (".local"
	// stripped), SSDP USN uuids and SERVER product names.
	Hostnames []string
	// DNSQueries counts outbound DNS questions per queried name.
	DNSQueries map[string]int
}

// GatherCaptureEvidence scans decoded packets for identification signals.
// It never fails: packets that do not parse as DHCP/DNS/SSDP simply
// contribute nothing.
func GatherCaptureEvidence(pkts []*netx.Packet) *CaptureEvidence {
	ev := &CaptureEvidence{
		SrcPackets: make(map[netx.MAC]int),
		DNSQueries: make(map[string]int),
	}
	seenName := make(map[string]bool)
	addName := func(name string) {
		name = strings.TrimSpace(name)
		if name == "" || seenName[name] {
			return
		}
		seenName[name] = true
		ev.Hostnames = append(ev.Hostnames, name)
	}
	for _, p := range pkts {
		src := p.Eth.Src
		if !src.IsZero() && !src.IsBroadcast() && !src.IsMulticast() {
			ev.SrcPackets[src]++
		}
		if p.UDP == nil {
			continue
		}
		switch {
		case p.UDP.SrcPort == 68 && p.UDP.DstPort == 67:
			if name, ok := dhcpHostname(p.Payload); ok {
				addName(name)
			}
		case p.UDP.SrcPort == 5353 || p.UDP.DstPort == 5353:
			msg, err := dnsmsg.Parse(p.Payload)
			if err != nil {
				continue
			}
			for _, q := range msg.Questions {
				addName(strings.TrimSuffix(q.Name, ".local"))
			}
			for _, a := range msg.Answers {
				addName(strings.TrimSuffix(a.Name, ".local"))
			}
		case p.UDP.DstPort == 1900:
			for _, name := range ssdpNames(p.Payload) {
				addName(name)
			}
		case p.UDP.DstPort == 53:
			msg, err := dnsmsg.Parse(p.Payload)
			if err != nil || msg.Response {
				continue
			}
			for _, q := range msg.Questions {
				ev.DNSQueries[q.Name]++
			}
		}
	}
	return ev
}

// dhcpHostname extracts option 12 from a BOOTREQUEST payload.
func dhcpHostname(payload []byte) (string, bool) {
	if len(payload) < 244 || payload[0] != 1 {
		return "", false
	}
	if payload[236] != 0x63 || payload[237] != 0x82 || payload[238] != 0x53 || payload[239] != 0x63 {
		return "", false
	}
	opts := payload[240:]
	for i := 0; i+1 < len(opts); {
		code := opts[i]
		if code == 255 {
			break
		}
		if code == 0 {
			i++
			continue
		}
		n := int(opts[i+1])
		if i+2+n > len(opts) {
			break
		}
		if code == 12 && n > 0 {
			return string(opts[i+2 : i+2+n]), true
		}
		i += 2 + n
	}
	return "", false
}

// ssdpNames extracts device names from an SSDP NOTIFY/response: the uuid
// in the USN header and the SERVER product string.
func ssdpNames(payload []byte) []string {
	var out []string
	for _, line := range strings.Split(string(payload), "\r\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		v = strings.TrimSpace(v)
		switch strings.ToUpper(strings.TrimSpace(k)) {
		case "USN":
			if id, ok := strings.CutPrefix(v, "uuid:"); ok {
				if bare, _, hasPath := strings.Cut(id, ":"); hasPath {
					id = bare
				}
				out = append(out, id)
			}
		case "SERVER":
			out = append(out, v)
		}
	}
	return out
}

// MatchMAC returns the catalog instance owning the exact MAC, if any.
func MatchMAC(mac netx.MAC, catalog []*devices.Instance) (*devices.Instance, bool) {
	for _, inst := range catalog {
		if inst.MAC == mac {
			return inst, true
		}
	}
	return nil, false
}

// IdentifyCapture resolves capture evidence to a catalog instance. The
// evidence tiers are tried strongest-first — exact MAC, asserted
// hostname, unique vendor OUI, DNS-pattern overlap — and a weaker tier is
// only consulted when every stronger one is silent, so a hostname match
// beats a contradictory DNS fingerprint. Ambiguity within a tier (two
// catalog MACs sourcing frames in one per-device file, or a hostname
// matching two instances) is an error: per-MAC capture files have exactly
// one owner.
func IdentifyCapture(ev *CaptureEvidence, catalog []*devices.Instance) (*devices.Instance, string, error) {
	// Tier 1: exact MAC.
	var byMAC []*devices.Instance
	for mac := range ev.SrcPackets {
		if inst, ok := MatchMAC(mac, catalog); ok {
			byMAC = append(byMAC, inst)
		}
	}
	if inst, err := uniqueMatch(byMAC, "MAC"); err != nil {
		return nil, "", err
	} else if inst != nil {
		return inst, IdentifyByMAC, nil
	}

	// Tier 2: device-asserted hostname.
	var byName []*devices.Instance
	for _, name := range ev.Hostnames {
		slug := devices.Slug(name)
		if slug == "" {
			continue
		}
		for _, inst := range catalog {
			if devices.Slug(inst.Profile.Name) == slug {
				byName = append(byName, inst)
			}
		}
	}
	if inst, err := uniqueMatch(byName, "hostname"); err != nil {
		return nil, "", err
	} else if inst != nil {
		return inst, IdentifyByHostname, nil
	}

	// Tier 3: vendor OUI, only when it is unambiguous within the catalog.
	ouis := make(map[uint32]bool)
	for mac := range ev.SrcPackets {
		ouis[mac.OUI()] = true
	}
	var byOUI []*devices.Instance
	for _, inst := range catalog {
		if ouis[inst.MAC.OUI()] {
			byOUI = append(byOUI, inst)
		}
	}
	if inst, err := uniqueMatch(byOUI, ""); err == nil && inst != nil {
		return inst, IdentifyByOUI, nil
	} // a shared OUI is ambiguous, not conflicting: fall through to DNS.

	// Tier 4: DNS fingerprint. Score each candidate by how many distinct
	// queried second-level domains its profile endpoints cover; accept
	// only a clear winner with at least two overlapping SLDs, the same
	// bar the §8 fingerprinting literature uses to avoid single-domain
	// coincidences (every vendor queries an NTP pool).
	queried := make(map[string]bool)
	for name := range ev.DNSQueries {
		queried[dnsmsg.SLD(name)] = true
	}
	best, runnerUp := 0, 0
	var byDNS *devices.Instance
	for _, inst := range catalog {
		profSLD := make(map[string]bool)
		for _, ep := range inst.Profile.Endpoints {
			if ep.Domain != "" {
				profSLD[dnsmsg.SLD(ep.Domain)] = true
			}
		}
		score := 0
		for sld := range profSLD {
			if queried[sld] {
				score++
			}
		}
		switch {
		case score > best:
			best, runnerUp, byDNS = score, best, inst
		case score > runnerUp:
			runnerUp = score
		}
	}
	if byDNS != nil && best >= 2 && best > runnerUp {
		return byDNS, IdentifyByDNS, nil
	}

	return nil, "", fmt.Errorf("analysis: capture matches no catalog device")
}

// uniqueMatch dedupes candidate instances; zero → (nil, nil), one →
// (inst, nil), several distinct → an error naming the evidence tier
// (or (nil, nil) when tier is empty, for tiers where ambiguity is
// expected rather than fatal).
func uniqueMatch(cands []*devices.Instance, tier string) (*devices.Instance, error) {
	var found *devices.Instance
	for _, inst := range cands {
		if found == nil || found.ID() == inst.ID() {
			found = inst
			continue
		}
		if tier == "" {
			return nil, nil
		}
		return nil, fmt.Errorf("analysis: conflicting %s evidence: capture matches both %s and %s",
			tier, found.ID(), inst.ID())
	}
	return found, nil
}
