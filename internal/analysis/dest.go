package analysis

import (
	"net/netip"
	"sort"

	"github.com/neu-sns/intl-iot-go/internal/dnsmsg"
	"github.com/neu-sns/intl-iot-go/internal/geo"
	"github.com/neu-sns/intl-iot-go/internal/httpmsg"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/orgdb"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
	"github.com/neu-sns/intl-iot-go/internal/tlsmsg"
)

// Destination is one observed traffic destination after labelling (§4.1).
type Destination struct {
	// FQDN is the full destination name (or the address when no name is
	// recoverable); "unique destinations" in Tables 2–3 are keyed on it.
	FQDN string
	// SLD is the second-level domain, or the address when unlabelled.
	SLD string
	// Org is the owning organisation ("" when unknown).
	Org string
	// Party is the classification relative to the observing device.
	Party orgdb.PartyType
	// Country is the Passport-style inferred country.
	Country string
}

// DestCollector performs the destination analysis.
type DestCollector struct {
	Registry *orgdb.Registry
	// Locators maps egress country to a geolocator (the paper ran
	// Passport from each lab's vantage point).
	Locators map[string]*geo.Locator

	// OnDestination, when set, observes every labelled non-LAN flow as it
	// is recorded: the fleet runner taps it on its standalone per-home
	// collectors to feed sketch aggregates without buffering flows. The
	// fold units a Pipeline spawns never call it.
	OnDestination func(exp *testbed.Experiment, d Destination, port uint16, wireBytes int64)

	// foldMode marks a fold unit (newFoldUnit). A fold unit sees one
	// contiguous run of the campaign and none of the state before it, so
	// a flow whose address misses the unit-local DNS replay cannot be
	// labelled yet — an earlier run's answer may exist. Such flows are
	// deferred into pending with everything labelling needs except the
	// name, and resolved by mergeFold against the DNS state accumulated
	// in campaign order — exactly the map a serial visit would have seen.
	foldMode bool
	pending  []destPendingFlow

	// scratch recycles flow-assembly state across Visit calls.
	scratch netx.FlowScratch

	// ipDomains caches DNS-derived ip→name mappings per device (DNS
	// replay is per capture file in the original pipeline; devices
	// re-resolve rarely so a per-device cache is equivalent).
	ipDomains map[string]map[netip.Addr]string
	// geoCache caches per (egress, ip) country lookups.
	geoCache map[string]string

	// sets: key dimensions → destination SLD set.
	byExpParty  map[expPartyKey]map[string]bool
	byCatParty  map[catPartyKey]map[string]bool
	orgDevices  map[orgColKey]map[string]bool // org → devices contacting it (non-first)
	volume      map[volKey]int64              // (lab, category, country) → bytes
	devNonFirst map[string]map[string]bool    // deviceID → non-first SLDs
	devAllDest  map[string]map[string]bool    // deviceID → all SLDs
	outOfRegion map[string]map[string]bool    // deviceID → SLDs outside lab region
	partyTotals map[string]map[orgdb.PartyType]map[string]bool
}

type expPartyKey struct {
	Exp    ExpType
	Column string
	Common bool // restricted to common devices
	Party  orgdb.PartyType
}

type catPartyKey struct {
	Cat    string
	Column string
	Common bool
	Party  orgdb.PartyType
}

type orgColKey struct {
	Org    string
	Column string
	Common bool
}

type volKey struct {
	Lab      string
	Category string
	Country  string
}

// destExpMeta is the slice of an experiment's identity that destination
// recording needs; fold units keep one per experiment with deferred
// flows so resolution after the merge reproduces record() exactly.
type destExpMeta struct {
	devID        string
	column       string
	lab          string
	vpn          bool
	common       bool
	category     string
	manufacturer string
	related      []string
	types        []ExpType
}

func destMetaOf(exp *testbed.Experiment) destExpMeta {
	return destExpMeta{
		devID:        exp.Device.ID(),
		column:       exp.Column,
		lab:          exp.Lab,
		vpn:          exp.VPN,
		common:       exp.Device.Profile.Common(),
		category:     string(exp.Device.Profile.Category),
		manufacturer: exp.Device.Profile.Manufacturer,
		related:      exp.Device.Profile.Related,
		types:        ExpTypes(exp),
	}
}

// destPendingFlow is a fold-deferred flow: labelled at merge time, when
// the campaign-ordered DNS state is known. The SNI/Host fallback name
// and the geolocation are extracted at fold time (both are independent
// of DNS state), so merge-time resolution touches no packet data.
type destPendingFlow struct {
	meta     *destExpMeta
	addr     netip.Addr
	fallback string
	country  string
	bytes    int
}

// egressOf is the country a lab's traffic exits from: the lab itself, or
// the far side of the inter-lab tunnel on VPN legs.
func egressOf(lab string, vpn bool) string {
	if !vpn {
		return lab
	}
	if lab == "US" {
		return "GB"
	}
	return "US"
}

// NewDestCollector wires a collector to the registry and locators.
func NewDestCollector(reg *orgdb.Registry, locators map[string]*geo.Locator) *DestCollector {
	return &DestCollector{
		Registry:    reg,
		Locators:    locators,
		ipDomains:   make(map[string]map[netip.Addr]string),
		geoCache:    make(map[string]string),
		byExpParty:  make(map[expPartyKey]map[string]bool),
		byCatParty:  make(map[catPartyKey]map[string]bool),
		orgDevices:  make(map[orgColKey]map[string]bool),
		volume:      make(map[volKey]int64),
		devNonFirst: make(map[string]map[string]bool),
		devAllDest:  make(map[string]map[string]bool),
		outOfRegion: make(map[string]map[string]bool),
		partyTotals: make(map[string]map[orgdb.PartyType]map[string]bool),
	}
}

// Visit consumes one experiment.
func (c *DestCollector) Visit(exp *testbed.Experiment) {
	devID := exp.Device.ID()
	dnsMap := c.ipDomains[devID]
	if dnsMap == nil {
		dnsMap = make(map[netip.Addr]string)
		c.ipDomains[devID] = dnsMap
	}
	// Pass 1: replay DNS answers.
	for _, p := range exp.Packets {
		if p.UDP == nil || p.UDP.SrcPort != 53 || len(p.Payload) == 0 {
			continue
		}
		msg, err := dnsmsg.Parse(p.Payload)
		if err != nil || !msg.Response {
			continue
		}
		qname := ""
		if len(msg.Questions) > 0 {
			qname = msg.Questions[0].Name
		}
		for _, ans := range msg.Answers {
			if ans.Type == dnsmsg.TypeA || ans.Type == dnsmsg.TypeAAAA {
				name := qname
				if name == "" {
					name = ans.Name
				}
				dnsMap[ans.Addr] = name
			}
		}
	}

	// Pass 2: flows → destinations.
	flows := c.scratch.Assemble(exp.Packets)
	egress := egressOf(exp.Lab, exp.VPN)
	meta := destMetaOf(exp)
	var pendingMeta *destExpMeta
	for _, f := range flows {
		addr := f.Responder.Addr
		if isLANAddr(addr) {
			continue // LAN traffic is out of scope (§4.1 footnote)
		}
		if f.Responder.Port == 53 || f.Responder.Port == 123 {
			// Infrastructure chatter handled via its own domain when
			// resolved; skip resolver-only flows to the gateway.
		}
		if c.foldMode && dnsMap[addr] == "" {
			// An earlier run in delivery order may have resolved this
			// address; defer labelling to mergeFold. The run-local hit
			// path needs no deferral: a unit-prefix answer is exactly
			// what a serial visit would use (latest answer wins, and the
			// unit's own answers are the latest at this point).
			if pendingMeta == nil {
				m := meta
				pendingMeta = &m
			}
			c.pending = append(c.pending, destPendingFlow{
				meta:     pendingMeta,
				addr:     addr,
				fallback: fallbackName(f),
				country:  c.country(addr, egress),
				bytes:    f.TotalWireBytes(),
			})
			continue
		}
		dest := c.label(devID, meta.manufacturer, meta.related, f, dnsMap, egress)
		c.record(&meta, dest, f.TotalWireBytes())
		if c.OnDestination != nil {
			c.OnDestination(exp, dest, f.Responder.Port, int64(f.TotalWireBytes()))
		}
	}
}

// fallbackName extracts the §4.1 name fallbacks (SNI, then HTTP Host)
// from a flow's client payload.
func fallbackName(f *netx.Flow) string {
	up := f.PayloadUp(4096)
	if sni, ok := tlsmsg.ExtractSNI(up); ok {
		return sni
	}
	if host, ok := httpmsg.ExtractHost(up); ok {
		return host
	}
	return ""
}

// label determines (SLD, org, party, country) for one flow (§4.1's
// procedure: DNS first, then SNI, then Host, then the IP's registered
// owner).
func (c *DestCollector) label(devID, manufacturer string, related []string, f *netx.Flow, dnsMap map[netip.Addr]string, egress string) Destination {
	addr := f.Responder.Addr
	name := dnsMap[addr]
	if name == "" {
		name = fallbackName(f)
	}
	return c.labelName(name, addr, manufacturer, related, egress, c.country(addr, egress))
}

// labelName is the flow-independent tail of labelling: given the chosen
// name (possibly empty) and the precomputed country, resolve the owning
// organisation and party. mergeFold uses it to finish deferred flows.
func (c *DestCollector) labelName(name string, addr netip.Addr, manufacturer string, related []string, egress, country string) Destination {
	var dest Destination
	var org *orgdb.Org
	if name != "" {
		dest.FQDN = name
		dest.SLD = dnsmsg.SLD(name)
		org, _ = c.Registry.BySLD(dest.SLD)
	}
	if org == nil {
		// Fall back to the registered owner of the address block.
		if loc, ok := c.Locators[egress]; ok {
			if entry, found := loc.DB.Lookup(addr); found && entry.Org != "" {
				org, _ = c.Registry.ByName(entry.Org)
			}
		}
		if dest.SLD == "" {
			dest.SLD = addr.String()
			dest.FQDN = addr.String()
		}
	}
	if org != nil {
		dest.Org = org.Name
	}
	dest.Party = orgdb.Classify(org, manufacturer, related)
	dest.Country = country
	return dest
}

// isLANAddr reports whether an address never leaves the home network:
// private, loopback, multicast (SSDP/mDNS), link-local, unspecified
// (DHCP discovery) or limited broadcast.
func isLANAddr(addr netip.Addr) bool {
	return addr.IsPrivate() || addr.IsLoopback() || addr.IsMulticast() ||
		addr.IsLinkLocalUnicast() || addr.IsUnspecified() ||
		addr == netip.AddrFrom4([4]byte{255, 255, 255, 255})
}

func (c *DestCollector) country(addr netip.Addr, egress string) string {
	key := egress + "|" + addr.String()
	if v, ok := c.geoCache[key]; ok {
		return v
	}
	country := ""
	if loc, ok := c.Locators[egress]; ok {
		if res, err := loc.Locate(addr); err == nil {
			country = res.Country
		}
	}
	c.geoCache[key] = country
	return country
}

func (c *DestCollector) record(m *destExpMeta, d Destination, bytes int) {
	devID := m.devID
	common := m.common
	col := m.column

	addSet := func(m map[string]bool, k string) map[string]bool {
		if m == nil {
			m = make(map[string]bool)
		}
		m[k] = true
		return m
	}

	c.devAllDest[devID] = addSet(c.devAllDest[devID], d.FQDN)
	if d.Party != orgdb.PartyFirst {
		c.devNonFirst[devID] = addSet(c.devNonFirst[devID], d.FQDN)
		for _, types := range m.types {
			k := expPartyKey{types, col, false, d.Party}
			c.byExpParty[k] = addSet(c.byExpParty[k], d.FQDN)
			if common {
				kc := expPartyKey{types, col, true, d.Party}
				c.byExpParty[kc] = addSet(c.byExpParty[kc], d.FQDN)
			}
		}
		ck := catPartyKey{m.category, col, false, d.Party}
		c.byCatParty[ck] = addSet(c.byCatParty[ck], d.FQDN)
		if common {
			ckc := catPartyKey{m.category, col, true, d.Party}
			c.byCatParty[ckc] = addSet(c.byCatParty[ckc], d.FQDN)
		}
		if d.Org != "" {
			ok := orgColKey{d.Org, col, false}
			c.orgDevices[ok] = addSet(c.orgDevices[ok], devID)
			if common {
				okc := orgColKey{d.Org, col, true}
				c.orgDevices[okc] = addSet(c.orgDevices[okc], devID)
			}
		}
		if pt := c.partyTotals[col]; pt == nil {
			c.partyTotals[col] = map[orgdb.PartyType]map[string]bool{}
		}
		c.partyTotals[col][d.Party] = addSet(c.partyTotals[col][d.Party], d.FQDN)
	}
	// Figure 2 volumes use direct-egress traffic only.
	if !m.vpn && d.Country != "" {
		c.volume[volKey{m.lab, m.category, d.Country}] += int64(bytes)
	}
	if !m.vpn && d.Country != "" && d.Country != m.lab {
		c.outOfRegion[devID] = addSet(c.outOfRegion[devID], d.FQDN)
	}
}

// newFoldUnit returns an empty fold-mode collector sharing c's
// immutable inputs (registry, locators). Fold units run before the
// state of earlier runs is merged, so instead of inheriting DNS caches
// they defer unresolved flows (see foldMode) and mergeFold resolves them
// in delivery order.
func (c *DestCollector) newFoldUnit() *DestCollector {
	s := NewDestCollector(c.Registry, c.Locators)
	s.foldMode = true
	return s
}

// mergeFold folds a unit into c, in delivery order: resolve the unit's
// deferred flows against the DNS state of all earlier units, then
// overlay the unit's own answers address by address (the unit map
// covers only its run, so replacing the whole map would lose earlier
// answers). The remaining accumulators are memoized caches, set unions
// and integer sums.
func (c *DestCollector) mergeFold(o *DestCollector) {
	for i := range o.pending {
		pf := &o.pending[i]
		name := c.ipDomains[pf.meta.devID][pf.addr]
		if name == "" {
			name = pf.fallback
		}
		dest := c.labelName(name, pf.addr, pf.meta.manufacturer, pf.meta.related,
			egressOf(pf.meta.lab, pf.meta.vpn), pf.country)
		c.record(pf.meta, dest, pf.bytes)
	}
	o.pending = nil
	for dev, m := range o.ipDomains {
		dst := c.ipDomains[dev]
		if dst == nil {
			c.ipDomains[dev] = m
			continue
		}
		for a, n := range m {
			dst[a] = n
		}
	}
	o.ipDomains = nil
	for k, v := range o.geoCache {
		// Memoized pure function: duplicate keys carry identical values.
		c.geoCache[k] = v
	}
	mergeStringSet(c.byExpParty, o.byExpParty)
	mergeStringSet(c.byCatParty, o.byCatParty)
	mergeStringSet(c.orgDevices, o.orgDevices)
	mergeStringSet(c.devNonFirst, o.devNonFirst)
	mergeStringSet(c.devAllDest, o.devAllDest)
	mergeStringSet(c.outOfRegion, o.outOfRegion)
	for k, v := range o.volume {
		c.volume[k] += v
	}
	for col, parties := range o.partyTotals {
		if c.partyTotals[col] == nil {
			c.partyTotals[col] = parties
			continue
		}
		mergeStringSet(c.partyTotals[col], parties)
	}
}

// mergeStringSet unions src's set values into dst.
func mergeStringSet[K comparable](dst, src map[K]map[string]bool) {
	for k, set := range src {
		d := dst[k]
		if d == nil {
			dst[k] = set
			continue
		}
		for s := range set {
			d[s] = true
		}
	}
}

// --- result accessors ---

// CountByExpParty returns Table 2's cell: unique non-first-party
// destinations for (experiment type, party) in a column, optionally
// restricted to common devices.
func (c *DestCollector) CountByExpParty(t ExpType, party orgdb.PartyType, column string, commonOnly bool) int {
	return len(c.byExpParty[expPartyKey{t, column, commonOnly, party}])
}

// TotalByParty returns Table 2's Total row.
func (c *DestCollector) TotalByParty(party orgdb.PartyType, column string, commonOnly bool) int {
	seen := map[string]bool{}
	for _, t := range append(ExpTypesForTable2, ExpOther) {
		for k := range c.byExpParty[expPartyKey{t, column, commonOnly, party}] {
			seen[k] = true
		}
	}
	return len(seen)
}

// CountByCategoryParty returns Table 3's cell.
func (c *DestCollector) CountByCategoryParty(cat string, party orgdb.PartyType, column string, commonOnly bool) int {
	return len(c.byCatParty[catPartyKey{cat, column, commonOnly, party}])
}

// OrgRow is one Table 4 row: devices contacting an organisation.
type OrgRow struct {
	Org    string
	Counts map[string]int // column (+"∩" suffix for common) → device count
}

// TopOrganizations returns Table 4: organisations ranked by number of US
// devices contacting them as a non-first party.
func (c *DestCollector) TopOrganizations(n int) []OrgRow {
	orgs := map[string]bool{}
	for k := range c.orgDevices {
		orgs[k.Org] = true
	}
	var rows []OrgRow
	for org := range orgs {
		row := OrgRow{Org: org, Counts: map[string]int{}}
		for _, col := range Columns {
			row.Counts[col] = len(c.orgDevices[orgColKey{org, col, false}])
			row.Counts[col+"∩"] = len(c.orgDevices[orgColKey{org, col, true}])
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Counts["US"] != rows[j].Counts["US"] {
			return rows[i].Counts["US"] > rows[j].Counts["US"]
		}
		return rows[i].Org < rows[j].Org
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// VolumeBand is one Figure 2 band: lab → category → destination country.
type VolumeBand struct {
	Lab      string
	Category string
	Country  string
	Bytes    int64
}

// TrafficBands returns Figure 2's flow data restricted to the top-n
// destination countries by total volume.
func (c *DestCollector) TrafficBands(topN int) []VolumeBand {
	totals := map[string]int64{}
	for k, v := range c.volume {
		totals[k.Country] += v
	}
	type cv struct {
		country string
		bytes   int64
	}
	var order []cv
	for country, b := range totals {
		order = append(order, cv{country, b})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].bytes != order[j].bytes {
			return order[i].bytes > order[j].bytes
		}
		return order[i].country < order[j].country
	})
	keep := map[string]bool{}
	for i, o := range order {
		if topN > 0 && i >= topN {
			break
		}
		keep[o.country] = true
	}
	var bands []VolumeBand
	for k, v := range c.volume {
		if !keep[k.Country] {
			continue
		}
		bands = append(bands, VolumeBand{Lab: k.Lab, Category: k.Category, Country: k.Country, Bytes: v})
	}
	sort.Slice(bands, func(i, j int) bool {
		if bands[i].Lab != bands[j].Lab {
			return bands[i].Lab < bands[j].Lab
		}
		if bands[i].Category != bands[j].Category {
			return bands[i].Category < bands[j].Category
		}
		return bands[i].Bytes > bands[j].Bytes
	})
	return bands
}

// DevicesWithNonFirstParty counts devices with at least one non-first-
// party destination (the §1 "72/81" headline).
func (c *DestCollector) DevicesWithNonFirstParty() (withNFP, total int) {
	for dev, s := range c.devAllDest {
		_ = dev
		total++
		_ = s
	}
	for _, s := range c.devNonFirst {
		if len(s) > 0 {
			withNFP++
		}
	}
	return withNFP, total
}

// OutOfRegionShare returns, for a lab, the fraction of its devices that
// contact at least one destination outside the lab's region (the §1
// "56% of US devices / 83.8% of UK devices" headline).
func (c *DestCollector) OutOfRegionShare(lab string) float64 {
	total, out := 0, 0
	prefix := "us/"
	if lab == "GB" {
		prefix = "gb/"
	}
	for dev := range c.devAllDest {
		if len(dev) < 3 || dev[:3] != prefix {
			continue
		}
		total++
		if len(c.outOfRegion[dev]) > 0 {
			out++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(out) / float64(total)
}

// NonFirstPartyShare returns the fraction of a column's unique
// destinations that are support or third parties (the §9 "57.45%/50.27%"
// numbers need all destinations; we approximate with labelled ones).
func (c *DestCollector) NonFirstPartyShare(column string) float64 {
	nonFirst := 0
	for _, party := range []orgdb.PartyType{orgdb.PartySupport, orgdb.PartyThird} {
		nonFirst += len(c.partyTotals[column][party])
	}
	all := nonFirst
	// First-party destinations are tracked per device; approximate the
	// denominator with the union of all device destinations in the lab.
	seen := map[string]bool{}
	prefix := "us/"
	if column == "GB" {
		prefix = "gb/"
	}
	for dev, slds := range c.devAllDest {
		if len(dev) >= 3 && dev[:3] == prefix {
			for s := range slds {
				seen[s] = true
			}
		}
	}
	if len(seen) > 0 {
		all = len(seen)
	}
	if all == 0 {
		return 0
	}
	return float64(nonFirst) / float64(all)
}
