package netx

import (
	"fmt"
	"sort"
	"time"
)

// Endpoint is one side of a transport conversation.
type Endpoint struct {
	Addr Addr
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// FlowKey identifies a bidirectional transport conversation. The key is
// canonicalized so that A→B and B→A map to the same flow (the lower
// endpoint sorts first), mirroring gopacket's symmetric FastHash property.
type FlowKey struct {
	A, B  Endpoint
	Proto uint8
}

// NewFlowKey builds a canonical key from a (src, dst) pair.
func NewFlowKey(src, dst Endpoint, proto uint8) FlowKey {
	if endpointLess(dst, src) {
		src, dst = dst, src
	}
	return FlowKey{A: src, B: dst, Proto: proto}
}

func endpointLess(x, y Endpoint) bool {
	if c := x.Addr.Compare(y.Addr); c != 0 {
		return c < 0
	}
	return x.Port < y.Port
}

func (k FlowKey) String() string {
	proto := "ip"
	switch k.Proto {
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	}
	return fmt.Sprintf("%s %s <-> %s", proto, k.A, k.B)
}

// Flow accumulates the packets of one bidirectional conversation. The
// initiator is the endpoint that sent the first captured packet, which for
// testbed captures is (nearly) always the IoT device.
type Flow struct {
	Key       FlowKey
	Initiator Endpoint
	Responder Endpoint

	Packets []*Packet

	FirstSeen time.Time
	LastSeen  time.Time

	BytesUp       int // payload bytes initiator → responder
	BytesDown     int // payload bytes responder → initiator
	WireBytesUp   int
	WireBytesDown int
	PacketsUp     int
	PacketsDown   int
}

// Duration is the time between the first and last packet of the flow.
func (f *Flow) Duration() time.Duration { return f.LastSeen.Sub(f.FirstSeen) }

// TotalPayload is the total application payload carried in both directions.
func (f *Flow) TotalPayload() int { return f.BytesUp + f.BytesDown }

// TotalWireBytes is the total on-the-wire volume in both directions.
func (f *Flow) TotalWireBytes() int { return f.WireBytesUp + f.WireBytesDown }

// PayloadUp concatenates initiator→responder payload bytes in arrival
// order, capped at limit bytes (limit<=0 means no cap). Protocol parsers
// (SNI, Host) only need the head of the stream.
func (f *Flow) PayloadUp(limit int) []byte {
	return f.payloadDir(limit, true)
}

// PayloadDown concatenates responder→initiator payload bytes, capped at
// limit bytes.
func (f *Flow) PayloadDown(limit int) []byte {
	return f.payloadDir(limit, false)
}

func (f *Flow) payloadDir(limit int, up bool) []byte {
	var out []byte
	for _, p := range f.Packets {
		if len(p.Payload) == 0 {
			continue
		}
		if f.packetIsUp(p) != up {
			continue
		}
		out = append(out, p.Payload...)
		if limit > 0 && len(out) >= limit {
			return out[:limit]
		}
	}
	return out
}

// AppendHeads appends the flow's initiator→responder and
// responder→initiator payload bytes to up and down in one walk over the
// packets, each direction capped at limit bytes (limit<=0 means no cap).
// The appended bytes equal PayloadUp(limit) and PayloadDown(limit).
func (f *Flow) AppendHeads(up, down []byte, limit int) ([]byte, []byte) {
	upEnd, downEnd := -1, -1
	if limit > 0 {
		upEnd, downEnd = len(up)+limit, len(down)+limit
	}
	for _, p := range f.Packets {
		if len(p.Payload) == 0 {
			continue
		}
		if f.packetIsUp(p) {
			up = appendCapped(up, p.Payload, upEnd)
		} else {
			down = appendCapped(down, p.Payload, downEnd)
		}
		if len(up) == upEnd && len(down) == downEnd {
			break
		}
	}
	return up, down
}

// appendCapped appends b to dst without growing it past end bytes; a
// negative end means no cap.
func appendCapped(dst, b []byte, end int) []byte {
	if end >= 0 && len(b) > end-len(dst) {
		b = b[:end-len(dst)]
	}
	return append(dst, b...)
}

func (f *Flow) packetIsUp(p *Packet) bool {
	src, ok := p.NetworkSrc()
	if !ok {
		return true
	}
	sp, _, _, _ := p.TransportPorts()
	return Endpoint{Addr: src, Port: sp} == f.Initiator
}

// FlowTable assembles packets into bidirectional flows.
type FlowTable struct {
	flows map[FlowKey]*Flow
	order []FlowKey
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	return &FlowTable{flows: make(map[FlowKey]*Flow)}
}

// Add routes one packet into its flow. Packets without a transport layer
// are grouped per (src addr, dst addr) with port 0.
func (t *FlowTable) Add(p *Packet) *Flow {
	src, ok := p.NetworkSrc()
	if !ok {
		return nil // ARP and friends are not flows
	}
	dst, _ := p.NetworkDst()
	sp, dp, proto, hasPorts := p.TransportPorts()
	if !hasPorts {
		if p.IPv4 != nil {
			proto = p.IPv4.Protocol
		} else if p.IPv6 != nil {
			proto = p.IPv6.NextHeader
		}
	}
	se := Endpoint{Addr: src, Port: sp}
	de := Endpoint{Addr: dst, Port: dp}
	key := NewFlowKey(se, de, proto)
	f := t.flows[key]
	if f == nil {
		f = &Flow{Key: key, Initiator: se, Responder: de, FirstSeen: p.Meta.Timestamp}
		t.flows[key] = f
		t.order = append(t.order, key)
	}
	f.Packets = append(f.Packets, p)
	f.LastSeen = p.Meta.Timestamp
	if se == f.Initiator {
		f.BytesUp += len(p.Payload)
		f.WireBytesUp += p.Meta.Length
		f.PacketsUp++
	} else {
		f.BytesDown += len(p.Payload)
		f.WireBytesDown += p.Meta.Length
		f.PacketsDown++
	}
	return f
}

// Flows returns all flows in first-seen order.
func (t *FlowTable) Flows() []*Flow {
	out := make([]*Flow, 0, len(t.order))
	for _, k := range t.order {
		out = append(out, t.flows[k])
	}
	return out
}

// Len is the number of distinct flows.
func (t *FlowTable) Len() int { return len(t.flows) }

// AssembleFlows is a convenience that builds a table from a packet slice.
func AssembleFlows(pkts []*Packet) []*Flow {
	t := NewFlowTable()
	for _, p := range pkts {
		t.Add(p)
	}
	return t.Flows()
}

// FlowScratch assembles flows like AssembleFlows but recycles the table,
// the Flow structs and their packet slices across calls, so a collector
// visiting thousands of experiments allocates flow state only while its
// biggest experiment is still growing the pool. The returned slice and
// every Flow in it are invalidated by the next Assemble; callers must
// copy anything they keep (the analysis collectors retain only strings
// and counters). Not safe for concurrent use — one scratch per goroutine.
type FlowScratch struct {
	flows map[FlowKey]*Flow
	order []*Flow
	pool  []*Flow
	used  int
}

// Assemble routes pkts into bidirectional flows, returned in first-seen
// order. See the type doc for the reuse contract.
func (s *FlowScratch) Assemble(pkts []*Packet) []*Flow {
	if s.flows == nil {
		s.flows = make(map[FlowKey]*Flow)
	} else {
		clear(s.flows)
	}
	s.order = s.order[:0]
	s.used = 0
	for _, p := range pkts {
		s.add(p)
	}
	return s.order
}

// next hands out a recycled (or pool-grown) zeroed Flow keeping its
// packet slice capacity.
func (s *FlowScratch) next() *Flow {
	if s.used == len(s.pool) {
		s.pool = append(s.pool, new(Flow))
	}
	f := s.pool[s.used]
	s.used++
	pkts := f.Packets[:0]
	*f = Flow{Packets: pkts}
	return f
}

// add mirrors FlowTable.Add over the recycled pool.
func (s *FlowScratch) add(p *Packet) {
	src, ok := p.NetworkSrc()
	if !ok {
		return // ARP and friends are not flows
	}
	dst, _ := p.NetworkDst()
	sp, dp, proto, hasPorts := p.TransportPorts()
	if !hasPorts {
		if p.IPv4 != nil {
			proto = p.IPv4.Protocol
		} else if p.IPv6 != nil {
			proto = p.IPv6.NextHeader
		}
	}
	se := Endpoint{Addr: src, Port: sp}
	de := Endpoint{Addr: dst, Port: dp}
	key := NewFlowKey(se, de, proto)
	f := s.flows[key]
	if f == nil {
		f = s.next()
		f.Key, f.Initiator, f.Responder, f.FirstSeen = key, se, de, p.Meta.Timestamp
		s.flows[key] = f
		s.order = append(s.order, f)
	}
	f.Packets = append(f.Packets, p)
	f.LastSeen = p.Meta.Timestamp
	if se == f.Initiator {
		f.BytesUp += len(p.Payload)
		f.WireBytesUp += p.Meta.Length
		f.PacketsUp++
	} else {
		f.BytesDown += len(p.Payload)
		f.WireBytesDown += p.Meta.Length
		f.PacketsDown++
	}
}

// SortPacketsByTime orders packets by capture timestamp (stable).
func SortPacketsByTime(pkts []*Packet) {
	sort.SliceStable(pkts, func(i, j int) bool {
		return pkts[i].Meta.Timestamp.Before(pkts[j].Meta.Timestamp)
	})
}
