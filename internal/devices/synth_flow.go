package devices

import (
	"fmt"
	"strconv"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/faults"
	"github.com/neu-sns/intl-iot-go/internal/httpmsg"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/tlsmsg"
)

// flow synthesizes one application flow to an endpoint with the given
// signature, returning the packets and the end time. leak, when non-empty,
// is a plaintext PII payload injected into the first data message of
// cleartext protocols.
func (g *Gen) flow(ep *Endpoint, s Signature, start time.Time, leak string) ([]*netx.Packet, time.Time) {
	if f, ok := ep.ColumnPacketFactor[g.Env.Column()]; ok && f > 0 {
		s.Packets = maxInt(1, int(float64(s.Packets)*f))
	}
	addr, dnsPkts, now, err := g.resolveEndpoint(ep, start)
	if err != nil {
		// Unresolvable endpoints produce only the failed lookup; the
		// capture keeps going, as tcpdump would.
		return dnsPkts, now
	}
	if leak == "" {
		leak = g.alwaysLeak(ep.Key)
	}

	var pkts []*netx.Packet
	pkts = append(pkts, dnsPkts...)

	switch ep.Wire {
	case WireNTP:
		pkts2, end := g.ntpFlow(addr, now)
		return append(pkts, pkts2...), end
	case WireQUIC:
		pkts2, end := g.quicFlow(ep, addr, s, now)
		return append(pkts, pkts2...), end
	case WireUDPEnc, WireUDPPlain:
		pkts2, end := g.udpFlow(ep, addr, s, now, leak)
		return append(pkts, pkts2...), end
	default:
		pkts2, end := g.tcpFlow(ep, addr, s, now, leak)
		return append(pkts, pkts2...), end
	}
}

func (g *Gen) ntpFlow(addr netipAddr, now time.Time) ([]*netx.Packet, time.Time) {
	port := g.nextPort()
	req := make([]byte, 48)
	req[0] = 0x1b // LI=0 VN=3 Mode=3 (client)
	q := g.udpPacket(now, addr, port, 123, req, true)
	now = now.Add(g.jitterDur(20*time.Millisecond, 8*time.Millisecond))
	resp := make([]byte, 48)
	resp[0] = 0x1c // Mode=4 (server)
	g.Env.Rng.Read(resp[16:])
	r := g.udpPacket(now, addr, port, 123, resp, false)
	return []*netx.Packet{q, r}, now.Add(time.Millisecond)
}

// flowKey identifies one flow for the fault engine; it folds in enough
// context (instance, column, endpoint, port, start time) that every flow
// in a campaign gets its own deterministic fault stream.
func (g *Gen) flowKey(epKey string, port uint16, start time.Time) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d", g.Inst.ID(), g.Env.Column(), epKey, port, start.UnixNano())
}

func (g *Gen) udpFlow(ep *Endpoint, addr netipAddr, s Signature, now time.Time, leak string) ([]*netx.Packet, time.Time) {
	port := g.nextPort()
	n := g.drawCount(s)
	loss := g.Env.Faults.Loss(g.flowKey(ep.Key, port, now))
	var pkts []*netx.Packet
	for i := 0; i < n; i++ {
		size := g.drawSize(s)
		var payload []byte
		if ep.Wire == WireUDPPlain {
			payload = g.textualPayload(size, leak, i == 0)
		} else {
			payload = g.randomPayload(size)
		}
		pkts = append(pkts, g.udpPacket(now, addr, port, ep.Port, payload, true))
		now = now.Add(g.drawIAT(s))
		if g.Env.Rng.Float64() < minF(s.DownFactor, 1.0) {
			respSize := int(float64(size) * clampF(s.DownFactor, 0.3, 3))
			var resp []byte
			if ep.Wire == WireUDPPlain {
				resp = g.textualPayload(respSize, "", false)
			} else {
				resp = g.randomPayload(respSize)
			}
			// A dropped UDP response simply never arrives: no
			// retransmission, the device capture just misses it.
			if !loss.Drop() {
				pkts = append(pkts, g.udpPacket(now, addr, port, ep.Port, resp, false))
			}
			now = now.Add(g.drawIAT(s) / 2)
		}
	}
	return pkts, now
}

// quicFlow emits a QUIC connection: a long-header initial packet, then
// short-header encrypted datagrams in both directions.
func (g *Gen) quicFlow(ep *Endpoint, addr netipAddr, s Signature, now time.Time) ([]*netx.Packet, time.Time) {
	port := g.nextPort()
	var pkts []*netx.Packet
	initial := g.randomPayload(1200) // QUIC initials are padded to 1200
	initial[0] = 0xc3                // long header, initial type
	pkts = append(pkts, g.udpPacket(now, addr, port, ep.Port, initial, true))
	now = now.Add(g.drawIAT(s))
	resp := g.randomPayload(1200)
	resp[0] = 0xc1
	pkts = append(pkts, g.udpPacket(now, addr, port, ep.Port, resp, false))
	now = now.Add(g.drawIAT(s) / 2)
	n := g.drawCount(s)
	loss := g.Env.Faults.Loss(g.flowKey(ep.Key, port, now))
	for i := 0; i < n; i++ {
		d := g.randomPayload(g.drawSize(s))
		d[0] = 0x43 // short header
		pkts = append(pkts, g.udpPacket(now, addr, port, ep.Port, d, true))
		now = now.Add(g.drawIAT(s))
		if g.Env.Rng.Float64() < minF(s.DownFactor, 1) {
			r := g.randomPayload(g.drawSize(s))
			r[0] = 0x43
			// QUIC recovers lost data internally; the capture just
			// misses the dropped datagram.
			if !loss.Drop() {
				pkts = append(pkts, g.udpPacket(now, addr, port, ep.Port, r, false))
			}
			now = now.Add(g.drawIAT(s) / 2)
		}
	}
	return pkts, now
}

// tcpFlow emits handshake, protocol-specific data phase, and teardown.
// Under a fault engine it also emits the failure signatures real captures
// contain: refused/blackholed connection attempts with SYN retries,
// RTO-spaced duplicate segments where packets were lost, and mid-flow
// server resets answered by a fresh TCP (and, for TLS wires, TLS)
// handshake. With a nil engine the output is bit-identical to the
// fault-free generator.
func (g *Gen) tcpFlow(ep *Endpoint, addr netipAddr, s Signature, now time.Time, leak string) ([]*netx.Packet, time.Time) {
	port := g.nextPort()
	var pkts []*netx.Packet
	seqUp, seqDown := uint32(g.Env.Rng.Int31()), uint32(g.Env.Rng.Int31())

	fe := g.Env.Faults
	key := g.flowKey(ep.Key, port, now)
	loss := fe.Loss(key)
	rtt := 18*time.Millisecond + fe.ExtraRTT(key)
	rto := 200*time.Millisecond + 2*rtt

	add := func(flags uint8, payload []byte, up bool) {
		build := func() *netx.Packet {
			if up {
				return g.tcpPacket(now, addr, port, ep.Port, flags, seqUp, seqDown, payload, true)
			}
			return g.tcpPacket(now, addr, port, ep.Port, flags, seqDown, seqUp, payload, false)
		}
		if len(payload) > 0 && loss.Drop() {
			if up {
				// The device's segment dies upstream: the capture holds
				// the original and, one RTO later, a duplicate carrying
				// the same sequence number.
				pkts = append(pkts, build())
				now = now.Add(rto)
			} else {
				// Downstream loss: only the server's retransmission
				// ever reaches the capture point.
				now = now.Add(rto)
			}
			fe.CountRetransmission()
		}
		pkts = append(pkts, build())
		if up {
			seqUp += uint32(len(payload))
			if flags&(netx.TCPSyn|netx.TCPFin) != 0 {
				seqUp++
			}
		} else {
			seqDown += uint32(len(payload))
			if flags&(netx.TCPSyn|netx.TCPFin) != 0 {
				seqDown++
			}
		}
	}

	step := func(d time.Duration) { now = now.Add(d) }

	// Connection attempts: a down or refusing server answers the SYN
	// with a RST (or nothing); the device backs off, re-tries from a
	// fresh port, and after three attempts gives up, leaving only the
	// half-open flow in the capture.
	if fe.Enabled() {
		dom := ep.Domain
		if dom == "" {
			dom = ep.Key
		}
		for attempt := 0; ; attempt++ {
			out := fe.Conn(dom, g.Env.VPN, now, attempt)
			if out == faults.ConnOK {
				break
			}
			pkts = append(pkts, g.tcpPacket(now, addr, port, ep.Port, netx.TCPSyn, seqUp, 0, nil, true))
			if out == faults.ConnRefused {
				step(rtt)
				pkts = append(pkts, g.tcpPacket(now, addr, port, ep.Port, netx.TCPRst|netx.TCPAck, 0, seqUp+1, nil, false))
				step(500 * time.Millisecond << attempt)
			} else {
				// Blackholed: kernel-style SYN retransmissions, then
				// this attempt times out.
				for _, d := range []time.Duration{time.Second, 2 * time.Second} {
					step(d)
					pkts = append(pkts, g.tcpPacket(now, addr, port, ep.Port, netx.TCPSyn, seqUp, 0, nil, true))
					fe.CountRetransmission()
				}
				step(2 * time.Second)
			}
			if attempt == 2 {
				return pkts, now
			}
			port = g.nextPort()
			seqUp = uint32(g.Env.Rng.Int31())
		}
	}

	// Handshake.
	add(netx.TCPSyn, nil, true)
	step(rtt)
	add(netx.TCPSyn|netx.TCPAck, nil, false)
	step(2 * time.Millisecond)
	add(netx.TCPAck, nil, true)
	step(2 * time.Millisecond)

	n := g.drawCount(s)

	// Mid-flow server reset: after resetAt uplink segments the server
	// aborts and the device reconnects — new port, new handshake, and an
	// abbreviated TLS resumption on TLS wires.
	resetAt, hasReset := fe.ResetAfter(key, n)
	ups := 0
	maybeReset := func() {
		if !hasReset || ups != resetAt {
			return
		}
		hasReset = false
		add(netx.TCPRst|netx.TCPAck, nil, false)
		step(200 * time.Millisecond)
		port = g.nextPort()
		seqUp, seqDown = uint32(g.Env.Rng.Int31()), uint32(g.Env.Rng.Int31())
		add(netx.TCPSyn, nil, true)
		step(rtt)
		add(netx.TCPSyn|netx.TCPAck, nil, false)
		step(2 * time.Millisecond)
		add(netx.TCPAck, nil, true)
		step(2 * time.Millisecond)
		if ep.Wire == WireTLS || ep.Wire == WireHTTPS {
			ch := &tlsmsg.ClientHello{ServerName: ep.Domain}
			g.Env.Rng.Read(ch.Random[:])
			add(netx.TCPPsh|netx.TCPAck, ch.Marshal(), true)
			step(rtt)
			sh := &tlsmsg.ServerHello{CipherSuite: 0xc02f}
			g.Env.Rng.Read(sh.Random[:])
			add(netx.TCPPsh|netx.TCPAck, sh.Marshal(), false)
			step(2 * time.Millisecond)
		}
	}

	emitUp := func(payload []byte) {
		maybeReset()
		ups++
		add(netx.TCPPsh|netx.TCPAck, payload, true)
		step(g.drawIAT(s))
	}
	emitDown := func(payload []byte) {
		add(netx.TCPPsh|netx.TCPAck, payload, false)
		step(g.drawIAT(s) / 2)
	}
	switch ep.Wire {
	case WireTLS, WireHTTPS:
		g.tlsPhase(ep, s, n, leak, emitUp, emitDown)
	case WireHTTP:
		g.httpPhase(ep, s, n, leak, false, emitUp, emitDown)
	case WireMediaHTTP:
		g.httpPhase(ep, s, n, leak, true, emitUp, emitDown)
	case WireMediaTCP:
		g.mediaTCPPhase(s, n, emitUp, emitDown)
	case WireTCPPlain:
		for i := 0; i < n; i++ {
			emitUp(g.textualPayload(g.drawSize(s), leak, i == 0))
			if g.Env.Rng.Float64() < minF(s.DownFactor, 1) {
				emitDown(g.textualPayload(g.drawSize(s), "", false))
			}
		}
	case WireTCPEnc:
		for i := 0; i < n; i++ {
			emitUp(g.randomPayload(g.drawSize(s)))
			if g.Env.Rng.Float64() < minF(s.DownFactor, 1) {
				emitDown(g.randomPayload(g.drawSize(s)))
			}
		}
	case WireTCPMixed:
		for i := 0; i < n; i++ {
			emitUp(g.mixedPayload(g.drawSize(s), leak, i == 0))
			if g.Env.Rng.Float64() < minF(s.DownFactor, 1) {
				emitDown(g.mixedPayload(g.drawSize(s), "", false))
			}
		}
	default:
		for i := 0; i < n; i++ {
			emitUp(g.randomPayload(g.drawSize(s)))
		}
	}

	// Teardown.
	add(netx.TCPFin|netx.TCPAck, nil, true)
	step(rtt)
	add(netx.TCPFin|netx.TCPAck, nil, false)
	step(2 * time.Millisecond)
	add(netx.TCPAck, nil, true)
	return pkts, now
}

// tlsPhase emits a TLS handshake followed by application-data records.
func (g *Gen) tlsPhase(ep *Endpoint, s Signature, n int, leak string, emitUp, emitDown func([]byte)) {
	ch := &tlsmsg.ClientHello{ServerName: ep.Domain}
	g.Env.Rng.Read(ch.Random[:])
	emitUp(ch.Marshal())

	sh := &tlsmsg.ServerHello{CipherSuite: 0xc02f}
	g.Env.Rng.Read(sh.Random[:])
	down := sh.Marshal()
	cert := make([]byte, 1100+g.Env.Rng.Intn(500))
	g.Env.Rng.Read(cert)
	down = tlsmsg.AppendRecord(down, tlsmsg.Record{Type: tlsmsg.TypeHandshake, Version: tlsmsg.VersionTLS12, Body: cert})
	emitDown(down)

	// Client key exchange + CCS + Finished (opaque).
	kex := make([]byte, 130)
	g.Env.Rng.Read(kex)
	up := tlsmsg.AppendRecord(nil, tlsmsg.Record{Type: tlsmsg.TypeHandshake, Version: tlsmsg.VersionTLS12, Body: kex})
	up = tlsmsg.AppendRecord(up, tlsmsg.Record{Type: tlsmsg.TypeChangeCipherSpec, Version: tlsmsg.VersionTLS12, Body: []byte{1}})
	emitUp(up)

	// Application data. The leak, if any, is *inside* TLS here — i.e.,
	// invisible — so it is deliberately not serialized; only cleartext
	// protocols expose leak bytes.
	_ = leak
	for i := 0; i < n; i++ {
		body := g.randomPayload(g.drawSize(s))
		emitUp(tlsmsg.AppendRecord(nil, tlsmsg.Record{Type: tlsmsg.TypeApplicationData, Version: tlsmsg.VersionTLS12, Body: body}))
		if g.Env.Rng.Float64() < minF(s.DownFactor, 1) {
			resp := g.randomPayload(int(float64(g.drawSize(s)) * clampF(s.DownFactor, 0.3, 3)))
			emitDown(tlsmsg.AppendRecord(nil, tlsmsg.Record{Type: tlsmsg.TypeApplicationData, Version: tlsmsg.VersionTLS12, Body: resp}))
		}
	}
}

// httpPhase emits request/response exchanges; media=true attaches JPEG
// bodies to responses (or uploads, for camera snap endpoints).
func (g *Gen) httpPhase(ep *Endpoint, s Signature, n int, leak string, media bool, emitUp, emitDown func([]byte)) {
	exchanges := maxInt(1, n/4)
	for i := 0; i < exchanges; i++ {
		target := fmt.Sprintf("/v1/%s", ep.Key)
		body := ""
		if i == 0 && leak != "" {
			body = leak
		}
		req := &httpmsg.Request{
			Method: "POST",
			Target: target,
			Headers: map[string]string{
				"Host":       ep.Domain,
				"User-Agent": "iot-device/" + slug(g.Inst.Profile.Name),
			},
			Body: []byte(body),
		}
		if body == "" {
			req.Method = "GET"
		}
		emitUp(req.Marshal())

		if media {
			// JPEG-framed high-entropy body, split across packets.
			img := append([]byte{0xff, 0xd8, 0xff, 0xe0}, g.randomPayload(g.drawSize(s)*3)...)
			resp := &httpmsg.Response{StatusCode: 200,
				Headers: map[string]string{"Content-Type": "image/jpeg"}, Body: img}
			emitDown(resp.Marshal())
			for j := 0; j < maxInt(1, n/exchanges-1); j++ {
				emitDown(g.randomPayload(g.drawSize(s)))
			}
		} else {
			body := g.textualPayload(g.drawSize(s), "", false)
			resp := &httpmsg.Response{StatusCode: 200,
				Headers: map[string]string{"Content-Type": "application/json"},
				Body:    body}
			emitDown(resp.Marshal())
		}
	}
}

// mediaTCPPhase emits an MP4-framed stream (camera upload).
func (g *Gen) mediaTCPPhase(s Signature, n int, emitUp, emitDown func([]byte)) {
	head := append([]byte{0x00, 0x00, 0x00, 0x18, 'f', 't', 'y', 'p'}, g.randomPayload(g.drawSize(s))...)
	emitUp(head)
	for i := 1; i < n; i++ {
		emitUp(g.randomPayload(g.drawSize(s)))
	}
	emitDown([]byte{0x00, 0x00, 0x00, 0x01}) // tiny ack frame
}

// --- payload generators ---

// randomPayload is high-entropy (encrypted-looking) data.
func (g *Gen) randomPayload(size int) []byte {
	if size < 8 {
		size = 8
	}
	b := make([]byte, size)
	g.Env.Rng.Read(b)
	return b
}

// textualPayload is a low-entropy key=value message; the leak string, when
// present and first==true, is embedded verbatim.
func (g *Gen) textualPayload(size int, leak string, first bool) []byte {
	if size < 16 {
		size = 16
	}
	return g.appendTextual(make([]byte, 0, size), size, leak, first)
}

// appendTextual appends a textual message of exactly size bytes to dst,
// which must have room for them: a status header whose three fields are
// drawn first, then "padN=D&" terms, where N is the message length before
// the term, until size bytes are filled; whatever overruns size is cut.
func (g *Gen) appendTextual(dst []byte, size int, leak string, first bool) []byte {
	seq := g.Env.Rng.Intn(10000)
	rssi := 30 + g.Env.Rng.Intn(40)
	uptime := g.Env.Rng.Intn(100000)
	msg := dst[len(dst) : len(dst) : len(dst)+size]
	if first && leak != "" {
		msg = appendUpTo(msg, leak)
		msg = appendUpTo(msg, "&")
	}
	var term [64]byte
	t := append(term[:0], "cmd=status&seq="...)
	t = strconv.AppendInt(t, int64(seq), 10)
	t = append(t, "&state=on&rssi=-"...)
	t = strconv.AppendInt(t, int64(rssi), 10)
	t = append(t, "&uptime="...)
	t = strconv.AppendInt(t, int64(uptime), 10)
	t = append(t, '&')
	msg = appendUpTo(msg, t)
	for len(msg) < size {
		t = append(term[:0], "pad"...)
		t = strconv.AppendInt(t, int64(len(msg)), 10)
		t = append(t, '=')
		t = strconv.AppendInt(t, int64(g.Env.Rng.Intn(10)), 10)
		t = append(t, '&')
		msg = appendUpTo(msg, t)
	}
	return dst[:len(dst)+size]
}

// appendUpTo appends as much of b as fits in dst's capacity.
func appendUpTo[B string | []byte](dst []byte, b B) []byte {
	return append(dst, b[:min(len(b), cap(dst)-len(dst))]...)
}

// mixedPayload is three-quarters textual, one-quarter random: its byte
// entropy lands in the paper's "unknown" band (0.4–0.8), modelling
// partly-encrypted proprietary protocols (§5.2's hubs/appliances
// observation). Both parts fill one buffer; the random quarter is at
// least 8 bytes, randomPayload's minimum.
func (g *Gen) mixedPayload(size int, leak string, first bool) []byte {
	if size < 32 {
		size = 32
	}
	msg := g.appendTextual(make([]byte, 0, size), size*3/4, leak, first)
	g.Env.Rng.Read(msg[len(msg):size])
	return msg[:size]
}

func (g *Gen) drawCount(s Signature) int {
	n := s.Packets
	if s.PktJitter > 0 {
		n += g.Env.Rng.Intn(2*s.PktJitter+1) - s.PktJitter
	}
	return maxInt(1, n)
}

func (g *Gen) drawSize(s Signature) int {
	v := int(g.Env.Rng.NormFloat64()*s.SizeStd + s.SizeMean)
	if v < 20 {
		v = 20
	}
	if v > 1400 {
		v = 1400
	}
	return v
}

func (g *Gen) drawIAT(s Signature) time.Duration {
	d := time.Duration(g.Env.Rng.NormFloat64()*float64(s.IATStd)) + s.IATMean
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// netipAddr is a local alias to keep signatures short.
type netipAddr = netx.Addr
