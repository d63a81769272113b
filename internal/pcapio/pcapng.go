package pcapio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// pcapng (https://datatracker.ietf.org/doc/draft-ietf-opsawg-pcapng/)
// block types and framing constants. A pcapng file is a sequence of
// 4-byte-aligned blocks — Section Header (SHB), Interface Description
// (IDB), Enhanced/Simple Packet (EPB/SPB) and others — each framed as
// [type u32][total length u32][body...][total length u32]. Endianness is
// per section, announced by the byte-order magic inside the SHB.
const (
	ngBlockSHB = 0x0A0D0D0A // palindromic: reads the same in either byte order
	ngBlockIDB = 0x00000001
	ngBlockSPB = 0x00000003
	ngBlockEPB = 0x00000006

	ngByteOrderMagic = 0x1A2B3C4D

	ngBlockHeaderLen  = 8
	ngBlockTrailerLen = 4
	// ngMinSHBLen is the smallest legal SHB: header + byte-order magic +
	// version + section length + trailer.
	ngMinSHBLen = 28
	ngEPBFixed  = 20 // interface id + timestamp + captured + original length
	ngIDBFixed  = 8  // link type + reserved + snap length
	// ngOptTsresol is the IDB option carrying the timestamp resolution.
	ngOptTsresol = 9
	// maxNGBlockLen bounds any single block, mirroring the classic
	// reader's defense against corrupt headers announcing huge lengths.
	maxNGBlockLen = MaxSnapLen + 65536
)

// LinkTypeLinuxSLL is the Linux "cooked" pseudo link type (DLT 113) that
// tcpdump -i any produces: a 16-byte software header replaces the
// Ethernet header. See internal/netx for the frame codec.
const LinkTypeLinuxSLL = 113

// ngIface is one parsed Interface Description Block.
type ngIface struct {
	link  uint32
	snap  int
	resol uint8 // if_tsresol: power of 10, or power of 2 when bit 7 set
}

// NGInterface describes one capture interface of a pcapng file, both as
// parsed by Reader.Interfaces and as configured for NewNGWriter. The
// canonical writer supports the two resolutions real capture tools emit
// (microsecond default, nanosecond via if_tsresol=9); the reader accepts
// any power-of-10 resolution up to 10^-15 and power-of-2 up to 2^-32.
type NGInterface struct {
	LinkType uint32
	SnapLen  int
	// Nanosecond selects (or reports) an if_tsresol of 9 instead of the
	// microsecond default.
	Nanosecond bool
}

// ngPow10 serves timestamp conversion for power-of-10 resolutions.
var ngPow10 = [...]uint64{1, 10, 100, 1000, 10000, 100000, 1000000,
	10000000, 100000000, 1000000000, 10000000000, 100000000000,
	1000000000000, 10000000000000, 100000000000000, 1000000000000000}

// ngResolOK reports whether an if_tsresol value is one the reader can
// convert exactly with integer arithmetic.
func ngResolOK(resol uint8) bool {
	if resol&0x80 != 0 {
		return resol&0x7f <= 32
	}
	return resol <= 15
}

// ngTime converts an interface-resolution tick count since the epoch to a
// UTC timestamp. resol has passed ngResolOK.
func ngTime(units uint64, resol uint8) time.Time {
	if resol&0x80 != 0 {
		exp := uint(resol & 0x7f)
		sec := units >> exp
		frac := units & (uint64(1)<<exp - 1)
		nanos := frac * 1000000000 >> exp
		return time.Unix(int64(sec), int64(nanos)).UTC()
	}
	perSec := ngPow10[resol]
	sec := units / perSec
	frac := units % perSec
	var nanos uint64
	if resol <= 9 {
		nanos = frac * ngPow10[9-resol]
	} else {
		nanos = frac / ngPow10[resol-9]
	}
	return time.Unix(int64(sec), int64(nanos)).UTC()
}

// ngSectionOrder decodes the SHB byte-order magic.
func ngSectionOrder(b []byte) (binary.ByteOrder, error) {
	switch {
	case binary.LittleEndian.Uint32(b) == ngByteOrderMagic:
		return binary.LittleEndian, nil
	case binary.BigEndian.Uint32(b) == ngByteOrderMagic:
		return binary.BigEndian, nil
	}
	return nil, ErrBadMagic
}

// ngCheckLen validates a block's announced total length.
func ngCheckLen(totalLen, min int) error {
	if totalLen < min || totalLen > maxNGBlockLen || totalLen%4 != 0 {
		return fmt.Errorf("pcapio: implausible pcapng block length %d", totalLen)
	}
	return nil
}

// ngParseSHBBody consumes an SHB's bytes after the byte-order magic
// (version, section length, options, trailer) and resets the per-section
// interface table. r.order has already been set from the magic.
func (r *Reader) ngParseSHBBody(rest []byte, totalLen int) error {
	if got := int(r.order.Uint32(rest[len(rest)-ngBlockTrailerLen:])); got != totalLen {
		return fmt.Errorf("pcapio: pcapng block trailer mismatch (%d != %d)", got, totalLen)
	}
	if major := r.order.Uint16(rest[0:2]); major != 1 {
		return fmt.Errorf("pcapio: unsupported pcapng version %d.%d", major, r.order.Uint16(rest[2:4]))
	}
	r.ifaces = r.ifaces[:0]
	return nil
}

// newNGReaderStream finishes constructing a streaming pcapng reader; the
// palindromic SHB block type has already been consumed into blockType.
func newNGReaderStream(br *bufio.Reader, blockType []byte) (*Reader, error) {
	pre := make([]byte, 12)
	copy(pre, blockType)
	if _, err := io.ReadFull(br, pre[4:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading file header: %w", err)
	}
	ord, err := ngSectionOrder(pre[8:12])
	if err != nil {
		return nil, err
	}
	totalLen := int(ord.Uint32(pre[4:8]))
	if err := ngCheckLen(totalLen, ngMinSHBLen); err != nil {
		return nil, err
	}
	rest := make([]byte, totalLen-12)
	if _, err := io.ReadFull(br, rest); err != nil {
		return nil, fmt.Errorf("pcapio: reading file header: %w", err)
	}
	rd := &Reader{r: br, ngMode: true, order: ord, offset: int64(totalLen)}
	if err := rd.ngParseSHBBody(rest, totalLen); err != nil {
		return nil, err
	}
	return rd, nil
}

// newNGReaderBytes is newNGReaderStream for in-memory captures.
func newNGReaderBytes(data []byte) (*Reader, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("pcapio: reading file header: %w", io.ErrUnexpectedEOF)
	}
	ord, err := ngSectionOrder(data[8:12])
	if err != nil {
		return nil, err
	}
	totalLen := int(ord.Uint32(data[4:8]))
	if err := ngCheckLen(totalLen, ngMinSHBLen); err != nil {
		return nil, err
	}
	if len(data) < totalLen {
		return nil, fmt.Errorf("pcapio: reading file header: %w", io.ErrUnexpectedEOF)
	}
	rd := &Reader{bytesMode: true, ngMode: true, order: ord, offset: int64(totalLen), buf: data[totalLen:]}
	if err := rd.ngParseSHBBody(data[12:totalLen], totalLen); err != nil {
		return nil, err
	}
	return rd, nil
}

// ngScratch returns an n-byte block staging buffer, reused across blocks
// in stream mode (packet payloads are copied out via alloc before the
// next block overwrites it).
func (r *Reader) ngScratch(n int) []byte {
	if cap(r.ngBuf) < n {
		r.ngBuf = make([]byte, n)
	}
	return r.ngBuf[:n]
}

// nextNGStream reads pcapng blocks from the buffered stream until one
// yields a packet record. Non-packet blocks (IDB, statistics, name
// resolution, unknown) update state or are skipped.
func (r *Reader) nextNGStream() (Record, error) {
	for {
		start := r.offset
		var hdr [ngBlockHeaderLen]byte
		if n, err := io.ReadFull(r.r, hdr[:]); err != nil {
			if err == io.EOF {
				return Record{}, io.EOF
			}
			if err == io.ErrUnexpectedEOF {
				return Record{}, &ErrTruncated{Offset: start}
			}
			r.offset += int64(n)
			return Record{}, fmt.Errorf("pcapio: reading pcapng block header: %w", err)
		}
		r.offset += ngBlockHeaderLen
		if binary.LittleEndian.Uint32(hdr[0:4]) == ngBlockSHB {
			// A new section may switch endianness: its byte-order magic
			// governs how this very block's length field is read.
			var magic [4]byte
			if _, err := io.ReadFull(r.r, magic[:]); err != nil {
				return Record{}, &ErrTruncated{Offset: start}
			}
			r.offset += 4
			ord, err := ngSectionOrder(magic[:])
			if err != nil {
				return Record{}, err
			}
			r.order = ord
			totalLen := int(ord.Uint32(hdr[4:8]))
			if err := ngCheckLen(totalLen, ngMinSHBLen); err != nil {
				return Record{}, err
			}
			rest := r.ngScratch(totalLen - 12)
			if n, err := io.ReadFull(r.r, rest); err != nil {
				r.offset += int64(n)
				return Record{}, &ErrTruncated{Offset: start}
			}
			r.offset += int64(totalLen - 12)
			if err := r.ngParseSHBBody(rest, totalLen); err != nil {
				return Record{}, err
			}
			continue
		}
		blockType := r.order.Uint32(hdr[0:4])
		totalLen := int(r.order.Uint32(hdr[4:8]))
		if err := ngCheckLen(totalLen, ngBlockHeaderLen+ngBlockTrailerLen); err != nil {
			return Record{}, err
		}
		body := r.ngScratch(totalLen - ngBlockHeaderLen)
		if n, err := io.ReadFull(r.r, body); err != nil {
			r.offset += int64(n)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Record{}, &ErrTruncated{Offset: start}
			}
			return Record{}, fmt.Errorf("pcapio: reading pcapng block: %w", err)
		}
		r.offset += int64(len(body))
		rec, ok, err := r.ngBlock(blockType, totalLen, body)
		if err != nil {
			return Record{}, err
		}
		if !ok {
			continue
		}
		// The scratch buffer is overwritten by the next block; hand the
		// caller a slab-carved copy, as the classic path does.
		data := r.alloc(len(rec.Data))
		copy(data, rec.Data)
		rec.Data = data
		return rec, nil
	}
}

// nextNGBytes is nextNGStream for in-memory captures: block framing by
// slicing, packet payloads by aliasing the backing store.
func (r *Reader) nextNGBytes() (Record, error) {
	for {
		start := r.offset
		if len(r.buf) == 0 {
			return Record{}, io.EOF
		}
		if len(r.buf) < ngBlockHeaderLen {
			r.offset += int64(len(r.buf))
			r.buf = nil
			return Record{}, &ErrTruncated{Offset: start}
		}
		if binary.LittleEndian.Uint32(r.buf[0:4]) == ngBlockSHB {
			if len(r.buf) < 12 {
				r.offset += int64(len(r.buf))
				r.buf = nil
				return Record{}, &ErrTruncated{Offset: start}
			}
			ord, err := ngSectionOrder(r.buf[8:12])
			if err != nil {
				return Record{}, err
			}
			r.order = ord
			totalLen := int(ord.Uint32(r.buf[4:8]))
			if err := ngCheckLen(totalLen, ngMinSHBLen); err != nil {
				return Record{}, err
			}
			if len(r.buf) < totalLen {
				r.offset += int64(len(r.buf))
				r.buf = nil
				return Record{}, &ErrTruncated{Offset: start}
			}
			rest := r.buf[12:totalLen]
			r.buf = r.buf[totalLen:]
			r.offset += int64(totalLen)
			if err := r.ngParseSHBBody(rest, totalLen); err != nil {
				return Record{}, err
			}
			continue
		}
		blockType := r.order.Uint32(r.buf[0:4])
		totalLen := int(r.order.Uint32(r.buf[4:8]))
		if err := ngCheckLen(totalLen, ngBlockHeaderLen+ngBlockTrailerLen); err != nil {
			return Record{}, err
		}
		if len(r.buf) < totalLen {
			r.offset += int64(len(r.buf))
			r.buf = nil
			return Record{}, &ErrTruncated{Offset: start}
		}
		body := r.buf[ngBlockHeaderLen:totalLen]
		r.buf = r.buf[totalLen:]
		r.offset += int64(totalLen)
		rec, ok, err := r.ngBlock(blockType, totalLen, body)
		if err != nil {
			return Record{}, err
		}
		if ok {
			return rec, nil
		}
	}
}

// ngBlock interprets one non-SHB block. body is the block without its
// 8-byte header but with the 4-byte length trailer. It returns (record,
// true) for packet blocks, (zero, false) for state-updating or skipped
// blocks. The validation here is shared verbatim by the stream and bytes
// paths, which keeps the two readers in lockstep for the fuzzers.
func (r *Reader) ngBlock(blockType uint32, totalLen int, body []byte) (Record, bool, error) {
	if got := int(r.order.Uint32(body[len(body)-ngBlockTrailerLen:])); got != totalLen {
		return Record{}, false, fmt.Errorf("pcapio: pcapng block trailer mismatch (%d != %d)", got, totalLen)
	}
	content := body[:len(body)-ngBlockTrailerLen]
	switch blockType {
	case ngBlockIDB:
		if len(content) < ngIDBFixed {
			return Record{}, false, fmt.Errorf("pcapio: short pcapng interface block (%d bytes)", len(content))
		}
		link := uint32(r.order.Uint16(content[0:2]))
		snap := int(r.order.Uint32(content[4:8]))
		if snap > MaxSnapLen {
			return Record{}, false, fmt.Errorf("pcapio: snap length %d exceeds sane cap %d", snap, MaxSnapLen)
		}
		resol := uint8(6)
		opts := content[ngIDBFixed:]
		for len(opts) >= 4 {
			code := r.order.Uint16(opts[0:2])
			olen := int(r.order.Uint16(opts[2:4]))
			if code == 0 {
				break
			}
			pad := (olen + 3) &^ 3
			if 4+pad > len(opts) {
				return Record{}, false, fmt.Errorf("pcapio: malformed pcapng option (code %d, length %d)", code, olen)
			}
			if code == ngOptTsresol && olen == 1 {
				resol = opts[4]
			}
			opts = opts[4+pad:]
		}
		if !ngResolOK(resol) {
			return Record{}, false, fmt.Errorf("pcapio: unsupported pcapng timestamp resolution %#x", resol)
		}
		r.ifaces = append(r.ifaces, ngIface{link: link, snap: snap, resol: resol})
		if len(r.ifaces) == 1 {
			r.linkType = link
			r.snaplen = snap
		}
		return Record{}, false, nil
	case ngBlockEPB:
		if len(content) < ngEPBFixed {
			return Record{}, false, fmt.Errorf("pcapio: short pcapng packet block (%d bytes)", len(content))
		}
		ifid := int(r.order.Uint32(content[0:4]))
		if ifid >= len(r.ifaces) {
			return Record{}, false, fmt.Errorf("pcapio: pcapng packet references unknown interface %d", ifid)
		}
		iface := r.ifaces[ifid]
		units := uint64(r.order.Uint32(content[4:8]))<<32 | uint64(r.order.Uint32(content[8:12]))
		capLen := int(r.order.Uint32(content[12:16]))
		origLen := int(r.order.Uint32(content[16:20]))
		bound := iface.snap
		if bound <= 0 {
			bound = DefaultSnapLen
		}
		if capLen < 0 || capLen > bound+packetHeaderLen+65536 {
			return Record{}, false, fmt.Errorf("pcapio: implausible capture length %d", capLen)
		}
		if ngEPBFixed+capLen > len(content) {
			return Record{}, false, fmt.Errorf("pcapio: pcapng packet data exceeds block (%d > %d)", capLen, len(content)-ngEPBFixed)
		}
		data := content[ngEPBFixed : ngEPBFixed+capLen : ngEPBFixed+capLen]
		return Record{Time: ngTime(units, iface.resol), Data: data, OrigLen: origLen, Link: iface.link}, true, nil
	case ngBlockSPB:
		// Simple Packet Blocks carry no timestamp or interface id: they
		// implicitly belong to interface 0 and the stored length is
		// min(original, snap length).
		if len(content) < 4 {
			return Record{}, false, fmt.Errorf("pcapio: short pcapng simple packet block (%d bytes)", len(content))
		}
		if len(r.ifaces) == 0 {
			return Record{}, false, fmt.Errorf("pcapio: pcapng simple packet before any interface block")
		}
		iface := r.ifaces[0]
		origLen := int(r.order.Uint32(content[0:4]))
		n := origLen
		if n < 0 || n > len(content)-4 {
			n = len(content) - 4
		}
		if iface.snap > 0 && n > iface.snap {
			n = iface.snap
		}
		data := content[4 : 4+n : 4+n]
		return Record{Time: time.Unix(0, 0).UTC(), Data: data, OrigLen: origLen, Link: iface.link}, true, nil
	default:
		return Record{}, false, nil
	}
}

// PcapNG reports whether the capture is a pcapng file rather than a
// classic libpcap one.
func (r *Reader) PcapNG() bool { return r.ngMode }

// BigEndian reports whether the current section is big-endian.
func (r *Reader) BigEndian() bool { return r.order == binary.BigEndian }

// Interfaces returns the pcapng interface table parsed so far (interface
// description blocks precede the packets that reference them, so after
// draining the stream the table is complete). It returns nil for classic
// captures, whose single implicit interface is exposed via LinkType.
func (r *Reader) Interfaces() []NGInterface {
	if !r.ngMode {
		return nil
	}
	out := make([]NGInterface, len(r.ifaces))
	for i, f := range r.ifaces {
		out[i] = NGInterface{LinkType: f.link, SnapLen: f.snap, Nanosecond: f.resol == 9}
	}
	return out
}

// NGWriterOptions configure a pcapng Writer.
type NGWriterOptions struct {
	// BigEndian writes the section in big-endian byte order.
	BigEndian bool
	// Interfaces declares the capture interfaces, in id order. Empty
	// means a single microsecond Ethernet interface. A zero SnapLen
	// becomes DefaultSnapLen.
	Interfaces []NGInterface
}

// NGWriter writes a canonical single-section pcapng stream: one SHB, one
// IDB per declared interface (carrying if_tsresol=9 when nanosecond),
// then an EPB per record. The form is deterministic — the same options
// and records always produce the same bytes — so captures written here
// round-trip byte-identically through Reader + a fresh NGWriter, which is
// what the dataset fixtures' export identity tests rely on.
type NGWriter struct {
	w      *bufio.Writer
	order  binary.ByteOrder
	ifaces []NGInterface
	count  int
	rec    []byte
}

// NewNGWriter writes the section header and interface blocks to w.
func NewNGWriter(w io.Writer, opts NGWriterOptions) (*NGWriter, error) {
	ifaces := make([]NGInterface, len(opts.Interfaces))
	copy(ifaces, opts.Interfaces)
	if len(ifaces) == 0 {
		ifaces = []NGInterface{{LinkType: LinkTypeEthernet}}
	}
	for i := range ifaces {
		if ifaces[i].LinkType == 0 {
			ifaces[i].LinkType = LinkTypeEthernet
		}
		if ifaces[i].SnapLen <= 0 {
			ifaces[i].SnapLen = DefaultSnapLen
		}
	}
	var order binary.ByteOrder = binary.LittleEndian
	if opts.BigEndian {
		order = binary.BigEndian
	}
	nw := &NGWriter{w: bufio.NewWriter(w), order: order, ifaces: ifaces}
	if err := nw.block(ngBlockSHB, func(b []byte) []byte {
		b = nw.app32(b, ngByteOrderMagic)
		b = nw.app16(b, 1) // version 1.0
		b = nw.app16(b, 0)
		return append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff) // section length unknown
	}); err != nil {
		return nil, err
	}
	for _, f := range ifaces {
		f := f
		if err := nw.block(ngBlockIDB, func(b []byte) []byte {
			b = nw.app16(b, uint16(f.LinkType))
			b = nw.app16(b, 0) // reserved
			b = nw.app32(b, uint32(f.SnapLen))
			if f.Nanosecond {
				b = nw.app16(b, ngOptTsresol)
				b = nw.app16(b, 1)
				b = append(b, 9, 0, 0, 0) // value + pad
				b = nw.app16(b, 0)        // opt_endofopt
				b = nw.app16(b, 0)
			}
			return b
		}); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

func (w *NGWriter) app16(b []byte, v uint16) []byte {
	var s [2]byte
	w.order.PutUint16(s[:], v)
	return append(b, s[:]...)
}

func (w *NGWriter) app32(b []byte, v uint32) []byte {
	var s [4]byte
	w.order.PutUint32(s[:], v)
	return append(b, s[:]...)
}

// block stages one block — header, body, 4-byte padding, trailer — and
// hands it to the underlying stream as a single write, mirroring the
// classic Writer's coalescing contract.
func (w *NGWriter) block(typ uint32, body func(b []byte) []byte) error {
	b := w.rec[:0]
	b = w.app32(b, typ)
	b = w.app32(b, 0) // patched below
	b = body(b)
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	total := uint32(len(b) + ngBlockTrailerLen)
	w.order.PutUint32(b[4:8], total)
	b = w.app32(b, total)
	_, err := w.w.Write(b)
	w.rec = b[:0]
	return err
}

// WriteRecord appends one enhanced packet block on the given interface,
// truncating data to the interface's snap length. An origLen <= 0 means
// len(data). Count advances only when the block is accepted in full;
// after an error the stream is poisoned exactly like the classic Writer.
func (w *NGWriter) WriteRecord(iface int, ts time.Time, data []byte, origLen int) error {
	if iface < 0 || iface >= len(w.ifaces) {
		return fmt.Errorf("pcapio: pcapng interface %d out of range (have %d)", iface, len(w.ifaces))
	}
	f := w.ifaces[iface]
	if origLen <= 0 {
		origLen = len(data)
	}
	if len(data) > f.SnapLen {
		data = data[:f.SnapLen]
	}
	var units uint64
	if f.Nanosecond {
		units = uint64(ts.UnixNano())
	} else {
		units = uint64(ts.Unix())*1000000 + uint64(ts.Nanosecond()/1000)
	}
	err := w.block(ngBlockEPB, func(b []byte) []byte {
		b = w.app32(b, uint32(iface))
		b = w.app32(b, uint32(units>>32))
		b = w.app32(b, uint32(units))
		b = w.app32(b, uint32(len(data)))
		b = w.app32(b, uint32(origLen))
		return append(b, data...)
	})
	if err != nil {
		return err
	}
	w.count++
	return nil
}

// Count is the number of packet blocks fully accepted so far.
func (w *NGWriter) Count() int { return w.count }

// Flush flushes buffered bytes to the underlying writer.
func (w *NGWriter) Flush() error { return w.w.Flush() }
