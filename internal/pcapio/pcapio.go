package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers of the classic pcap format.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkTypeEthernet is the only link type the testbed uses.
const LinkTypeEthernet = 1

const (
	fileHeaderLen   = 24
	packetHeaderLen = 16
	// DefaultSnapLen matches tcpdump's modern default.
	DefaultSnapLen = 262144
	// MaxSnapLen caps the snap length a Reader accepts. Corrupt file
	// headers otherwise announce multi-gigabyte snap lengths and every
	// record read turns into a huge allocation; no real capture tool
	// writes snap lengths anywhere near this bound.
	MaxSnapLen = 1 << 22
)

// ErrBadMagic reports a file that is not a classic pcap capture.
var ErrBadMagic = errors.New("pcapio: bad magic number")

// ErrTruncated reports a partial trailing record: the stream ended in the
// middle of a packet header or body, typically because the capturing
// process was killed mid-write. Offset is the byte offset of the
// truncated record's header, so callers can report how much of the file
// was readable. Ingestion treats this as "count and continue" rather
// than fatal: everything before Offset decoded cleanly.
type ErrTruncated struct {
	Offset int64
}

func (e *ErrTruncated) Error() string {
	return fmt.Sprintf("pcapio: truncated record at offset %d", e.Offset)
}

// Record is one captured packet: its timestamp, the bytes captured and the
// original wire length.
//
// Data returned by Reader.Next is carved from a shared slab with a
// capped capacity (len == cap), so records are safe to retain and append
// to — growing one reallocates rather than scribbling on a neighbour —
// while the reader amortizes one allocation across many packets.
type Record struct {
	Time    time.Time
	Data    []byte
	OrigLen int
	// Link is the record's link type for captures that can mix them
	// (pcapng files set it from the interface that captured the packet);
	// 0 means "the capture's file-level link type" and is what classic
	// pcap records carry. Resolve with Reader.LinkType when 0.
	Link uint32
}

// Writer writes a classic pcap stream.
//
// Error handling: every record is staged (header and payload coalesced)
// and handed to the underlying stream with a single Write, and Count
// advances only when that write is accepted in full. After any error from
// WritePacket, WriteBatch or Flush the stream is poisoned — the buffered
// writer underneath fails every subsequent call with the same error — and
// the bytes on the wire end at an arbitrary point inside the failed
// record, so a reader of the output sees at most Count complete records
// followed by an ErrTruncated tail.
type Writer struct {
	w       *bufio.Writer
	nano    bool
	snaplen int
	count   int
	// rec stages one record (or one WriteBatch chunk) — header and
	// payload back to back — so each record reaches the underlying
	// writer as a single coalesced Write; the buffer's capacity is
	// reused across calls.
	rec []byte
}

// WriterOptions configure a Writer.
type WriterOptions struct {
	// Nanosecond selects the 0xa1b23c4d variant.
	Nanosecond bool
	// SnapLen caps captured bytes per packet; 0 means DefaultSnapLen.
	SnapLen int
	// LinkType defaults to LinkTypeEthernet.
	LinkType uint32
}

// NewWriter writes a pcap file header to w and returns a Writer.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.SnapLen <= 0 {
		opts.SnapLen = DefaultSnapLen
	}
	if opts.LinkType == 0 {
		opts.LinkType = LinkTypeEthernet
	}
	bw := bufio.NewWriter(w)
	hdr := make([]byte, fileHeaderLen)
	magic := uint32(MagicMicroseconds)
	if opts.Nanosecond {
		magic = MagicNanoseconds
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version 2.4
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(opts.SnapLen))
	binary.LittleEndian.PutUint32(hdr[20:24], opts.LinkType)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: bw, nano: opts.Nanosecond, snaplen: opts.SnapLen}, nil
}

// appendRecord stages one record — packet header plus payload, truncated
// to the snap length — onto buf. origLen <= 0 means len(data).
func (w *Writer) appendRecord(buf []byte, ts time.Time, data []byte, origLen int) []byte {
	if origLen <= 0 {
		origLen = len(data)
	}
	if len(data) > w.snaplen {
		data = data[:w.snaplen]
	}
	var hdr [packetHeaderLen]byte
	sec := ts.Unix()
	var sub int64
	if w.nano {
		sub = int64(ts.Nanosecond())
	} else {
		sub = int64(ts.Nanosecond() / 1000)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(sub))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(origLen))
	buf = append(buf, hdr[:]...)
	return append(buf, data...)
}

// WritePacket appends one record, truncating to the snap length. The
// header and payload reach the stream as one coalesced write, and Count
// advances only if that write succeeds; see the Writer doc for the state
// of the stream after an error.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	w.rec = w.appendRecord(w.rec[:0], ts, data, 0)
	if _, err := w.w.Write(w.rec); err != nil {
		return err
	}
	w.count++
	return nil
}

// batchChunk bounds WriteBatch's staging buffer: records are coalesced
// into chunks of roughly this size (always ending on a record boundary)
// before being flushed, so batching a huge slice does not stage it all
// at once. It exceeds bufio's default buffer, so steady-state batch
// chunks bypass the intermediate copy entirely.
const batchChunk = 256 * 1024

// WriteBatch appends records iovec-style: headers and payloads are
// coalesced into large record-aligned chunks and each chunk reaches the
// underlying stream as a single write, amortizing both the per-record
// call overhead and (for chunks larger than the internal buffer) the
// intermediate copy that per-packet writes pay. A record's OrigLen of 0
// means len(Data), matching WritePacket. Count advances per chunk, by
// the number of records the chunk carried; after an error the stream
// state is as documented on Writer.
func (w *Writer) WriteBatch(recs []Record) error {
	buf := w.rec[:0]
	staged := 0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, err := w.w.Write(buf); err != nil {
			return err
		}
		w.count += staged
		staged = 0
		buf = buf[:0]
		return nil
	}
	for i := range recs {
		buf = w.appendRecord(buf, recs[i].Time, recs[i].Data, recs[i].OrigLen)
		staged++
		if len(buf) >= batchChunk {
			if err := flush(); err != nil {
				w.rec = buf[:0]
				return err
			}
		}
	}
	err := flush()
	w.rec = buf[:0] // keep the grown capacity for the next batch
	return err
}

// Count is the number of records fully accepted by the writer so far.
// It counts acceptance, not durability: bytes may still sit in the
// internal buffer until Flush, and a Flush error invalidates the tail of
// the stream without rolling Count back.
func (w *Writer) Count() int { return w.count }

// Flush flushes buffered bytes to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// slabChunk sizes the Reader's payload slab. IoT packets average well
// under 1 KiB, so one chunk typically serves hundreds of records with a
// single allocation.
const slabChunk = 64 * 1024

// Reader reads a classic pcap stream.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nano     bool
	snaplen  int
	linkType uint32
	// buf, in bytes mode (NewReaderBytes), is the unread tail of the
	// in-memory capture; records are zero-copy sub-slices of it.
	buf       []byte
	bytesMode bool
	// offset is the byte position of the next unread record header.
	offset int64
	// hdr is the per-record header scratch; its bytes are fully decoded
	// before the next read, so a single buffer serves every record.
	hdr [packetHeaderLen]byte
	// slab is the remaining tail of the current payload chunk.
	// Record payloads are carved off its front with capacity capped at
	// their length, so retained records never alias each other.
	slab []byte
	// ngMode marks a pcapng capture; ifaces is its per-section interface
	// table and ngBuf the stream-mode block staging buffer (see pcapng.go).
	ngMode bool
	ifaces []ngIface
	ngBuf  []byte
}

// alloc carves an n-byte payload buffer. Small requests share slab
// chunks; outsized ones (≥ a quarter chunk) get their own allocation so a
// few jumbo frames don't strand mostly-unused slabs.
func (r *Reader) alloc(n int) []byte {
	if n == 0 {
		// Keep zero-length payloads non-nil: round-trip tests compare
		// records with reflect.DeepEqual, which separates nil from empty.
		return []byte{}
	}
	if n >= slabChunk/4 {
		return make([]byte, n)
	}
	if len(r.slab) < n {
		r.slab = make([]byte, slabChunk)
	}
	buf := r.slab[:n:n]
	r.slab = r.slab[n:]
	return buf
}

// parseFileHeader decodes the 24-byte global header into rd.
func (rd *Reader) parseFileHeader(hdr []byte) error {
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		rd.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		rd.order, rd.nano = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		rd.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		rd.order, rd.nano = binary.BigEndian, true
	default:
		return ErrBadMagic
	}
	rd.snaplen = int(rd.order.Uint32(hdr[16:20]))
	if rd.snaplen > MaxSnapLen {
		return fmt.Errorf("pcapio: snap length %d exceeds sane cap %d", rd.snaplen, MaxSnapLen)
	}
	rd.linkType = rd.order.Uint32(hdr[20:24])
	rd.offset = fileHeaderLen
	return nil
}

// NewReader parses the file header from r. Both classic libpcap and
// pcapng captures are accepted; the first four bytes decide (the pcapng
// section-header block type is palindromic, so no byte-order guess is
// needed to sniff it).
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, fileHeaderLen)
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return nil, fmt.Errorf("pcapio: reading file header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[:4]) == ngBlockSHB {
		return newNGReaderStream(br, hdr[:4])
	}
	if _, err := io.ReadFull(br, hdr[4:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading file header: %w", err)
	}
	rd := &Reader{r: br}
	if err := rd.parseFileHeader(hdr); err != nil {
		return nil, err
	}
	return rd, nil
}

// NewReaderBytes reads a capture already resident in memory — typically
// a memory-mapped file (OpenFile) — without buffering or copying: every
// Record's Data is a capacity-capped sub-slice of data. Records are
// therefore exactly as long-lived (and as mutable) as the backing slice;
// callers that outlive it must copy what they keep, and a read-only
// mapping makes the records read-only too.
func NewReaderBytes(data []byte) (*Reader, error) {
	if len(data) >= 4 && binary.LittleEndian.Uint32(data[:4]) == ngBlockSHB {
		return newNGReaderBytes(data)
	}
	if len(data) < fileHeaderLen {
		return nil, fmt.Errorf("pcapio: reading file header: %w", io.ErrUnexpectedEOF)
	}
	rd := &Reader{bytesMode: true}
	if err := rd.parseFileHeader(data[:fileHeaderLen]); err != nil {
		return nil, err
	}
	rd.buf = data[fileHeaderLen:]
	return rd, nil
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// SnapLen returns the capture's snap length.
func (r *Reader) SnapLen() int { return r.snaplen }

// Nanosecond reports whether timestamps carry nanosecond precision.
func (r *Reader) Nanosecond() bool { return r.nano }

// Next reads the next record. It returns io.EOF at a clean end of file
// and a *ErrTruncated (wrapping the record's byte offset) when the stream
// ends inside a record, so callers can count-and-continue past partially
// written trailing records.
func (r *Reader) Next() (Record, error) {
	if r.ngMode {
		if r.bytesMode {
			return r.nextNGBytes()
		}
		return r.nextNGStream()
	}
	if r.bytesMode {
		return r.nextBytes()
	}
	start := r.offset
	hdr := r.hdr[:]
	if n, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return Record{}, &ErrTruncated{Offset: start}
		}
		r.offset += int64(n)
		return Record{}, fmt.Errorf("pcapio: reading packet header: %w", err)
	}
	r.offset += packetHeaderLen
	sec := int64(r.order.Uint32(hdr[0:4]))
	sub := int64(r.order.Uint32(hdr[4:8]))
	capLen := int(r.order.Uint32(hdr[8:12]))
	origLen := int(r.order.Uint32(hdr[12:16]))
	// Reject record lengths beyond what the announced snap length (or, for
	// files announcing snaplen 0, the tcpdump default) could have
	// produced: corrupt headers must not turn into huge allocations.
	bound := r.snaplen
	if bound <= 0 {
		bound = DefaultSnapLen
	}
	if capLen < 0 || capLen > bound+packetHeaderLen+65536 {
		return Record{}, fmt.Errorf("pcapio: implausible capture length %d", capLen)
	}
	data := r.alloc(capLen)
	if n, err := io.ReadFull(r.r, data); err != nil {
		r.offset += int64(n)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, &ErrTruncated{Offset: start}
		}
		return Record{}, fmt.Errorf("pcapio: reading packet body: %w", err)
	}
	r.offset += int64(capLen)
	var ts time.Time
	if r.nano {
		ts = time.Unix(sec, sub).UTC()
	} else {
		ts = time.Unix(sec, sub*1000).UTC()
	}
	return Record{Time: ts, Data: data, OrigLen: origLen}, nil
}

// nextBytes is Next for in-memory captures: record framing by slicing,
// record payloads by aliasing. No per-record allocation, no copy.
func (r *Reader) nextBytes() (Record, error) {
	start := r.offset
	if len(r.buf) == 0 {
		return Record{}, io.EOF
	}
	if len(r.buf) < packetHeaderLen {
		r.offset += int64(len(r.buf))
		r.buf = nil
		return Record{}, &ErrTruncated{Offset: start}
	}
	hdr := r.buf[:packetHeaderLen]
	sec := int64(r.order.Uint32(hdr[0:4]))
	sub := int64(r.order.Uint32(hdr[4:8]))
	capLen := int(r.order.Uint32(hdr[8:12]))
	origLen := int(r.order.Uint32(hdr[12:16]))
	bound := r.snaplen
	if bound <= 0 {
		bound = DefaultSnapLen
	}
	if capLen < 0 || capLen > bound+packetHeaderLen+65536 {
		return Record{}, fmt.Errorf("pcapio: implausible capture length %d", capLen)
	}
	if len(r.buf) < packetHeaderLen+capLen {
		r.offset += int64(len(r.buf))
		r.buf = nil
		return Record{}, &ErrTruncated{Offset: start}
	}
	// Capacity-capped so growing a retained record reallocates instead of
	// scribbling on (or faulting in, for read-only mappings) its neighbour.
	data := r.buf[packetHeaderLen : packetHeaderLen+capLen : packetHeaderLen+capLen]
	r.buf = r.buf[packetHeaderLen+capLen:]
	r.offset += int64(packetHeaderLen + capLen)
	var ts time.Time
	if r.nano {
		ts = time.Unix(sec, sub).UTC()
	} else {
		ts = time.Unix(sec, sub*1000).UTC()
	}
	return Record{Time: ts, Data: data, OrigLen: origLen}, nil
}

// ReadAll drains the stream into a slice.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
