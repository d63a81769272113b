package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2019, 4, 1, 9, 30, 0, 123456000, time.UTC)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	frames := [][]byte{
		{1, 2, 3, 4, 5},
		bytes.Repeat([]byte{0xaa}, 1500),
		{},
	}
	for i, f := range frames {
		if err := w.WritePacket(t0.Add(time.Duration(i)*time.Second), f); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Errorf("LinkType = %d", r.LinkType())
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Data, frames[i]) {
			t.Errorf("record %d data mismatch", i)
		}
		want := t0.Add(time.Duration(i) * time.Second)
		if !rec.Time.Equal(want) {
			t.Errorf("record %d time = %v, want %v", i, rec.Time, want)
		}
	}
}

func TestNanosecondPrecision(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{Nanosecond: true})
	ts := t0.Add(789 * time.Nanosecond)
	if err := w.WritePacket(ts, []byte{1}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Nanosecond() {
		t.Fatal("reader did not detect nanosecond magic")
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Time.Equal(ts) {
		t.Fatalf("time = %v, want %v", rec.Time, ts)
	}
}

func TestMicrosecondTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{})
	ts := t0.Add(789 * time.Nanosecond) // sub-microsecond part must drop
	w.WritePacket(ts, []byte{1})
	w.Flush()
	r, _ := NewReader(&buf)
	rec, _ := r.Next()
	if rec.Time.Nanosecond()%1000 != 0 {
		t.Fatalf("microsecond file retained ns precision: %v", rec.Time)
	}
}

func TestSnapLenTruncates(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{SnapLen: 10})
	data := bytes.Repeat([]byte{0x55}, 100)
	w.WritePacket(t0, data)
	w.Flush()
	r, _ := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 10 {
		t.Fatalf("captured %d bytes, want 10", len(rec.Data))
	}
	if rec.OrigLen != 100 {
		t.Fatalf("OrigLen = %d, want 100", rec.OrigLen)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("expected error for short header")
	}
}

func TestEOFAfterLastPacket(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{})
	w.WritePacket(t0, []byte{9})
	w.Flush()
	r, _ := NewReader(&buf)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, WriterOptions{})
		for i, p := range payloads {
			if len(p) > 4096 {
				p = p[:4096]
			}
			if err := w.WritePacket(t0.Add(time.Duration(i)*time.Millisecond), p); err != nil {
				return false
			}
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		recs, err := r.ReadAll()
		if err != nil || len(recs) != len(payloads) {
			return false
		}
		for i, p := range payloads {
			if len(p) > 4096 {
				p = p[:4096]
			}
			if !bytes.Equal(recs[i].Data, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	labels := []Label{
		{Start: t0.Add(time.Minute), End: t0.Add(2 * time.Minute), Experiment: "interaction", Activity: "android_lan_on"},
		{Start: t0, End: t0.Add(time.Minute), Experiment: "power", Activity: "power"},
	}
	var buf bytes.Buffer
	if err := WriteLabels(&buf, labels); err != nil {
		t.Fatalf("WriteLabels: %v", err)
	}
	got, err := ReadLabels(&buf)
	if err != nil {
		t.Fatalf("ReadLabels: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("labels = %d", len(got))
	}
	// Output is sorted by start.
	if got[0].Experiment != "power" || got[1].Activity != "android_lan_on" {
		t.Errorf("unexpected order: %+v", got)
	}
	if !got[0].Start.Equal(t0) {
		t.Errorf("start = %v", got[0].Start)
	}
}

func TestLabelContains(t *testing.T) {
	l := Label{Start: t0, End: t0.Add(time.Minute)}
	if !l.Contains(t0) {
		t.Error("start should be contained")
	}
	if l.Contains(t0.Add(time.Minute)) {
		t.Error("end should be excluded")
	}
	if l.Contains(t0.Add(-time.Second)) {
		t.Error("before start should be excluded")
	}
	if l.Duration() != time.Minute {
		t.Errorf("Duration = %v", l.Duration())
	}
}

func TestLabelRejectsTabs(t *testing.T) {
	var buf bytes.Buffer
	err := WriteLabels(&buf, []Label{{Start: t0, End: t0, Experiment: "a\tb"}})
	if err == nil {
		t.Fatal("expected error for tab in experiment name")
	}
}

func TestReadLabelsErrors(t *testing.T) {
	cases := []string{
		"one\ttwo\tthree",
		"bad\t2019-04-01T00:00:00Z\tx\ty",
		"2019-04-01T00:00:00Z\tbad\tx\ty",
		"2019-04-01T01:00:00Z\t2019-04-01T00:00:00Z\tx\ty", // end before start
	}
	for _, c := range cases {
		if _, err := ReadLabels(strings.NewReader(c + "\n")); err == nil {
			t.Errorf("ReadLabels(%q): expected error", c)
		}
	}
}

func TestReadLabelsSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n2019-04-01T00:00:00Z\t2019-04-01T00:01:00Z\tidle\tidle\n"
	got, err := ReadLabels(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Experiment != "idle" {
		t.Fatalf("got %+v", got)
	}
}

func TestFindLabel(t *testing.T) {
	labels := []Label{
		{Start: t0, End: t0.Add(time.Minute), Experiment: "power", Activity: "power"},
		{Start: t0.Add(time.Hour), End: t0.Add(2 * time.Hour), Experiment: "idle", Activity: "idle"},
	}
	if l, ok := FindLabel(labels, t0.Add(30*time.Second)); !ok || l.Experiment != "power" {
		t.Errorf("FindLabel in first window: %v %v", l, ok)
	}
	if _, ok := FindLabel(labels, t0.Add(30*time.Minute)); ok {
		t.Error("FindLabel in gap should miss")
	}
}

func TestTruncatedRecordTyped(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{})
	w.WritePacket(t0, []byte{1, 2, 3, 4})
	w.WritePacket(t0.Add(time.Second), []byte{5, 6, 7, 8})
	w.Flush()
	full := buf.Bytes()

	secondHdr := int64(fileHeaderLen + packetHeaderLen + 4)
	cases := []struct {
		name string
		cut  int // bytes kept
		want int64
	}{
		{"mid-body", len(full) - 2, secondHdr},
		{"mid-header", int(secondHdr) + 7, secondHdr},
		{"after-first", int(secondHdr) + packetHeaderLen + 1, secondHdr},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(full[:c.cut]))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Next(); err != nil {
				t.Fatalf("first record: %v", err)
			}
			_, err = r.Next()
			var trunc *ErrTruncated
			if !errors.As(err, &trunc) {
				t.Fatalf("err = %v, want *ErrTruncated", err)
			}
			if trunc.Offset != c.want {
				t.Errorf("Offset = %d, want %d", trunc.Offset, c.want)
			}
		})
	}
}

func TestSnapLenCapRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{})
	w.WritePacket(t0, []byte{1})
	w.Flush()
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[16:20], uint32(MaxSnapLen+1))
	if _, err := NewReader(bytes.NewReader(b)); err == nil {
		t.Fatal("expected error for snaplen over MaxSnapLen")
	}
}

func TestImplausibleRecordLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{SnapLen: 1024})
	w.WritePacket(t0, []byte{1})
	w.Flush()
	b := buf.Bytes()
	// Corrupt the record's capture length to something enormous.
	binary.LittleEndian.PutUint32(b[fileHeaderLen+8:fileHeaderLen+12], 0x7fffffff)
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil {
		t.Fatal("expected error for implausible capture length")
	}
	var trunc *ErrTruncated
	if errors.As(err, &trunc) {
		t.Fatalf("corrupt length misreported as truncation: %v", err)
	}
}

func TestLabelsNonUTCOffsetRoundTrip(t *testing.T) {
	ist := time.FixedZone("UTC+05:30", 5*3600+30*60)
	labels := []Label{{
		Start:      time.Date(2019, 4, 1, 9, 30, 0, 0, ist),
		End:        time.Date(2019, 4, 1, 10, 0, 0, 0, ist),
		Experiment: "idle", Activity: "idle",
	}}
	var buf bytes.Buffer
	if err := WriteLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "+05:30") {
		t.Fatalf("offset not preserved in %q", text)
	}
	got, err := ReadLabels(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Start.Equal(labels[0].Start) || !got[0].End.Equal(labels[0].End) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, off := got[0].Start.Zone(); off != 5*3600+30*60 {
		t.Errorf("zone offset = %d, want +05:30", off)
	}
	// A second write must reproduce the same bytes.
	var buf2 bytes.Buffer
	if err := WriteLabels(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != text {
		t.Errorf("re-write differs:\n%q\n%q", buf2.String(), text)
	}
}

func TestLabelsNaiveTimestampsUseDeclaredOffset(t *testing.T) {
	in := "# offset: -04:00\n" +
		"2019-04-01T09:30:00\t2019-04-01T10:00:00\tpower\tpower\n"
	got, err := ReadLabels(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2019, 4, 1, 13, 30, 0, 0, time.UTC)
	if len(got) != 1 || !got[0].Start.Equal(want) {
		t.Fatalf("start = %v, want %v", got[0].Start, want)
	}
	// Without the header the same stamp is read as UTC.
	got, err = ReadLabels(strings.NewReader("2019-04-01T09:30:00\t2019-04-01T10:00:00\tpower\tpower\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Start.Equal(time.Date(2019, 4, 1, 9, 30, 0, 0, time.UTC)) {
		t.Fatalf("naive-as-UTC start = %v", got[0].Start)
	}
}

// TestWriteBatchMatchesWritePacket locks the batch path's byte layout to
// the per-packet path: same records, identical stream, consistent Count.
func TestWriteBatchMatchesWritePacket(t *testing.T) {
	frames := [][]byte{
		{1, 2, 3, 4, 5},
		bytes.Repeat([]byte{0xaa}, 1500),
		{},
		bytes.Repeat([]byte{0x42}, 300*1024), // larger than one batch chunk
	}
	var single, batched bytes.Buffer
	ws, _ := NewWriter(&single, WriterOptions{Nanosecond: true})
	wb, _ := NewWriter(&batched, WriterOptions{Nanosecond: true})
	var recs []Record
	for i, f := range frames {
		ts := t0.Add(time.Duration(i) * time.Second)
		if err := ws.WritePacket(ts, f); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, Record{Time: ts, Data: f})
	}
	if err := wb.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if ws.Count() != wb.Count() || wb.Count() != len(frames) {
		t.Fatalf("Count: per-packet %d, batch %d, want %d", ws.Count(), wb.Count(), len(frames))
	}
	if !bytes.Equal(single.Bytes(), batched.Bytes()) {
		t.Fatal("batch write produced different bytes than per-packet writes")
	}
	// A second batch on a reused writer must keep appending correctly.
	if err := wb.WriteBatch(recs[:2]); err != nil {
		t.Fatal(err)
	}
	if wb.Count() != len(frames)+2 {
		t.Fatalf("Count after second batch = %d, want %d", wb.Count(), len(frames)+2)
	}
}

// TestWriteBatchHonorsOrigLen checks that reader-produced records (whose
// OrigLen exceeds the captured bytes) survive a rewrite.
func TestWriteBatchHonorsOrigLen(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{})
	if err := w.WriteBatch([]Record{{Time: t0, Data: []byte{1, 2, 3}, OrigLen: 99}}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, _ := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.OrigLen != 99 || len(rec.Data) != 3 {
		t.Fatalf("rec = (%d bytes, OrigLen %d), want (3, 99)", len(rec.Data), rec.OrigLen)
	}
}

// failAfterWriter accepts n bytes, then fails every write.
type failAfterWriter struct {
	n       int
	written int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		accepted := f.n - f.written
		if accepted < 0 {
			accepted = 0
		}
		f.written += accepted
		return accepted, errors.New("disk full")
	}
	f.written += len(p)
	return len(p), nil
}

// TestWriteErrorKeepsCountConsistent is the accounting contract: a failed
// record never advances Count, on either write path, and the writer stays
// poisoned afterwards.
func TestWriteErrorKeepsCountConsistent(t *testing.T) {
	// Room for the file header and the first record only; the second
	// record is large enough to force a flush through bufio, so the
	// write error surfaces inside WritePacket rather than at Flush.
	big := bytes.Repeat([]byte{0x7e}, 8192)
	fw := &failAfterWriter{n: fileHeaderLen + packetHeaderLen + len(big)}
	w, err := NewWriter(fw, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(t0, big); err != nil {
		t.Fatalf("first record should fit: %v", err)
	}
	if err := w.WritePacket(t0.Add(time.Second), big); err == nil {
		t.Fatal("expected write error for second record")
	}
	if w.Count() != 1 {
		t.Fatalf("Count after failed record = %d, want 1", w.Count())
	}
	// The stream is poisoned: later writes and Flush keep failing and
	// Count stays frozen.
	if err := w.WritePacket(t0.Add(2*time.Second), []byte{1}); err == nil {
		t.Fatal("poisoned writer accepted a record")
	}
	if err := w.WriteBatch([]Record{{Time: t0, Data: []byte{1}}}); err == nil {
		t.Fatal("poisoned writer accepted a batch")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("poisoned writer flushed cleanly")
	}
	if w.Count() != 1 {
		t.Fatalf("Count moved after poisoning: %d", w.Count())
	}
}

// TestWriteBatchErrorMidBatch: records in chunks flushed before the error
// are counted, the failing chunk's are not.
func TestWriteBatchErrorMidBatch(t *testing.T) {
	rec := Record{Time: t0, Data: bytes.Repeat([]byte{9}, 64*1024)}
	// Four records = one full batch chunk (256 KiB) plus a remainder;
	// allow the first chunk through and fail the remainder.
	perRec := packetHeaderLen + len(rec.Data)
	fw := &failAfterWriter{n: fileHeaderLen + 4*perRec}
	w, err := NewWriter(fw, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{rec, rec, rec, rec, rec, rec}
	if err := w.WriteBatch(recs); err == nil {
		t.Fatal("expected mid-batch write error")
	}
	if w.Count() != 4 {
		t.Fatalf("Count = %d, want 4 (the flushed chunk)", w.Count())
	}
}

func TestLabelTagsRoundTrip(t *testing.T) {
	labels := []Label{{
		Start: t0, End: t0.Add(time.Minute),
		Experiment: "interaction", Activity: "android_lan_on",
		Tags: map[string]string{"vpn": "1", "gateway": "gw2"},
	}}
	var buf bytes.Buffer
	if err := WriteLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\tgateway=gw2,vpn=1\n") {
		t.Fatalf("tags field missing: %q", buf.String())
	}
	got, err := ReadLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Tag("vpn") != "1" || got[0].Tag("gateway") != "gw2" {
		t.Fatalf("tags = %+v", got[0].Tags)
	}
	// Tags with reserved characters are rejected at write time.
	bad := []Label{{Start: t0, End: t0, Experiment: "x", Activity: "y",
		Tags: map[string]string{"k": "a,b"}}}
	if err := WriteLabels(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("expected error for comma in tag value")
	}
}
