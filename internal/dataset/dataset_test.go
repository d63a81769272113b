package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// experimentsRunner synthesizes a small two-lab campaign with VPN legs,
// the traffic every adapter fixture derives from.
func experimentsRunner() (*experiments.Runner, error) {
	return experiments.NewRunner(experiments.Config{
		Seed:          1,
		AutomatedReps: 1,
		ManualReps:    1,
		PowerReps:     1,
		IdleHours:     map[string]float64{"US": 0.25, "GB": 0.25},
		VPN:           true,
		Workers:       2,
	})
}

func tinyRunner(t *testing.T) *experiments.Runner {
	t.Helper()
	r, err := experimentsRunner()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// hashTree maps every file under root to its content hash.
func hashTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		out[filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// campaignDigest reduces a delivered campaign to the byte stream the
// analysis consumes: experiment identity plus, per packet, the
// normalized lengths, timestamps, endpoints and payload — everything
// feature extraction reads, nothing the link framing may legitimately
// change (destination MACs, tag bytes).
func campaignDigest(t *testing.T, c Campaign) string {
	t.Helper()
	h := sha256.New()
	if src, ok := c.(*ingest.Source); ok && src.SingleDecode() {
		src.RunSingleDecode(digestSink{h})
	} else {
		visit := func(exp *testbed.Experiment) { digestExperiment(h, exp) }
		c.RunControlled(visit)
		c.RunIdle(visit)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestExperiment(w io.Writer, exp *testbed.Experiment) {
	num := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		w.Write(b[:])
	}
	fmt.Fprintf(w, "%s|%v|%s|%s|%s|%s|", exp.Lab, exp.VPN, exp.Column,
		exp.Device.ID(), exp.Kind, exp.Activity)
	num(exp.Start.UnixNano())
	num(exp.End.UnixNano())
	num(int64(len(exp.Packets)))
	for _, p := range exp.Packets {
		num(p.Meta.Timestamp.UnixNano())
		num(int64(p.Meta.Length))
		num(int64(p.Meta.CaptureLength))
		w.Write(p.Eth.Src[:])
		if src, ok := p.NetworkSrc(); ok {
			w.Write([]byte(src.String()))
		}
		if dst, ok := p.NetworkDst(); ok {
			w.Write([]byte(dst.String()))
		}
		if sp, dp, proto, ok := p.TransportPorts(); ok {
			num(int64(sp))
			num(int64(dp))
			num(int64(proto))
		}
		w.Write(p.Payload)
	}
}

// digestSink hashes a fold pass into the byte stream the serial legs
// produce: each unit digests its run into a private buffer while the
// payloads are still mapped, and the serial merge appends the buffers
// in campaign order, controlled leg first.
type digestSink struct{ w io.Writer }

type digestUnit struct{ buf bytes.Buffer }

func (digestSink) NewFoldUnit(bool) experiments.FoldUnit { return &digestUnit{} }

func (s digestSink) MergeFoldUnit(_ bool, u experiments.FoldUnit) {
	s.w.Write(u.(*digestUnit).buf.Bytes())
}

func (u *digestUnit) Fold(exp *testbed.Experiment) { digestExperiment(&u.buf, exp) }

func openAdapter(t *testing.T, dir string, a Adapter, opts ingest.Options) *ingest.Source {
	t.Helper()
	opts.Layout = a.Layout()
	src, err := ingest.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestRegistry(t *testing.T) {
	want := []string{"pcapng", "sll-gateway", "vlan-trunk"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		a, err := ByName(name)
		if err != nil || a.Name() != name || a.Description() == "" {
			t.Fatalf("ByName(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown adapter") {
		t.Fatalf("ByName(nope) = %v", err)
	}
}

// TestAdapterRoundTrip holds every adapter to the export identity:
// Export→Open→Export reproduces the foreign tree byte-for-byte, for any
// ingest worker count.
func TestAdapterRoundTrip(t *testing.T) {
	r := tinyRunner(t)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			first := t.TempDir()
			if err := a.Export(first, r); err != nil {
				t.Fatal(err)
			}
			want := hashTree(t, first)
			if len(want) == 0 {
				t.Fatal("adapter exported nothing")
			}

			for _, workers := range []int{1, 3} {
				src := openAdapter(t, first, a, ingest.Options{Workers: workers})
				second := t.TempDir()
				if err := a.Export(second, src); err != nil {
					t.Fatal(err)
				}
				if got := hashTree(t, second); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: re-exported tree differs from original (%d vs %d files)",
						workers, len(got), len(want))
				}
				if rep := src.Report(); rep.Skips != (ingest.SkipReport{}) {
					t.Fatalf("workers=%d: adapter ingest skipped content: %s", workers, rep)
				}
			}
		})
	}
}

// TestAdapterMatchesNativeIngest is the cross-format identity: the same
// campaign exported through any adapter and ingested back yields exactly
// the analysis-visible stream the native export does — per packet and
// per experiment — across worker counts, dispatch permutations, and
// both ingest shapes.
func TestAdapterMatchesNativeIngest(t *testing.T) {
	r := tinyRunner(t)
	native := t.TempDir()
	if err := ingest.Export(native, r); err != nil {
		t.Fatal(err)
	}
	nativeSrc, err := ingest.Open(native, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := campaignDigest(t, nativeSrc)

	shapes := []struct {
		name string
		opts ingest.Options
	}{
		{"buffered-w1", ingest.Options{Workers: 1}},
		{"buffered-w5-shuffled", ingest.Options{Workers: 5, DispatchSeed: 7}},
		{"fold-w2", ingest.Options{Workers: 2, Stream: true}},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := a.Export(dir, r); err != nil {
				t.Fatal(err)
			}
			for _, shape := range shapes {
				src := openAdapter(t, dir, a, shape.opts)
				if got := campaignDigest(t, src); got != want {
					t.Errorf("%s: adapter campaign diverges from native ingest", shape.name)
				}
				rep := src.Report()
				if rep.Skips != (ingest.SkipReport{}) {
					t.Errorf("%s: skipped content: %s", shape.name, rep)
				}
				switch name {
				case "vlan-trunk":
					if rep.VLANRecords != rep.Records || rep.SLLRecords != 0 {
						t.Errorf("%s: link tally = %d VLAN + %d SLL of %d records",
							shape.name, rep.VLANRecords, rep.SLLRecords, rep.Records)
					}
				case "sll-gateway":
					if rep.SLLRecords != rep.Records || rep.VLANRecords != 0 {
						t.Errorf("%s: link tally = %d VLAN + %d SLL of %d records",
							shape.name, rep.VLANRecords, rep.SLLRecords, rep.Records)
					}
				case "pcapng":
					if rep.SLLRecords == 0 || rep.SLLRecords >= rep.Records {
						t.Errorf("%s: pcapng mix = %d SLL of %d records",
							shape.name, rep.SLLRecords, rep.Records)
					}
				}
			}
		})
	}
}

// TestDetect sniffs each adapter's tree back to its adapter, and errors
// on a tree nobody claims.
func TestDetect(t *testing.T) {
	r := tinyRunner(t)
	for _, name := range Names() {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := a.Export(dir, r); err != nil {
			t.Fatal(err)
		}
		got, err := Detect(dir)
		if err != nil || got.Name() != name {
			t.Fatalf("Detect(%s tree) = %v, %v", name, got, err)
		}
	}
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, "readme.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Detect(empty); err == nil {
		t.Fatal("Detect on an unrecognized tree should error")
	}
}
