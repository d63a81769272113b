package ingest

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/par"
	"github.com/neu-sns/intl-iot-go/internal/pcapio"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// Options configure a capture-directory source.
type Options struct {
	// Workers bounds the per-file parse parallelism (0 = GOMAXPROCS).
	Workers int
	// Catalog lists the candidate device instances; nil means the full
	// two-lab catalog (devices.Instances()).
	Catalog []*devices.Instance
	// Internet overrides the simulated server-side model handed to the
	// pipeline; nil builds a fresh cloud.New(), which is
	// allocation-deterministic and therefore matches the model the
	// captures were synthesized against.
	Internet *cloud.Internet
	// Stream offers the single-decode fold pass (fold.go) to a
	// fold-capable consumer: the analysis pipeline absorbs each file's
	// experiments as they decode, so memory stays bounded by the files
	// in flight rather than the campaign. Every table is byte-identical
	// to buffered mode. A Stream source read any other way — through
	// RunControlled/RunIdle, or Report before the fold pass — loads
	// buffered.
	Stream bool
	// DispatchSeed, when non-zero, shuffles the order files are handed
	// to the decode workers (buffered load and fold pass alike). Every
	// downstream table is byte-identical for any seed — the knob exists
	// so tests can prove that.
	DispatchSeed int64
	// Layout maps a foreign capture tree's conventions (file naming,
	// label storage, device hints) onto the campaign model; nil means
	// the native Mon(IoT)r convention. See Layout and internal/dataset.
	Layout Layout
	// InferLabels attributes unlabeled traffic instead of skipping it:
	// captures without usable experiment windows (and the unclaimed tail
	// of partially labeled ones) become synthesized idle windows,
	// attributed by the same MAC/hostname/OUI/DNS evidence tiers the
	// identifier uses and tallied per device with a confidence grade in
	// Report.Inferred. Off by default: inference trades ground truth for
	// coverage, and strict mode flags whatever it admits.
	InferLabels bool
}

// SkipReport counts traffic dropped during ingestion, by reason.
type SkipReport struct {
	// TruncatedFiles is the number of pcaps that ended mid-record; their
	// decoded prefix is kept.
	TruncatedFiles int
	// UnknownDevice is the number of pcaps whose owning device could not
	// be identified against the catalog.
	UnknownDevice int
	// UnlabeledPackets counts packets falling outside every labelled
	// experiment window (including windows with unusable labels).
	UnlabeledPackets int
	// DecodeErrors counts records that did not parse as Ethernet frames.
	DecodeErrors int
	// BadFiles counts files that are not readable pcaps at all.
	BadFiles int
}

// Report summarizes one ingestion run.
type Report struct {
	Files       int
	Records     int
	Bytes       int64
	Experiments int
	Skips       SkipReport
	// VLANRecords and SLLRecords count records that arrived with 802.1Q
	// tags or linux-SLL framing — foreign capture shapes the decoder
	// normalized to the Ethernet-equivalent view.
	VLANRecords int
	SLLRecords  int
	// Inferred tallies label inference per (device, method), sorted;
	// empty unless Options.InferLabels attributed something.
	Inferred []InferredLabel
}

// InferredPackets is the total number of packets that carry an inferred
// rather than ground-truth label.
func (r Report) InferredPackets() int {
	n := 0
	for _, l := range r.Inferred {
		n += l.Packets
	}
	return n
}

// String renders the report compactly for log output.
func (r Report) String() string {
	s := fmt.Sprintf(
		"%d files, %d records (%s) -> %d experiments; skipped: %d truncated, %d unknown-device, %d unlabeled pkts, %d undecodable, %d bad files",
		r.Files, r.Records, obs.HumanBytes(r.Bytes), r.Experiments,
		r.Skips.TruncatedFiles, r.Skips.UnknownDevice, r.Skips.UnlabeledPackets,
		r.Skips.DecodeErrors, r.Skips.BadFiles)
	if len(r.Inferred) > 0 {
		var parts []string
		for _, l := range r.Inferred {
			parts = append(parts, fmt.Sprintf("%s %d pkts/%d win (%s, %s)",
				l.Device, l.Packets, l.Windows, l.Method, l.Confidence))
		}
		s += "; inferred labels: " + strings.Join(parts, ", ")
	}
	return s
}

// Strict returns an error when the run skipped anything CI should not
// silently accept — truncated files, unidentifiable devices, unlabeled
// packets, undecodable records or unreadable files — listing every
// non-zero reason with its count. cmd/moniotr's -strict flag promotes
// this to a non-zero exit.
func (r Report) Strict() error {
	var parts []string
	add := func(n int, reason string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, reason))
		}
	}
	add(r.Skips.TruncatedFiles, "truncated file(s)")
	add(r.Skips.UnknownDevice, "unknown-device file(s)")
	add(r.Skips.UnlabeledPackets, "unlabeled packet(s)")
	add(r.Skips.DecodeErrors, "undecodable record(s)")
	add(r.Skips.BadFiles, "unreadable file(s)")
	// Inferred labels are admitted traffic, but not ground truth: CI
	// runs that demand fully labeled input must fail on them too.
	add(r.InferredPackets(), "inferred-label packet(s)")
	if len(parts) == 0 {
		return nil
	}
	return fmt.Errorf("ingest: strict mode: skipped %s", strings.Join(parts, ", "))
}

// Source replays a capture directory as an experiment stream. It
// implements analysis.Source; hand it to analysis.NewPipeline (or
// intliot.NewStudyFromSource) in place of the synthesis runner. Each
// Run* method delivers its experiments once: like a capture tape, the
// source is consumed as it plays.
type Source struct {
	root     string
	opts     Options
	layout   Layout
	internet *cloud.Internet
	catalog  []*devices.Instance
	files    []string // root-relative capture paths, lexically sorted

	metrics *obs.Registry

	once    sync.Once
	started atomic.Bool // set once any ingestion pass has begun
	report  Report

	// The buffered campaign, split by leg.
	controlled []*entry
	idle       []*entry

	slots map[string]slotPos
}

var _ analysis.Source = (*Source)(nil)

// entry is one buffered experiment plus its replay-order key.
type entry struct {
	exp *testbed.Experiment
	key sortKey
}

// sortKey reproduces the synthesis runner's delivery order: labs in
// catalog order, the plain leg before the VPN leg, devices in catalog
// order, then capture position (files are numbered in recording order,
// windows ordered by start time within a file).
type sortKey struct {
	lab    int
	vpn    int
	slot   int
	dir    string
	file   string
	window int
}

func (a sortKey) less(b sortKey) bool {
	switch {
	case a.lab != b.lab:
		return a.lab < b.lab
	case a.vpn != b.vpn:
		return a.vpn < b.vpn
	case a.slot != b.slot:
		return a.slot < b.slot
	case a.dir != b.dir:
		return a.dir < b.dir
	case a.file != b.file:
		return a.file < b.file
	}
	return a.window < b.window
}

// Open scans root for capture files (as defined by Options.Layout; the
// default is the native ".pcap" convention). It fails only when the
// directory itself is unusable or holds no captures at all; per-file
// problems are deferred to ingestion, where they are counted and
// skipped.
func Open(root string, opts Options) (*Source, error) {
	s := &Source{root: root, opts: opts, layout: opts.Layout}
	if s.layout == nil {
		s.layout = nativeLayout{}
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if s.layout.IsCapture(filepath.ToSlash(rel)) {
			s.files = append(s.files, rel)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if len(s.files) == 0 {
		return nil, fmt.Errorf("ingest: no capture files under %s", root)
	}
	sort.Strings(s.files)
	s.internet = opts.Internet
	if s.internet == nil {
		s.internet = cloud.New()
	}
	s.catalog = opts.Catalog
	if s.catalog == nil {
		s.catalog = devices.Instances()
	}
	s.slots = slotIndex(s.catalog)
	return s, nil
}

// Internet exposes the server-side model for the destination analysis.
func (s *Source) Internet() *cloud.Internet { return s.internet }

// SetObs attaches a metrics registry. Call before the first Run*; the
// load pass records files/records/bytes, per-file decode latency and
// per-reason skip counts under the ingest_* names.
func (s *Source) SetObs(reg *obs.Registry) { s.metrics = reg }

// Report returns the ingestion counts. If no ingestion pass has run
// yet it runs the buffered load, so the counts always cover the whole
// tree; call it after RunSingleDecode to keep a Stream source's fold
// pass.
func (s *Source) Report() Report {
	s.prepare()
	return s.report
}

// RunControlled replays the controlled (power + interaction) experiments
// in campaign order.
func (s *Source) RunControlled(visit experiments.Visitor) experiments.Stats {
	s.prepare()
	return s.replay(s.controlled, visit)
}

// RunIdle replays the idle capture windows in campaign order.
func (s *Source) RunIdle(visit experiments.Visitor) experiments.Stats {
	s.prepare()
	return s.replay(s.idle, visit)
}

func (s *Source) replay(entries []*entry, visit experiments.Visitor) experiments.Stats {
	var stats experiments.Stats
	expTotal := s.metrics.Counter("experiments_total")
	for i, e := range entries {
		if e == nil {
			continue
		}
		account(&stats, e.exp)
		expTotal.Inc()
		visit(e.exp)
		entries[i] = nil // the tape is consumed as it plays
	}
	return stats
}

// account folds one delivered experiment into the replay stats, exactly
// the way the synthesis runner counts its own deliveries.
func account(stats *experiments.Stats, exp *testbed.Experiment) {
	stats.Experiments++
	switch exp.Kind {
	case testbed.KindPower:
		stats.Power++
	case testbed.KindInteraction:
		if experiments.ActivityAutomated(exp.Device, exp.Activity) {
			stats.Automated++
		} else {
			stats.Manual++
		}
	}
	stats.Packets += int64(len(exp.Packets))
	stats.Bytes += int64(exp.Bytes())
}

// fileResult carries one worker's output back to the merge step.
type fileResult struct {
	entries []*entry
	report  Report
}

// prepare runs the buffered load once, unless the fold pass already
// consumed the source.
func (s *Source) prepare() {
	s.once.Do(func() {
		s.started.Store(true)
		s.loadBuffered()
	})
}

// dispatchOrder returns the file list in worker-dispatch order: the
// lexical order by default, or a seeded shuffle when
// Options.DispatchSeed asks for one.
func (s *Source) dispatchOrder() []string {
	if s.opts.DispatchSeed == 0 {
		return s.files
	}
	out := append([]string(nil), s.files...)
	rng := rand.New(rand.NewSource(s.opts.DispatchSeed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// loadBuffered parses every capture file once, with bounded parallelism,
// then sorts the buffered experiments into campaign replay order.
func (s *Source) loadBuffered() {
	decodeH := s.metrics.Histogram("ingest_file_decode_seconds", obs.DurationBuckets)
	var all []*entry
	for _, res := range decodePass(s, func(rel string) fileResult {
		t0 := time.Now()
		res := s.parseFile(rel)
		decodeH.ObserveDuration(time.Since(t0))
		return res
	}) {
		addReport(&s.report, res.report)
		all = append(all, res.entries...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key.less(all[j].key) })
	for _, e := range all {
		switch e.exp.Kind {
		case testbed.KindIdle:
			s.idle = append(s.idle, e)
		default:
			s.controlled = append(s.controlled, e)
		}
	}
	s.publishReport()
}

// decodePass is the one decode pass both shapes make: it decodes every
// capture file on a bounded worker pool, handing files out in dispatch
// order, and returns the results in that same order, one slot per file.
func decodePass[R any](s *Source, decode func(rel string) R) []R {
	s.metrics.Counter("ingest_decode_passes_total").Inc()
	files := s.dispatchOrder()
	out := make([]R, len(files))
	par.For(len(files), par.Workers(s.opts.Workers), func(i int) { out[i] = decode(files[i]) })
	return out
}

// addReport folds one per-file report into a running total.
func addReport(dst *Report, src Report) {
	dst.Files += src.Files
	dst.Records += src.Records
	dst.Bytes += src.Bytes
	dst.Experiments += src.Experiments
	dst.Skips.TruncatedFiles += src.Skips.TruncatedFiles
	dst.Skips.UnknownDevice += src.Skips.UnknownDevice
	dst.Skips.UnlabeledPackets += src.Skips.UnlabeledPackets
	dst.Skips.DecodeErrors += src.Skips.DecodeErrors
	dst.Skips.BadFiles += src.Skips.BadFiles
	dst.VLANRecords += src.VLANRecords
	dst.SLLRecords += src.SLLRecords
	dst.Inferred = mergeInferred(dst.Inferred, src.Inferred)
}

// publishReport mirrors the final ingestion counts into the metrics
// registry, once, after the buffered load or fold pass completes.
func (s *Source) publishReport() {
	s.metrics.Counter("ingest_files_total").Add(int64(s.report.Files))
	s.metrics.Counter("ingest_records_total").Add(int64(s.report.Records))
	s.metrics.Counter("ingest_bytes_total").Add(s.report.Bytes)
	s.metrics.Counter("ingest_experiments_total").Add(int64(s.report.Experiments))
	s.metrics.Counter("ingest_skips.truncated").Add(int64(s.report.Skips.TruncatedFiles))
	s.metrics.Counter("ingest_skips.unknown_device").Add(int64(s.report.Skips.UnknownDevice))
	s.metrics.Counter("ingest_skips.unlabeled").Add(int64(s.report.Skips.UnlabeledPackets))
	s.metrics.Counter("ingest_skips.decode").Add(int64(s.report.Skips.DecodeErrors))
	s.metrics.Counter("ingest_skips.bad_file").Add(int64(s.report.Skips.BadFiles))
	s.metrics.Counter("ingest_link_records.vlan").Add(int64(s.report.VLANRecords))
	s.metrics.Counter("ingest_link_records.sll").Add(int64(s.report.SLLRecords))
	s.metrics.Counter("ingest_labels_inferred_total").Add(int64(s.report.InferredPackets()))
	var infWindows int
	for _, l := range s.report.Inferred {
		infWindows += l.Windows
	}
	s.metrics.Counter("ingest_labels_inferred_windows_total").Add(int64(infWindows))
}

// slotPos locates an instance in the campaign order: lab index in
// catalog lab order, slot index in the lab's device order.
type slotPos struct{ lab, slot int }

func slotIndex(catalog []*devices.Instance) map[string]slotPos {
	out := make(map[string]slotPos, len(catalog))
	for labIdx, lab := range []string{devices.LabUS, devices.LabUK} {
		slot := 0
		for _, inst := range catalog {
			if inst.Lab != lab {
				continue
			}
			out[inst.ID()] = slotPos{lab: labIdx, slot: slot}
			slot++
		}
	}
	return out
}

// parseFile ingests one capture: decode, identify, slice into windows.
// Every failure mode is a counted skip; parseFile never aborts the run.
func (s *Source) parseFile(rel string) fileResult {
	var res fileResult
	res.report.Files = 1

	f, err := os.Open(filepath.Join(s.root, rel))
	if err != nil {
		res.report.Skips.BadFiles++
		return res
	}
	defer f.Close()
	rd, err := pcapio.NewReader(f)
	if err != nil {
		res.report.Skips.BadFiles++
		return res
	}
	s.decodeCapture(&res, rel, rd)
	return res
}

// parseFileMapped is parseFile over a memory-mapped (or, where mapping
// is unavailable, whole-file) read: records and packet payloads alias
// the backing store zero-copy. The returned release function unmaps it
// and must not be called until every decoded experiment has been fully
// consumed; a nil release accompanies an unreadable file.
func (s *Source) parseFileMapped(rel string) (fileResult, func()) {
	var res fileResult
	res.report.Files = 1

	f, err := pcapio.OpenFile(filepath.Join(s.root, rel))
	if err != nil {
		res.report.Skips.BadFiles++
		return res, nil
	}
	mappedBytes := s.metrics.Gauge("ingest_mmap_mapped_bytes")
	if f.Mapped() {
		s.metrics.Counter("ingest_mmap_files_total").Inc()
		s.metrics.Counter("ingest_mmap_bytes_total").Add(f.Size())
		mappedBytes.Add(float64(f.Size()))
	}
	s.decodeCapture(&res, rel, f.Reader)
	size, mapped := f.Size(), f.Mapped()
	release := func() {
		if mapped {
			mappedBytes.Add(-float64(size))
		}
		f.Close()
	}
	return res, release
}

// decodeCapture runs the shared decode-identify-slice body of a parse:
// it drains rd into packets, then windows them by the sidecar labels.
// It is deterministic in rel and the file bytes alone — the property
// fold merging rests on.
func (s *Source) decodeCapture(res *fileResult, rel string, rd *pcapio.Reader) {
	var pkts []*netx.Packet
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Any mid-stream failure ends the file but keeps the decoded
			// prefix; truncation gets its own reason, other framing
			// corruption counts as a bad file.
			if _, ok := err.(*pcapio.ErrTruncated); ok {
				res.report.Skips.TruncatedFiles++
			} else {
				res.report.Skips.BadFiles++
			}
			break
		}
		res.report.Records++
		res.report.Bytes += int64(len(rec.Data))
		link := rec.Link
		if link == 0 {
			link = rd.LinkType()
		}
		p, err := netx.DecodeLink(rec.Time, rec.Data, link)
		if err != nil {
			res.report.Skips.DecodeErrors++
			continue
		}
		// DecodeLink normalizes CaptureLength to the frame's
		// Ethernet-equivalent size; apply the same framing overhead to the
		// original wire length so size features over VLAN/SLL captures
		// match the same traffic captured natively.
		overhead := len(rec.Data) - p.Meta.CaptureLength
		if n := rec.OrigLen - overhead; n >= 0 {
			p.Meta.Length = n
		} else {
			p.Meta.Length = 0 // corrupt header: OrigLen below the framing
		}
		if p.SLL != nil {
			res.report.SLLRecords++
		} else if len(p.Eth.VLAN) > 0 {
			res.report.VLANRecords++
		}
		pkts = append(pkts, p)
	}

	labels := s.readLabels(rel)
	if len(labels) == 0 {
		if s.opts.InferLabels && len(pkts) > 0 {
			s.inferWindows(res, rel, pkts, nil, 0)
			return
		}
		// A capture without experiment windows contributes nothing.
		res.report.Skips.UnlabeledPackets += len(pkts)
		return
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Start.Before(labels[j].Start) })

	inst, method := s.identify(rel, pkts)
	if inst == nil {
		res.report.Skips.UnknownDevice++
		return
	}
	pos, ok := s.slots[inst.ID()]
	if !ok {
		res.report.Skips.UnknownDevice++
		return
	}

	dir, file := filepath.Split(rel)
	claimed := make([]bool, len(pkts))
	for wi, l := range labels {
		kind, ok := labelKind(l.Experiment)
		if !ok {
			continue // counted below with the window's packets
		}
		var window []*netx.Packet
		for i, p := range pkts {
			if !claimed[i] && l.Contains(p.Meta.Timestamp) {
				claimed[i] = true
				window = append(window, p)
			}
		}
		vpn := l.Tag("vpn") == "1"
		res.entries = append(res.entries, &entry{
			exp: &testbed.Experiment{
				Lab:      inst.Lab,
				VPN:      vpn,
				Column:   column(inst.Lab, vpn),
				Device:   inst,
				Kind:     kind,
				Activity: l.Activity,
				Start:    l.Start,
				End:      l.End,
				Packets:  window,
			},
			key: sortKey{lab: pos.lab, vpn: b2i(vpn), slot: pos.slot, dir: dir, file: file, window: wi},
		})
		res.report.Experiments++
	}
	var unclaimed []*netx.Packet
	for i, c := range claimed {
		if !c {
			unclaimed = append(unclaimed, pkts[i])
		}
	}
	if len(unclaimed) > 0 {
		if s.opts.InferLabels {
			// The device is already known from the labeled windows; the
			// unclaimed tail becomes one inferred idle window after them.
			s.inferredEntry(res, rel, unclaimed, inst, method, len(labels))
			return
		}
		res.report.Skips.UnlabeledPackets += len(unclaimed)
	}
}

// inferWindows attributes a fully unlabeled capture: identification
// evidence picks the device, and the packets become one synthesized idle
// window spanning their time range.
func (s *Source) inferWindows(res *fileResult, rel string, pkts []*netx.Packet, known *devices.Instance, windowBase int) {
	inst, method := known, ""
	if inst == nil {
		inst, method = s.identify(rel, pkts)
	}
	if inst == nil {
		res.report.Skips.UnknownDevice++
		res.report.Skips.UnlabeledPackets += len(pkts)
		return
	}
	s.inferredEntry(res, rel, pkts, inst, method, windowBase)
}

// inferredEntry appends one synthesized idle window holding pkts,
// attributed to inst by method, and tallies it in the report.
func (s *Source) inferredEntry(res *fileResult, rel string, pkts []*netx.Packet, inst *devices.Instance, method string, windowBase int) {
	pos, ok := s.slots[inst.ID()]
	if !ok {
		res.report.Skips.UnknownDevice++
		res.report.Skips.UnlabeledPackets += len(pkts)
		return
	}
	start, end := pkts[0].Meta.Timestamp, pkts[0].Meta.Timestamp
	for _, p := range pkts[1:] {
		if p.Meta.Timestamp.Before(start) {
			start = p.Meta.Timestamp
		}
		if p.Meta.Timestamp.After(end) {
			end = p.Meta.Timestamp
		}
	}
	dir, file := filepath.Split(rel)
	res.entries = append(res.entries, &entry{
		exp: &testbed.Experiment{
			Lab:      inst.Lab,
			Column:   column(inst.Lab, false),
			Device:   inst,
			Kind:     testbed.KindIdle,
			Activity: "inferred",
			Start:    start,
			End:      end.Add(time.Nanosecond),
			Packets:  pkts,
		},
		key: sortKey{lab: pos.lab, slot: pos.slot, dir: dir, file: file, window: windowBase},
	})
	res.report.Experiments++
	res.report.Inferred = mergeInferred(res.report.Inferred, []InferredLabel{{
		Device:     inst.ID(),
		Method:     method,
		Confidence: inferConfidence(method),
		Packets:    len(pkts),
		Windows:    1,
	}})
}

// readLabels loads a capture's labels through the layout; a missing or
// unreadable sidecar is the same as an unlabeled capture.
func (s *Source) readLabels(rel string) []pcapio.Label {
	labels, err := s.layout.Labels(s.root, filepath.ToSlash(rel))
	if err != nil {
		return nil
	}
	return labels
}

// identify resolves a capture file to its device and the method that
// decided it: traffic evidence first (exact MAC, asserted hostname, OUI,
// DNS fingerprint), then the layout's device hint — the Mon(IoT)r
// "<lab>/<device>/" convention by default — as a last resort, needed for
// idle windows of devices quiet enough to emit nothing.
func (s *Source) identify(rel string, pkts []*netx.Packet) (*devices.Instance, string) {
	hint := s.layout.DeviceHint(filepath.ToSlash(rel))
	catalog := s.catalog
	lab, scopedOK := labFromPath(rel)
	if !scopedOK && hint != "" {
		lab, scopedOK = labFromPath(hint)
	}
	if scopedOK {
		scoped := catalog[:0:0]
		for _, inst := range catalog {
			if inst.Lab == lab {
				scoped = append(scoped, inst)
			}
		}
		if len(scoped) > 0 {
			catalog = scoped
		}
	}
	if len(pkts) > 0 {
		if inst, method, err := analysis.IdentifyCapture(analysis.GatherCaptureEvidence(pkts), catalog); err == nil {
			return inst, method
		}
	}
	if hint != "" {
		for _, inst := range catalog {
			if inst.ID() == hint {
				return inst, "path"
			}
		}
	}
	return nil, ""
}

// labFromPath finds a lab directory segment ("us", "gb") in the path.
func labFromPath(rel string) (string, bool) {
	for _, seg := range strings.Split(filepath.ToSlash(rel), "/") {
		for _, lab := range []string{devices.LabUS, devices.LabUK} {
			if seg == strings.ToLower(lab) {
				return lab, true
			}
		}
	}
	return "", false
}

func labelKind(experiment string) (testbed.ExperimentKind, bool) {
	switch experiment {
	case string(testbed.KindPower):
		return testbed.KindPower, true
	case string(testbed.KindInteraction):
		return testbed.KindInteraction, true
	case string(testbed.KindIdle):
		return testbed.KindIdle, true
	}
	return "", false
}

// column names the table column for a lab leg, mirroring
// testbed.Lab.Column.
func column(lab string, vpn bool) string {
	if !vpn {
		return lab
	}
	if lab == devices.LabUS {
		return devices.LabUS + "->" + devices.LabUK
	}
	return devices.LabUK + "->" + devices.LabUS
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
