// Package ingest feeds on-disk Mon(IoT)r capture directories into the
// analysis pipeline, replacing the in-process synthesis runner with real
// (or exported) gateway recordings.
//
// The paper's testbed (§3.2) captures "all network traffic sent and
// received by each device" at the gateway, one rolling pcap per device
// MAC, and tags every controlled experiment with its start/end time and
// activity label. This package consumes exactly that artefact layout:
//
//	<root>/.../<lab>/<device>/<n>.pcap     packet capture (classic pcap)
//	<root>/.../<lab>/<device>/<n>.labels   experiment windows (sidecar)
//
// Foreign corpora that deviate from that convention — other directory
// trees, other capture suffixes, other label formats — plug in through
// Options.Layout (the Layout interface); internal/dataset registers
// ready-made layouts for pcapng, 802.1Q trunk and Linux cooked (SLL)
// corpora. Capture containers may be classic pcap (either endianness,
// µs or ns) or pcapng, and frames may be plain Ethernet, 802.1Q/QinQ
// tagged, or Linux cooked: netx.DecodeLink normalizes capture metadata
// to Ethernet-equivalent lengths so size features never depend on the
// framing (tag/SLL records are tallied in Report.VLANRecords and
// Report.SLLRecords).
//
// Each capture is decoded through internal/pcapio and internal/netx,
// its owning device is identified — by exact catalog MAC, then by the
// device-asserted DHCP/mDNS/SSDP hostname, vendor OUI or DNS fingerprint
// (internal/analysis.IdentifyCapture), and finally by the directory name
// — and its packets are sliced into the labelled experiment windows. The
// result is a stream of *testbed.Experiment values delivered through the
// analysis.Source interface, indistinguishable to the pipeline from a
// synthesized campaign.
//
// # Ordering and fidelity
//
// Analyses must not depend on which worker parsed which file, and the
// random-forest training is sensitive to dataset row order, so delivery
// order is made deterministic: experiments are sorted by (lab, vpn leg,
// device catalog position, capture path, window start) — the same order
// the synthesis runner emits. Re-ingesting a directory written by Export
// therefore reproduces the direct pipeline's tables byte for byte.
//
// Two delivery shapes realize that order with different memory
// profiles:
//
//   - Buffered (the default): every file is parsed once with bounded
//     parallelism, the decoded experiments are sorted and then replayed
//     through RunControlled and RunIdle. Peak memory is the whole
//     campaign, same as the collectors themselves at synthesis time.
//
//   - Single-decode streaming (Options.Stream): for consumers that
//     implement experiments.FoldSink — the analysis pipeline's
//     order-tolerant collectors — each decode worker memory-maps a file
//     (pcapio.OpenFile), decodes it exactly once, folds its experiments
//     into per-run accumulators in campaign order as they decode, and
//     unmaps; the accumulators then merge serially in campaign order,
//     reproducing serial delivery byte for byte. Peak memory is the
//     files in flight plus the accumulators, never the campaign; see
//     fold.go for the contiguity argument.
//
// A Stream source offers the fold pass only until it is read some other
// way: driving it through RunControlled/RunIdle, or asking for its
// Report before RunSingleDecode, runs the buffered load instead (the
// pipeline checks SingleDecode first, so Report after Run is safe).
//
// Delivery order, stats, Report and all downstream tables are
// byte-identical across both shapes, for any worker count.
//
// # Resilience
//
// Real capture trees are messy: tcpdump dies mid-record, devices get
// replaced with different MACs, label files go missing. None of that
// aborts ingestion. Truncated pcaps keep their decoded prefix,
// unidentifiable and unlabeled traffic is dropped, and every skip is
// counted by reason in the Report and the attached obs registry, so a
// lossy run is visible instead of silent.
//
// With Options.InferLabels, unlabeled traffic is attributed instead of
// dropped: the identification evidence above names the device, a
// synthetic idle window (activity "inferred") covers the attributed
// packets, and each attribution is reported per device with its method
// and confidence tier — mac/hostname high, oui/path medium, dns low —
// in Report.Inferred and the LabelTable. Report.Strict still fails on
// inferred labels; they are attributions, not ground truth.
package ingest
