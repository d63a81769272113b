// Command pcapinfo inspects a capture the way the analysis pipeline
// sees it: container format (classic pcap or pcapng, either endianness,
// per-interface link types), per-packet summaries with 802.1Q and Linux
// cooked (SLL) framing decoded, flow rollups, per-flow encryption
// verdicts, and evidence of traffic-reshaping defenses (pad quantum,
// constant-rate shaping, cover flows, VPN tunneling). It also generates
// demo captures — optionally pre-reshaped — so the tool is usable
// without hardware.
//
// Usage:
//
//	pcapinfo capture.pcap                     # inspect a capture
//	pcapinfo -demo capture.pcap               # write a demo capture, then inspect it
//	pcapinfo -demo -reshape pad,dummy x.pcap  # demo capture behind a defense stack
//	pcapinfo -flows capture.pcap              # flow summary only
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/entropy"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/pcapio"
	"github.com/neu-sns/intl-iot-go/internal/reshape"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

func main() {
	demo := flag.Bool("demo", false, "first write a demo capture (Samsung TV power-on) to the given path")
	flowsOnly := flag.Bool("flows", false, "print only the flow summary")
	maxPackets := flag.Int("n", 20, "maximum packets to print (0 = all)")
	reshapeStack := flag.String("reshape", "", "with -demo: defense stack to apply before writing (comma-separated pad,shape,dummy,vpn)")
	reshapeSeed := flag.Int64("reshape-seed", 7, "with -demo -reshape: defense seed")
	reshapeBudget := flag.Float64("reshape-budget", 0.3, "with -demo -reshape: defense overhead budget in (0, 1]")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pcapinfo [-demo] [-reshape STACK [-reshape-seed N] [-reshape-budget F]] [-flows] [-n N] <file.pcap>")
		os.Exit(2)
	}
	path := flag.Arg(0)

	if *demo {
		if err := writeDemo(path, *reshapeStack, *reshapeSeed, *reshapeBudget); err != nil {
			fmt.Fprintf(os.Stderr, "pcapinfo: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pcapinfo: wrote demo capture to %s\n", path)
	}

	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapinfo: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	pr, err := pcapio.NewReader(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapinfo: %v\n", err)
		os.Exit(1)
	}
	recs, err := pr.ReadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapinfo: %v\n", err)
		os.Exit(1)
	}
	printFormat(pr)
	var pkts []*netx.Packet
	vlan, sll := 0, 0
	for _, rec := range recs {
		link := rec.Link
		if link == 0 {
			link = pr.LinkType()
		}
		p, err := netx.DecodeLink(rec.Time, rec.Data, link)
		if err != nil {
			continue // tolerate malformed frames like tcpdump does
		}
		overhead := len(rec.Data) - p.Meta.CaptureLength
		if p.Meta.Length = rec.OrigLen - overhead; p.Meta.Length < 0 {
			p.Meta.Length = 0
		}
		if p.SLL != nil {
			sll++
		} else if len(p.Eth.VLAN) > 0 {
			vlan++
		}
		pkts = append(pkts, p)
	}
	fmt.Printf("%d packets (%d vlan-tagged, %d linux-sll)\n", len(pkts), vlan, sll)

	if !*flowsOnly {
		for i, p := range pkts {
			if *maxPackets > 0 && i >= *maxPackets {
				fmt.Printf("... (%d more)\n", len(pkts)-i)
				break
			}
			fmt.Println(p)
		}
		fmt.Println()
	}

	flows := netx.AssembleFlows(pkts)
	fmt.Printf("%d flows\n", len(flows))
	var cls entropy.Classifier
	for _, fl := range flows {
		v := cls.Classify(fl, entropy.PaperThresholds)
		fmt.Printf("  %-46s %4d pkts %8d B  %-11s (%s)\n",
			fl.Key, len(fl.Packets), fl.TotalWireBytes(), v.Class, v.Method)
	}

	fmt.Println()
	printReshapeEvidence(pkts)
}

// printFormat summarizes the container before any packet is shown:
// classic pcap vs pcapng, byte order, timestamp resolution, and (for
// pcapng) the interface table with per-interface link types.
func printFormat(pr *pcapio.Reader) {
	order := "little-endian"
	if pr.BigEndian() {
		order = "big-endian"
	}
	if pr.PcapNG() {
		fmt.Printf("format: pcapng, %s\n", order)
		for i, ifc := range pr.Interfaces() {
			res := "µs"
			if ifc.Nanosecond {
				res = "ns"
			}
			fmt.Printf("  if%d: %s, snaplen %d, %s timestamps\n",
				i, linkName(ifc.LinkType), ifc.SnapLen, res)
		}
		return
	}
	res := "µs"
	if pr.Nanosecond() {
		res = "ns"
	}
	fmt.Printf("format: pcap, %s, %s, %s timestamps\n", order, linkName(pr.LinkType()), res)
}

func linkName(link uint32) string {
	switch link {
	case netx.LinkEthernet:
		return "ethernet (DLT 1)"
	case netx.LinkLinuxSLL:
		return "linux-sll (DLT 113)"
	default:
		return fmt.Sprintf("DLT %d", link)
	}
}

// printReshapeEvidence reports the wire signatures each reshape defense
// leaves behind: a common payload-length quantum (padding), a dominant
// constant inter-arrival gap (shaping), strippable unidirectional
// UDP/443 flows (cover traffic), and UDP/4500 NAT-T framing (VPN
// aggregation). On an undefended capture every signal reads absent.
func printReshapeEvidence(pkts []*netx.Packet) {
	fmt.Println("reshape evidence")

	// Padding: look for a length quantum — a q ≥ 32 such that most
	// payload lengths are multiples of q. Organic traffic has ~uniform
	// length diversity, so no large q covers a majority; a padded capture
	// quantizes to its bucket size even when other defenses (cover flows,
	// tunnel cells) add their own fixed sizes. DNS is skipped like the
	// pad transform does.
	total := 0
	hist := map[int]int{}
	for _, p := range pkts {
		if len(p.Payload) == 0 || (p.UDP != nil && (p.UDP.SrcPort == 53 || p.UDP.DstPort == 53)) {
			continue
		}
		total++
		hist[len(p.Payload)]++
	}
	quantum, covered := 0, 0
	for q := range hist {
		if q < 32 {
			continue
		}
		n := 0
		for l, c := range hist {
			if l%q == 0 {
				n += c
			}
		}
		if n > covered || (n == covered && q > quantum) {
			quantum, covered = q, n
		}
	}
	switch {
	case total == 0:
		fmt.Println("  padding: no payload-bearing packets")
	case quantum >= 32 && covered*2 >= total:
		fmt.Printf("  padding: DETECTED — %d/%d payloads quantized to %d B buckets (%d distinct lengths)\n",
			covered, total, quantum, len(hist))
	default:
		fmt.Printf("  padding: absent (best quantum %d B covers %d/%d payloads, %d distinct lengths)\n",
			quantum, covered, total, len(hist))
	}

	// Shaping: the share of inter-arrival gaps within 1 ms of the modal
	// gap. A constant-rate link pushes this toward 1; organic captures
	// stay low.
	if len(pkts) >= 3 {
		gaps := make([]int64, 0, len(pkts)-1)
		for i := 1; i < len(pkts); i++ {
			gaps = append(gaps, pkts[i].Meta.Timestamp.UnixNano()-pkts[i-1].Meta.Timestamp.UnixNano())
		}
		buckets := map[int64]int{}
		for _, g := range gaps {
			buckets[g/int64(1e6)]++ // 1 ms buckets
		}
		mode, modeN := int64(0), 0
		for b, n := range buckets {
			if n > modeN || (n == modeN && b < mode) {
				mode, modeN = b, n
			}
		}
		frac := float64(modeN) / float64(len(gaps))
		verdict := "absent"
		if frac >= 0.5 {
			verdict = "DETECTED"
		}
		fmt.Printf("  shaping: %s — %.0f%% of %d inter-arrival gaps in the modal 1 ms bucket (~%d ms)\n",
			verdict, 100*frac, len(gaps), mode)
	} else {
		fmt.Println("  shaping: too few packets to judge")
	}

	// Cover traffic: what the degrade pass would strip.
	if _, n := analysis.FilterCoverFlows(pkts); n > 0 {
		fmt.Printf("  cover flows: DETECTED — %d packets match the cover-traffic signature\n", n)
	} else {
		fmt.Println("  cover flows: absent")
	}

	// VPN aggregation: NAT-T framing share.
	if n := analysis.CountTunnelPackets(pkts); n > 0 {
		fmt.Printf("  vpn tunnel: DETECTED — %d/%d packets ride UDP/4500 NAT-T framing\n", n, len(pkts))
	} else {
		fmt.Println("  vpn tunnel: absent")
	}
}

// writeDemo synthesizes a Samsung TV power-on capture, optionally run
// through a reshape defense stack before hitting the pcap.
func writeDemo(path, stack string, seed int64, budget float64) error {
	lab, err := testbed.NewLab(devices.LabUS, cloud.New(), 1)
	if err != nil {
		return err
	}
	slot, ok := lab.Slot("Samsung TV")
	if !ok {
		return fmt.Errorf("Samsung TV missing from catalog")
	}
	exp := lab.RunPower(slot, false, testbed.StudyEpoch, 0)
	names, err := reshape.ParseStack(stack)
	if err != nil {
		return err
	}
	if len(names) != 0 {
		eng, err := reshape.New(reshape.Config{Stack: names, Seed: seed, Budget: budget})
		if err != nil {
			return err
		}
		eng.Transform(exp)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return testbed.WritePcap(f, exp)
}
