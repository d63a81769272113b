// Package pcapio reads and writes classic libpcap capture files
// (https://wiki.wireshark.org/Development/LibpcapFileFormat), the format
// tcpdump produced on the Mon(IoT)r gateways, and pcapng, the block-based
// successor most public IoT datasets ship in. For classic files both
// microsecond (0xa1b2c3d4) and nanosecond (0xa1b23c4d) variants are
// supported, as is byte-swapped reading for files written on
// opposite-endian machines.
//
// pcapng support covers what foreign captures actually contain: Section
// Header Blocks in either byte order (a file may even switch endianness
// at a section boundary), Interface Description Blocks with per-interface
// link types (Ethernet and linux-SLL are the ones the pipeline decodes),
// snap lengths and if_tsresol timestamp resolutions (any power of 10 up
// to 10^-15, any power of 2 up to 2^-32, converted with exact integer
// arithmetic), Enhanced and Simple Packet Blocks, and graceful skipping
// of statistics/name-resolution/unknown blocks. NewReader, NewReaderBytes
// and OpenFile sniff the format from the first four bytes, so every
// caller gets both formats for free; Record.Link carries the pcapng
// per-interface link type (0 = the file-level LinkType) so mixed-link
// captures decode per packet. NGWriter writes a canonical single-section
// pcapng form — same options and records, same bytes — which is what the
// dataset-adapter round-trip identity tests rely on.
//
// The write path is built for campaign-scale export: WritePacket stages
// each record's header and payload into one buffer so a partial write
// can never desynchronize the stream from Count(), and WriteBatch
// coalesces whole pre-serialized experiments into large record-aligned
// chunks that bypass the bufio copy entirely. For the single-decode
// ingest path, OpenFile memory-maps a capture (with an os.ReadFile fallback on
// platforms without mmap) and NewReaderBytes decodes records zero-copy
// straight off the mapping — record slices are capacity-capped so an
// append can never write into the read-only backing store.
//
// The package also implements the label sidecar files the testbed uses to
// mark which experiment produced a window of traffic (§3.2 of the paper).
package pcapio
