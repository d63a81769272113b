// Package dataset adapts foreign capture-dataset conventions onto the
// ingest campaign model, in both directions.
//
// An Adapter pairs an ingest.Layout — which teaches ingest.Open a
// foreign tree's discovery, labeling and device-identity conventions —
// with an Export that writes a campaign in that same foreign shape. The
// built-in adapters cover the three framings a public IoT dataset is
// likely to arrive in:
//
//   - "pcapng": multi-interface pcapng sections (an Ethernet tap plus a
//     Linux cooked tap), little-endian for the US lab and big-endian for
//     the UK lab, in the native directory convention.
//   - "vlan-trunk": classic pcaps recorded on a monitoring trunk port,
//     every frame 802.1Q-tagged per lab (QinQ on VPN legs), flat
//     "<lab>__<device>" directories with label schedules under
//     "schedules/".
//   - "sll-gateway": classic DLT-113 (Linux cooked) pcaps as written by
//     `tcpdump -i any` on the gateway, with label sidecars under
//     "annotations/".
//
// Because every adapter synthesizes its own fixtures, two identities are
// testable and tested: Export→Open→Export reproduces the foreign tree
// byte-for-byte, and ingesting an adapter's tree yields report tables
// byte-identical to the native ingest of the same campaign — for any
// worker count, any dispatch order, and both ingest shapes (buffered,
// single-decode fold).
//
// Adapters self-register in init; ByName and Detect resolve them, and
// moniotr exposes them through the -dataset flag. docs/DATASETS.md walks
// through authoring a new adapter.
package dataset
