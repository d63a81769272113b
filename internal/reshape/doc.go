// Package reshape is the adversarial sibling of internal/faults: where
// faults degrade captures the way flaky networks do, reshape defends
// them the way privacy countermeasures do. It applies a declared stack
// of traffic-reshaping transforms — packet padding to length buckets,
// constant-rate inter-arrival shaping, seeded dummy-traffic injection,
// and VPN/NAT tunnel aggregation — to every experiment a source
// delivers, so the downstream destination, encryption, PII, and
// activity-inference analyses measure the defended wire view instead of
// the raw one. The engine applies to one experiment at a time
// (Engine.Transform); the analysis pipeline runs it as the first half of
// its prep step (analysis.Pipeline.Defense), on the fold workers of
// every source and on the §7.3 uncontrolled leg.
//
// Each transform's strength is a single overhead budget in [0, 1]:
// budget 0 is a bit-for-bit no-op, budget 1 pads toward the MTU, delays
// up to 30 s, injects one cover packet per real packet, and cell-pads
// the tunnel. Everything is a pure function of (seed, packet identity),
// so a fixed (stack, seed, budget) yields byte-identical results across
// runs, worker counts, and buffered versus streaming ingestion. A nil
// *Engine is valid everywhere and means "undefended", mirroring the
// faults convention.
package reshape
