// Package fleet generalizes the two-lab Mon(IoT)r testbed to a
// parameterized fleet of N simulated homes — the ROADMAP's
// production-scale campaign mode.
//
// Plan derives the whole fleet deterministically from one seed: each
// home gets a region (US or GB), a device mix drawn from the catalog, a
// fault profile (most homes are clean; some ride a lossy access link or
// a cloud-outage window), a staggered clock offset so campaign activity
// overlaps realistically, and its own /24 and RNG seed. Run then drives
// every home through the existing synthesis and analysis machinery
// home-by-home: a home's experiments are synthesized, visited by
// per-home destination/encryption/content collectors, and released
// before the next experiment starts, so peak heap stays
// O(window + aggregates) — never O(fleet).
//
// Per-home results fold into an Aggregate built on internal/sketch:
// HyperLogLogs for the unbounded distinct-count keyspaces (destination
// FQDNs, SLDs, ports, organisations) and count-min sketches for the
// SLD heavy-hitter tables, plus small exact maps for the bounded
// dimensions (party, encryption class, PII kind, region, fault
// profile). Aggregate.Merge is commutative and associative in its
// sketch state; the runner nevertheless folds homes in index order so
// the bounded top-SLD candidate set — whose eviction order is fold-
// order-sensitive — is byte-identical for any worker count, the same
// discipline as the analysis pipeline's in-order fold merge.
//
// Run's parallelism reuses the -analysis-workers knob: homes are
// dispatched to a worker pool with a bounded lead (at most `workers`
// homes in flight), so a fast worker can never buffer O(fleet) results
// while the consumer folds in order.
package fleet
