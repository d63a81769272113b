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
// Run's parallelism reuses the -analysis-workers knob (0 = GOMAXPROCS):
// each home is one job of a par.Ordered pool, the scheduling discipline
// every parallel stage shares, which folds finished homes in index order
// and blocks dispatch once 2×workers homes are synthesized but not yet
// folded, so a fast worker can never buffer O(fleet) results. On
// cancellation Run waits for the homes already synthesizing and drops
// them.
//
// runHome keeps its own visit loop rather than folding through the
// analysis pipeline's fold units (internal/analysis/fold.go). The fleet
// aggregates per flow, through the collectors' OnDestination and OnFlow
// taps, and fold units never call those taps: they defer DNS label
// resolution to the merge, where a flow's destination may only then be
// known. Nor does the fleet need the fold's run-level parallelism — the
// home itself is the unit that Run parallelizes and merges in index
// order.
package fleet
