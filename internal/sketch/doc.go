// Package sketch provides the mergeable probabilistic aggregates the
// fleet-scale campaign mode folds per-home results into: a HyperLogLog
// for distinct-count keyspaces that would blow up as exact sets at
// thousands of homes (destination FQDNs, SLDs, ports), and a count-min
// sketch for heavy-hitter frequency tables over the same unbounded
// keyspaces.
//
// Both sketches have the merge properties the fleet runner relies on:
//
//   - Deterministic seeded hashing: every register/counter value is a
//     pure function of (seed, key), never of insertion order or
//     wall-clock state, so the same stream always produces the same
//     serialized bytes.
//   - Commutative, associative Merge: folding per-home sketches in any
//     order or grouping yields byte-identical serialized state, which is
//     what lets the fleet runner merge worker results deterministically
//     for any worker count.
//   - Fixed memory: a sketch's size depends only on its parameters,
//     never on the number of keys added — the fleet's aggregate heap is
//     O(sketch parameters), not O(fleet keyspace).
//
// Error bounds (documented per type, asserted by the property tests):
//
//   - HLL with precision p uses m = 2^p registers and estimates distinct
//     counts with standard error σ ≈ 1.04/√m (±1.6% at the default
//     p=12), switching to linear counting at small cardinalities where
//     the error is far smaller.
//   - CountMin with width w and depth d overestimates only: for any key,
//     estimate ≥ true count always, and estimate ≤ true count + εN with
//     probability ≥ 1−δ, where ε = e/w, δ = e^−d and N is the total of
//     all counts added.
package sketch
