// Package analysis implements the paper's measurement analyses over
// captured experiments: destination analysis (§4, RQ1), encryption
// analysis (§5, RQ2), content analysis — plaintext PII and activity
// inference (§6, RQ3/RQ4) — and unexpected-behaviour detection (§7, RQ5),
// with regional comparison (RQ6) woven through every table's columns.
//
// Every collector consumes experiments in a streaming fashion via its
// Visit method, so the full campaign never needs to be held in memory.
//
// Pipeline.Run delivers every source the same way: contiguous runs of
// experiments fold into private fold units on Pipeline.Workers
// goroutines and merge back in delivery order (see fold.go). Model
// training and evaluation fan out per tree, per fold and per device.
// Every table, model and detection is byte-identical to visiting the
// campaign serially, for any worker count — parallelism trades wall
// time only.
package analysis
