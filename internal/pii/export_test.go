package pii

// NewReferenceScanner exposes the reference scan to the external test
// package, which can synthesize campaigns without an import cycle.
var NewReferenceScanner = newReferenceScanner
