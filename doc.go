// Package repro is a complete Go implementation of "An Architecture for
// Network Resource Monitoring in a Distributed Environment" (Irey, Hott,
// Marlow; NSWC-DD, IPPS 1998).
//
// The library lives under internal/ — see README.md for the architecture
// and DESIGN.md for the paper-to-module map; cmd/experiments regenerates
// the paper's evaluation tables, and bench/ is the repository benchmark.
package repro
