// Package lint holds the tree's smallness check, which lives entirely in
// lint_test.go so that go test runs it with the rest of tier 1. It
// type-checks every non-test package of the module and of bench/ and fails
// on three rules:
//
//  1. Every function, method and struct field declared outside _test.go has
//     a use reachable from non-test code or from an Example function. A
//     field is used when it is read: one named only as a store target (the
//     left of an assignment, the operand of ++ or --, or a selector under
//     one) is written but never read, and is a finding.
//  2. Every field of an exported …Config or …Spec struct is written by such
//     code outside its own Default…/withDefaults, unless that default copies
//     a parameter; a field with one value in use is a constant.
//  3. The package graph has no inversions: what speaks the wire contract or
//     the snapshot format (router, cluster, loadgen, chaos, the client and
//     their commands) links neither the daemon nor the engine, and
//     internal/api and internal/snapshot import no module package but
//     internal/api. The rule is layers in lint_test.go.
//
// TestBenchCompatUnused keeps the module off the names that
// internal/server/bench_compat.go keeps for bench/, and those types
// aliases.
//
// The allowlist, with the reason for each entry, is allowed in lint_test.go.
package lint
