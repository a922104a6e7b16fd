// Package lint holds the tree's smallness check, which lives entirely in
// lint_test.go so that go test runs it with the rest of tier 1. It
// type-checks every non-test package of the module and of bench/ and fails
// on two rules:
//
//  1. Every function, method and struct field declared outside _test.go has
//     a use reachable from non-test code or from an Example function. A
//     field is used when it is read: one named only as a store target (the
//     left of an assignment, the operand of ++ or --, or a selector under
//     one) is written but never read, and is a finding.
//  2. Every field of an exported …Config or …Spec struct is written by such
//     code outside its own Default…/withDefaults, unless that default copies
//     a parameter; a field with one value in use is a constant.
//
// The allowlist, with the reason for each entry, is allowed in lint_test.go.
package lint
