package main

import (
	"flag"
	"testing"

	"rebudget/internal/flagdoc"
)

func TestFlagsMatchServingKnobsTable(t *testing.T) {
	fs := flag.NewFlagSet("rebudgetd", flag.ContinueOnError)
	registerFlags(fs)
	flagdoc.Check(t, "../../DESIGN.md", "rebudgetd", fs)
}
