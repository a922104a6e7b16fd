package main

import (
	"flag"
	"testing"

	"rebudget/internal/flagdoc"
)

func TestFlagsMatchServingKnobsTable(t *testing.T) {
	fs := flag.NewFlagSet("rebudget-snapstore", flag.ContinueOnError)
	registerFlags(fs)
	flagdoc.Check(t, "../../DESIGN.md", "rebudget-snapstore", fs)
}
