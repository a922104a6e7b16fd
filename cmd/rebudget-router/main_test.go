package main

import (
	"flag"
	"strings"
	"testing"

	"rebudget/internal/flagdoc"
)

func TestFlagsMatchServingKnobsTable(t *testing.T) {
	fs := flag.NewFlagSet("rebudget-router", flag.ContinueOnError)
	registerFlags(fs)
	flagdoc.Check(t, "../../DESIGN.md", "rebudget-router", fs)
}

// TestValidateFlags: a non-finite or negative -retry-rate is refused by
// name before the router starts.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		rate string
		ok   bool
	}{
		{"16", true},
		{"0", true},
		{"NaN", false},
		{"+Inf", false},
		{"-Inf", false},
		{"-1", false},
	} {
		fs := flag.NewFlagSet("rebudget-router", flag.ContinueOnError)
		o := registerFlags(fs)
		if err := fs.Parse([]string{"-retry-rate", tc.rate}); err != nil {
			t.Fatalf("-retry-rate %s: %v", tc.rate, err)
		}
		err := o.validate()
		if tc.ok != (err == nil) || (err != nil && !strings.Contains(err.Error(), "-retry-rate ")) {
			t.Errorf("-retry-rate %s: error %v, want ok=%v naming -retry-rate", tc.rate, err, tc.ok)
		}
	}
}
