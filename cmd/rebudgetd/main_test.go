package main

import (
	"flag"
	"strings"
	"testing"

	"rebudget/internal/flagdoc"
)

func TestFlagsMatchServingKnobsTable(t *testing.T) {
	fs := flag.NewFlagSet("rebudgetd", flag.ContinueOnError)
	registerFlags(fs)
	flagdoc.Check(t, "../../DESIGN.md", "rebudgetd", fs)
}

// TestValidateFlags: a non-finite or negative budget, or a floor outside
// (0,1], is refused by name before the daemon starts.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		badFlag string // "" = valid
	}{
		{nil, ""},
		{[]string{"-cost-capacity", "4", "-session-rps", "0.5", "-tenant-mbr", "1"}, ""},
		{[]string{"-cost-capacity", "NaN"}, "-cost-capacity"},
		{[]string{"-cost-capacity", "+Inf"}, "-cost-capacity"},
		{[]string{"-cost-capacity", "-1"}, "-cost-capacity"},
		{[]string{"-session-rps", "NaN"}, "-session-rps"},
		{[]string{"-session-rps", "Inf"}, "-session-rps"},
		{[]string{"-session-rps", "-2"}, "-session-rps"},
		{[]string{"-tenant-mbr", "NaN"}, "-tenant-mbr"},
		{[]string{"-tenant-mbr", "1.5"}, "-tenant-mbr"},
		{[]string{"-tenant-mbr", "-0.1"}, "-tenant-mbr"},
	} {
		fs := flag.NewFlagSet("rebudgetd", flag.ContinueOnError)
		o := registerFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := o.validate()
		switch {
		case tc.badFlag == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.badFlag != "" && (err == nil || !strings.Contains(err.Error(), tc.badFlag+" ")):
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.badFlag)
		}
	}
}
