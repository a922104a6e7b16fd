// Package flagdoc keeps the serving daemons' command lines and DESIGN.md's
// "Serving knobs" table from drifting apart: the tests under cmd/ hand it
// their registered flag set.
package flagdoc

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// Check fails on any flag of fs the table does not name, any row naming a
// flag that does not exist, and any default that differs. It reads the rows
// of designMD's "## Serving knobs" section whose first column names daemon:
// `| daemon | -flag | default | what it bounds | why configurable |`, the
// first three cells in backticks, an empty default written `""`.
func Check(t testing.TB, designMD, daemon string, fs *flag.FlagSet) {
	t.Helper()
	doc, err := os.ReadFile(designMD)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Serving knobs\n")
	if !ok {
		t.Fatalf("%s has no Serving knobs section", designMD)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	cell := func(s string) string { return strings.Trim(strings.TrimSpace(s), "`") }
	defaults := map[string]string{} // documented flag → documented default
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) >= 5 && cell(cells[1]) == daemon {
			defaults[strings.TrimPrefix(cell(cells[2]), "-")] = strings.ReplaceAll(cell(cells[3]), `""`, "")
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if def, ok := defaults[f.Name]; !ok {
			t.Errorf("%s -%s is not in the Serving knobs table", daemon, f.Name)
		} else if def != f.DefValue {
			t.Errorf("%s -%s: table says default %q, flag has %q", daemon, f.Name, def, f.DefValue)
		}
		delete(defaults, f.Name)
	})
	for name := range defaults {
		t.Errorf("table names %s -%s, which is not a flag", daemon, name)
	}
}
