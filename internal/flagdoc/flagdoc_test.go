package flagdoc

import (
	"flag"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// recorder collects what Check reports instead of failing the test.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestCheckFindings holds Check to one case of each kind against the table
// and caller tree in testdata/tree: what it must report and what it must not.
func TestCheckFindings(t *testing.T) {
	fs := flag.NewFlagSet("toyd", flag.ContinueOnError)
	fs.String("addr", ":8000", "")
	fs.Int("rate", 1, "")
	fs.Int("computed", 0, "")
	fs.Int("lonely", 2, "")
	fs.Duration("at-default", 0, "")
	fs.Int("test-only", 3, "")
	fs.Int("self-set", 4, "")
	fs.Int("wrong-default", 6, "")
	fs.String("odd-kind", "", "")
	fs.Int("undocumented", 0, "")
	r := &recorder{TB: t}
	Check(r, "testdata/tree/DESIGN.md", "toyd", fs)
	sort.Strings(r.errs)
	want := []string{
		`table names toyd -stale, which is not a flag`,
		`toyd -at-default is a tuning flag no caller sets off its default "0s": make it a constant`,
		`toyd -lonely is a tuning flag no caller sets off its default "2": make it a constant`,
		`toyd -odd-kind: kind "knob", want deployment or tuning`,
		`toyd -self-set is a tuning flag no caller sets off its default "4": make it a constant`,
		`toyd -test-only is a tuning flag no caller sets off its default "3": make it a constant`,
		`toyd -undocumented is not in the Serving knobs table`,
		`toyd -wrong-default: table says default "5", flag has "6"`,
	}
	if !reflect.DeepEqual(r.errs, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(r.errs, "\n"), strings.Join(want, "\n"))
	}
	// Trying the callers' values leaves every flag at its default.
	fs.VisitAll(func(f *flag.Flag) {
		if got := f.Value.String(); got != f.DefValue {
			t.Errorf("-%s left at %q, default %q", f.Name, got, f.DefValue)
		}
	})
}
