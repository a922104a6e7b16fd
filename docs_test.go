package rebudget_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocumentedExamplesExist holds the docs' example citations to the code:
// every Example… token in README.md, DESIGN.md and EXPERIMENTS.md must be a
// function declared in some _test.go file, so go test runs what the docs
// point at. Runnable programs live only as Example functions, so no doc may
// name an examples/ path either.
func TestDocumentedExamplesExist(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Example\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(b, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cite := regexp.MustCompile(`\bExample[A-Z_]\w*`)
	dir := regexp.MustCompile(`\bexamples/`)
	total := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAll(b, -1) {
			total++
			if !declared[string(name)] {
				t.Errorf("%s names %s, which no _test.go file declares", doc, name)
			}
		}
		if loc := dir.FindIndex(b); loc != nil {
			t.Errorf("%s names an examples/ path (line %d); examples are Example functions",
				doc, 1+strings.Count(string(b[:loc[0]]), "\n"))
		}
	}
	if total == 0 {
		t.Error("the docs name no Example function; the pattern has drifted from the docs")
	}
}
