package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocumentedExperimentsExist holds every `-exp <name>` the docs cite to
// the names the command accepts. It resolves names only; nothing runs.
func TestDocumentedExperimentsExist(t *testing.T) {
	cite := regexp.MustCompile(`-exp\s+([a-z0-9][a-z0-9|-]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		cites := cite.FindAllSubmatch(b, -1)
		if len(cites) == 0 {
			t.Errorf("%s cites no -exp name; the pattern has drifted from the docs", doc)
		}
		for _, m := range cites {
			for _, name := range strings.Split(string(m[1]), "|") {
				if _, err := selectExperiments(name); err != nil {
					t.Errorf("%s cites -exp %s: %v", doc, name, err)
				}
			}
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	names := func(exp string) string {
		sel, err := selectExperiments(exp)
		if err != nil {
			return "error"
		}
		var out []string
		for _, e := range sel {
			out = append(out, e.name)
		}
		return strings.Join(out, " ")
	}
	for exp, want := range map[string]string{
		"":          "error",
		"fig":       "error", // names match exactly, never by prefix
		"fig4a":     "error",
		"fig4":      "fig4",
		"ablations": "ablation-talus ablation-lambda ablation-backoff ablation-bids",
		"all": "table1 fig1 fig2 fig3 fig4 fig5 tenant validate " +
			"ablation-talus ablation-lambda ablation-backoff ablation-bids",
	} {
		if got := names(exp); got != want {
			t.Errorf("-exp %q runs %q, want %q", exp, got, want)
		}
	}
}
