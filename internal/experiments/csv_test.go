package experiments

import (
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"rebudget/internal/cmpsim"
)

func TestWriteSweepCSV(t *testing.T) {
	s, err := RunSweep(8, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteSweepCSV(&sb, s); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	// Header + 6 bundles × (5 mechanisms + MaxEfficiency row).
	want := 1 + 6*(len(s.Mechanisms)+1)
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	if rows[0][0] != "bundle" || rows[0][3] != "efficiency" {
		t.Errorf("header wrong: %v", rows[0])
	}
	// Every efficiency parses and is positive.
	for _, r := range rows[1:] {
		v, err := strconv.ParseFloat(r[3], 64)
		if err != nil || v <= 0 {
			t.Fatalf("bad efficiency cell %q", r[3])
		}
	}
}

func TestWriteFig5CSV(t *testing.T) {
	cfg := cmpsim.DefaultConfig(4)
	cfg.Epochs = 4
	cfg.WarmupEpochs = 2
	cfg.MaxAccessesPerCoreEpoch = 2000
	r, err := Engine{}.RunFig5(cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFig5CSV(&sb, r); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 6*(len(r.Mechanisms)+1)
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
}

func TestWriteFig2CSV(t *testing.T) {
	curves, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFig2CSV(&sb, curves); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+2*16 {
		t.Fatalf("rows = %d", len(rows))
	}
}
