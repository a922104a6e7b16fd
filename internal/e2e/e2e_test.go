package e2e

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"rebudget/internal/e2e/bootline"
)

// helperEnv turns this test binary into a stand-in daemon when a test
// re-executes it under a daemon's name: it honours the startup-line contract
// and exits 0 on SIGTERM, like the real ones. The value "router-dies" makes
// the stand-in for rebudget-router exit before it listens.
const helperEnv = "REBUDGET_E2E_TEST_HELPER"

func TestMain(m *testing.M) {
	mode := os.Getenv(helperEnv)
	if mode == "" {
		os.Exit(m.Run())
	}
	name := filepath.Base(os.Args[0])
	if mode == "router-dies" && name == Router {
		os.Stderr.WriteString("router: refusing to start\n")
		os.Exit(1)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.Exit(1)
	}
	bootline.Log(slog.New(slog.NewTextHandler(os.Stderr, nil)), name, ln.Addr().String())
	<-sigc
	os.Exit(0)
}

// runFake runs scenario on a harness whose bin directory holds this test
// binary under each daemon's name, the way Run would, and returns the
// harness for a post-mortem along with the scenario's failure.
func runFake(t *testing.T, mode string, scenario func(*Harness)) (*Harness, error) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, name := range []string{Rebudgetd, Router, Snapstore} {
		if err := os.Symlink(self, filepath.Join(bin, name)); err != nil {
			t.Fatal(err)
		}
	}
	t.Setenv(helperEnv, mode)
	h := &Harness{Ctx: context.Background(), name: "e2e-test", bin: bin, dir: t.TempDir()}
	defer h.close()
	return h, h.run(scenario)
}

func running(p *Proc) bool { return p.cmd.Process.Signal(syscall.Signal(0)) == nil }

func requireAllReaped(t *testing.T, h *Harness, want int) {
	t.Helper()
	if len(h.procs) != want {
		t.Errorf("harness started %d processes, want %d", len(h.procs), want)
	}
	for _, p := range h.procs {
		if running(p) {
			t.Errorf("%s (pid %d) survived the scenario", p.Name, p.Pid())
		}
	}
	if _, err := os.Stat(h.Dir()); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("scratch dir still there: %v", err)
	}
}

// TestFailedScenarioLeavesNothingBehind boots a full tier and fails midway
// without draining anything: the failure must come back as the error, and
// no process and no scratch directory may outlive the run.
func TestFailedScenarioLeavesNothingBehind(t *testing.T) {
	h, err := runFake(t, "ok", func(h *Harness) {
		f := h.Boot(Tier{Snapstore: true, Shards: 2, Standby: 1, Routers: [][]string{{"-x"}, {"-y"}}})
		if len(f.Shards) != 3 || len(f.Routers) != 2 || f.Snapstore == nil {
			t.Errorf("booted %d shards, %d routers", len(f.Shards), len(f.Routers))
		}
		for _, p := range f.Procs() {
			if _, _, err := net.SplitHostPort(p.Addr); err != nil || !running(p) {
				t.Errorf("%s: addr %q, running %v", p.Name, p.Addr, running(p))
			}
		}
		h.Fatalf("assertion %d failed midway", 7)
		t.Error("the scenario kept going past a failure")
	})
	if err == nil || err.Error() != "assertion 7 failed midway" {
		t.Errorf("scenario error = %v", err)
	}
	requireAllReaped(t, h, 6)
}

// TestBootFailureReapsEarlierProcesses has the router die before it
// listens: the scenario must fail with the router's log, and the shards
// started before it must still be reaped.
func TestBootFailureReapsEarlierProcesses(t *testing.T) {
	h, err := runFake(t, "router-dies", func(h *Harness) {
		h.Boot(Tier{Shards: 2, Routers: [][]string{nil}})
		t.Error("Boot returned although the router died")
	})
	if err == nil || !strings.Contains(err.Error(), "died before listening") || !strings.Contains(err.Error(), "refusing to start") {
		t.Errorf("scenario error = %v", err)
	}
	requireAllReaped(t, h, 3)
}

// TestDrainIsCleanAndIdempotent: SIGTERM must end a daemon with status 0
// inside the deadline, draining it again is a no-op, and a passing scenario
// reports no error.
func TestDrainIsCleanAndIdempotent(t *testing.T) {
	h, err := runFake(t, "ok", func(h *Harness) {
		f := h.Boot(Tier{Shards: 1, Routers: [][]string{nil}})
		h.Drain(f.Procs()...)
		for _, p := range f.Procs() {
			if running(p) {
				t.Errorf("%s survived its drain", p.Name)
			}
		}
		h.Drain(f.Procs()...)
	})
	if err != nil {
		t.Error(err)
	}
	requireAllReaped(t, h, 2)
}

// TestForeignPanicIsNotSwallowed: only Must/Fatalf failures become errors; a
// bug's panic must keep unwinding.
func TestForeignPanicIsNotSwallowed(t *testing.T) {
	defer func() {
		if r := recover(); r != "a bug" {
			t.Errorf("recovered %v, want the scenario's own panic", r)
		}
	}()
	h := &Harness{Ctx: context.Background(), dir: t.TempDir()}
	_ = h.run(func(*Harness) { panic("a bug") })
	t.Error("run returned after a foreign panic")
}

// Procs lists the fleet top-down — routers, shards, snapstore — the order
// in which to drain it.
func (f *Fleet) Procs() []*Proc {
	procs := append(append([]*Proc{}, f.Routers...), f.Shards...)
	if f.Snapstore != nil {
		procs = append(procs, f.Snapstore)
	}
	return procs
}
