// Package e2e is the process-tier booter behind `rebudget-smoke`: it builds
// the serving daemons once, starts real rebudgetd / rebudget-router /
// rebudget-snapstore processes on loopback port 0, reads each bound address
// from the daemon's startup line (internal/e2e/bootline), delivers real
// SIGTERMs and holds every drain to one deadline, and checks /metrics as
// typed samples (metrics.go). A scenario is a func(*Harness) that reads like
// a test: every Harness method that can fail ends the scenario on failure,
// Run turns that into an error, prints the tail of the daemons' logs and
// kills whatever is still running.
package e2e

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rebudget/internal/e2e/bootline"
)

const (
	// BootDeadline bounds how long a started daemon may take to log its
	// address. A -race build on two busy vCPUs needs seconds, not the 5 s
	// the shell smokes allowed.
	BootDeadline = 20 * time.Second
	// DrainDeadline bounds SIGTERM-to-exit. It sits above rebudgetd's 10 s
	// -drain-wait and the router's and snapstore's fixed 10 s shutdown
	// budget, so a daemon that overruns its budget fails the scenario
	// instead of being waited out.
	DrainDeadline = 15 * time.Second
)

// The daemons, by command name. The first Start of a scenario compiles all
// three into binDir with one `go build`, which leaves an up-to-date binary
// alone — so the scenarios of one `make ci` build the tier once between them.
const (
	Rebudgetd = "rebudgetd"
	Router    = "rebudget-router"
	Snapstore = "rebudget-snapstore"

	binDir = ".bench/bin" // gitignored; relative to the module root, where make and `go run ./cmd/…` run
)

// Harness is one running scenario: its context, its scratch directory and
// every process started through it.
type Harness struct {
	Ctx   context.Context
	name  string // prefixed to every output line
	bin   string // directory of daemon binaries; built on the first Start
	dir   string
	procs []*Proc
}

// logTail is how much of each daemon's log a failed scenario prints.
const logTail = 40

// failure is what Must and Fatalf unwind the scenario with.
type failure struct{ err error }

// Run executes scenario against a fresh harness and returns its failure, if
// any, after printing the tail of every daemon's log to stderr. Processes
// still running are killed and the scratch directory removed either way.
func Run(ctx context.Context, name string, scenario func(*Harness)) error {
	dir, err := os.MkdirTemp("", "rebudget-"+name+"-")
	if err != nil {
		return err
	}
	h := &Harness{Ctx: ctx, name: name, dir: dir}
	defer h.close()
	return h.run(scenario)
}

func (h *Harness) run(scenario func(*Harness)) (err error) {
	defer func() {
		r := recover()
		f, ok := r.(failure)
		if r != nil && !ok {
			panic(r)
		}
		if ok {
			for _, p := range h.procs {
				log, _ := os.ReadFile(p.logPath)
				lines := strings.SplitAfter(string(log), "\n")
				tail := lines[max(0, len(lines)-logTail):] // a daemon logs every request
				fmt.Fprintf(os.Stderr, "---- %s (pid %d), last %d of %d log lines ----\n%s",
					p.Name, p.Pid(), len(tail), len(lines), strings.Join(tail, ""))
			}
			err = f.err
		}
	}()
	scenario(h)
	return nil
}

func (h *Harness) close() {
	for _, p := range h.procs {
		_ = p.cmd.Process.Kill() // already exited is fine
		<-p.done
	}
	os.RemoveAll(h.dir)
}

// Must ends the scenario with err unless it is nil.
func (h *Harness) Must(err error) {
	if err != nil {
		panic(failure{err})
	}
}

// Fatalf ends the scenario with a formatted failure.
func (h *Harness) Fatalf(format string, args ...any) { h.Must(fmt.Errorf(format, args...)) }

// Dir is the scenario's scratch directory.
func (h *Harness) Dir() string { return h.dir }

// Logf prints one progress line, prefixed with the scenario name.
func (h *Harness) Logf(format string, args ...any) {
	fmt.Printf(h.name+": "+format+"\n", args...)
}

// Proc is one started daemon.
type Proc struct {
	Name string
	Addr string // host:port the daemon bound, read from its startup line

	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed once the process has been reaped
	waitErr error         // cmd.Wait's result, valid after done
}

// Base is the daemon's base URL.
func (p *Proc) Base() string { return "http://" + p.Addr }

// Pid is the daemon's process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Start runs a daemon with args, logging to a file of its own in the
// scratch directory, and returns once it has logged its bound address. A
// daemon that exits first, or stays silent past BootDeadline, fails the
// scenario with its log.
func (h *Harness) Start(name, daemon string, args ...string) *Proc {
	if h.bin == "" {
		h.Must(os.MkdirAll(binDir, 0o755))
		build := exec.Command("go", "build", "-o", binDir+"/", "./cmd/"+Rebudgetd, "./cmd/"+Router, "./cmd/"+Snapstore)
		if out, err := build.CombinedOutput(); err != nil {
			h.Fatalf("go build (run from the module root): %v\n%s", err, out)
		}
		h.bin = binDir
	}
	p := &Proc{Name: name, done: make(chan struct{})}
	p.logPath = filepath.Join(h.dir, fmt.Sprintf("%02d-%s.log", len(h.procs), name))
	logf, err := os.Create(p.logPath)
	h.Must(err)
	defer logf.Close() // the child holds its own descriptor
	p.cmd = exec.Command(filepath.Join(h.bin, daemon), args...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	h.Must(p.cmd.Start())
	h.procs = append(h.procs, p)
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.done)
	}()

	deadline := time.After(BootDeadline)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		var failed string
		select {
		case <-p.done:
			failed = fmt.Sprintf("died before listening (%v)", p.waitErr)
		case <-deadline:
			failed = fmt.Sprintf("never reported its address within %s", BootDeadline)
		case <-tick.C:
		}
		log, _ := os.ReadFile(p.logPath)
		for _, line := range strings.Split(string(log), "\n") {
			if addr, ok := bootline.Addr(line); ok {
				p.Addr = addr
				return p
			}
		}
		if failed != "" {
			h.Fatalf("%s %s:\n%s", name, failed, log)
		}
	}
}

// Drain delivers SIGTERM to each process in turn and requires a clean exit
// within DrainDeadline. A process that already exited is skipped.
func (h *Harness) Drain(procs ...*Proc) {
	for _, p := range procs {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); errors.Is(err, os.ErrProcessDone) {
			continue
		} else if err != nil {
			h.Fatalf("signal %s: %v", p.Name, err)
		}
		select {
		case <-p.done:
			if p.waitErr != nil {
				h.Fatalf("%s exited uncleanly after SIGTERM: %v", p.Name, p.waitErr)
			}
		case <-time.After(DrainDeadline):
			h.Fatalf("%s did not drain within %s", p.Name, DrainDeadline)
		}
	}
}

// Tier declares a serving tier to boot.
type Tier struct {
	Snapstore  bool     // a rebudget-snapstore; every shard gets -snapshot-url pointing at it
	Shards     int      // rebudgetd shards the routers start with as -backends
	Standby    int      // further shards, booted but in no ring until the scenario adds them
	ShardFlags []string // every shard's flags after -addr
	// Routers holds one entry per rebudget-router replica: its flags after
	// -addr and -backends. Replicas after the first gossip to the first.
	Routers [][]string
}

// Fleet is a booted Tier.
type Fleet struct {
	Snapstore *Proc
	Shards    []*Proc // the ring's shards first, then the standbys
	Routers   []*Proc
}

// Boot starts the tier bottom-up: snapstore, shards, routers.
func (h *Harness) Boot(t Tier) *Fleet {
	f := &Fleet{}
	shardFlags := append([]string{"-addr", "127.0.0.1:0"}, t.ShardFlags...)
	if t.Snapstore {
		f.Snapstore = h.Start("snapstore", Snapstore, "-addr", "127.0.0.1:0")
		shardFlags = append(shardFlags, "-snapshot-url", f.Snapstore.Base())
	}
	var backends []string
	for i := 1; i <= t.Shards+t.Standby; i++ {
		f.Shards = append(f.Shards, h.Start(fmt.Sprintf("shard%d", i), Rebudgetd, shardFlags...))
		if i <= t.Shards {
			backends = append(backends, f.Shards[i-1].Base())
		}
	}
	for i, flags := range t.Routers {
		args := append([]string{"-addr", "127.0.0.1:0", "-backends", strings.Join(backends, ",")}, flags...)
		if i > 0 {
			args = append(args, "-gossip-peers", f.Routers[0].Base())
		}
		f.Routers = append(f.Routers, h.Start(fmt.Sprintf("router%d", i+1), Router, args...))
	}
	return f
}

// Eventually polls fn every interval until it returns nil, and fails the
// scenario with fn's last error once timeout has passed.
func (h *Harness) Eventually(timeout, interval time.Duration, fn func() error) {
	ctx, cancel := context.WithTimeout(h.Ctx, timeout)
	defer cancel()
	for err := fn(); err != nil; err = fn() {
		select {
		case <-ctx.Done():
			h.Fatalf("not within %s: %v", timeout, err)
		case <-time.After(interval):
		}
	}
}
