// Command rebudget-snapstore is the standalone snapshot service: a blob
// store keyed by snapshot id that rebudgetd shards point at with
// -snapshot-url instead of (or alongside) a local -snapshot-dir. Each
// blob's SHA-256 and CRC32 are recorded on write and re-checked on every
// read, so a rotten blob surfaces as a miss (the daemon cold-starts)
// rather than a poisoned rehydrate. See DESIGN.md, "Elastic membership".
//
// Usage:
//
//	rebudget-snapstore -addr :8345
//	rebudgetd -addr :9001 -snapshot-url http://127.0.0.1:8345
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rebudget/internal/cluster"
	"rebudget/internal/e2e/bootline"
)

// options is the parsed command line. DESIGN.md's "Serving knobs" table
// documents every flag; main_test.go fails when the two drift.
type options struct {
	addr, logFormat string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8345", "listen address")
	fs.StringVar(&o.logFormat, "log", "text", "log format: text or json")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	log, err := bootline.Logger("rebudget-snapstore", o.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ss := cluster.NewSnapServer(0, log)

	bootline.Shell{Name: "rebudget-snapstore", Log: log, Grace: 10 * time.Second}.Run(o.addr, ss.Handler())
	log.Info("rebudget-snapstore stopped", "snapshots", ss.Len())
}
