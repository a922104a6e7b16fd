// Package bootline is the startup-line contract between the serving
// daemons and the end-to-end harness: a daemon bound to port 0 announces
// where it landed with Log, and internal/e2e reads the address back out of
// the process's log with Addr. Both sides of `<daemon> listening … addr=…`
// live here so neither can drift from the other, and so does Logger, the
// one log setup the three daemons share.
package bootline

import (
	"fmt"
	"log/slog"
	"os"
	"strings"
)

const (
	marker  = " listening"
	addrKey = "addr"
)

// Log writes the daemon's one startup line: "<daemon> listening" with the
// bound address first among its attributes, then any extras.
func Log(log *slog.Logger, daemon, addr string, extra ...any) {
	log.Info(daemon+marker, append([]any{addrKey, addr}, extra...)...)
}

// Addr extracts the bound address from a text-format log line written by
// Log; ok is false for every other line.
func Addr(line string) (addr string, ok bool) {
	_, rest, found := strings.Cut(line, marker)
	if !found {
		return "", false
	}
	_, rest, found = strings.Cut(rest, " "+addrKey+"=")
	if !found {
		return "", false
	}
	if i := strings.IndexAny(rest, " \n"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// Logger is the daemon's logger on stderr in format, the value of its -log
// flag: "text", the format Addr reads, or "json" for log collectors.
func Logger(daemon, format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("%s: unknown -log format %q", daemon, format)
}
