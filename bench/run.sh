#!/bin/sh
# Builds the benchmark into .bench_build/ at the repository root and runs it
# from there. Everything the go command writes — build cache, work
# directory, module cache, its own counters — is pointed into the same
# directory, so nothing is read or written outside the checkout.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/rebudget-bench" .)
cd "$root"
exec "$build/rebudget-bench" "$@"
