#!/bin/sh
# fuzz_smoke.sh — every fuzzer for a few seconds past its seed corpus, for
# `make fuzz-smoke`.
#
# Each run bounds input minimization with -fuzzminimizetime: under the
# default 60 s, one newly interesting input can stall a worker for the
# whole run (FuzzSessionViewDecode made 71 execs in 12 s that way, and
# 28 400 with a 1 s bound). Each fuzzer's final exec count is printed, and
# a fuzzer that executed no more inputs than its seed corpus holds fails
# the target: it ran, but it did not fuzz.
set -eu
GO=${GO:-go}
out=$(mktemp)
trap 'rm -f "$out"' EXIT

while read -r name pkg; do
	if ! $GO test -run '^$' -fuzz "^$name\$" -fuzztime 5s -fuzzminimizetime 1s "$pkg" >"$out" 2>&1; then
		cat "$out"
		echo "fuzz-smoke: $name failed"
		exit 1
	fi
	seeds=$(sed -n 's/.*gathering baseline coverage: \([0-9]*\)\/.*/\1/p' "$out" | tail -n 1)
	execs=$(sed -n 's/.*execs: \([0-9]*\) .*/\1/p' "$out" | tail -n 1)
	echo "fuzz-smoke: $name ($pkg): ${execs:-0} execs over a seed corpus of ${seeds:-0}"
	if [ "${execs:-0}" -le "${seeds:-0}" ]; then
		cat "$out"
		echo "fuzz-smoke: $name made no progress past its seed corpus"
		exit 1
	fi
done <<'LIST'
FuzzSnapshotLoad ./internal/snapshot
FuzzSessionViewDecode ./internal/server
FuzzSessionSpec ./internal/server
FuzzParseTenants ./internal/server
FuzzParseMechanism ./internal/core
FuzzHullIndex ./internal/app
LIST
