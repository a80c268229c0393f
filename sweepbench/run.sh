#!/usr/bin/env bash
# Builds the sweep benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash sweepbench/run.sh --workload matrix-resume --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/sweepbench" && go build -buildvcs=false -o "$out/sweepbench" .)
# Stamp the result with the commit only when the checkout itself is a
# git work tree; never look above it.
commit=unknown dirty=false
if [ -e "$root/.git" ] && command -v git > /dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)
	if [ -n "$(git -C "$root" status --porcelain 2> /dev/null)" ]; then
		dirty=true
	fi
fi
exec "$out/sweepbench" -dir "$out" -commit "$commit" -dirty="$dirty" "$@"
