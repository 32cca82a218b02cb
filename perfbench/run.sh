#!/usr/bin/env bash
# Builds the benchmark program and taoptd from the source tree it is run in,
# then runs the benchmark. Everything the build and the runs write stays under
# .bench_build/ in that tree.
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare old-results/ new-results/
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the root of a taopt source tree" >&2
    exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go -C perfbench build -o "$out/bin/perfbench" . >&2
go -C perfbench build -o "$out/bin/taoptd" taopt/cmd/taoptd >&2

sha=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
    sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$out/bin/perfbench" -root "$root" -taoptd "$out/bin/taoptd" -git-sha "$sha" "$@"
