#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and scratch file stays under the build
# directory (CARGO_TARGET_DIR when set, .bench_build otherwise), so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
# The go command keeps its config and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
