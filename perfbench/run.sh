#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload improve-gnm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (binary, Go
# build cache and temporary files, Go's own config and telemetry files)
# stays under the build directory, $CARGO_TARGET_DIR if set, else
# .bench_build.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS="-mod=mod -buildvcs=false"
mkdir -p "$GOTMPDIR"

commit=unknown
if [ -e "$root/.git" ]; then
  commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" --spans-dir "$build/spans" --commit "$commit" "$@"
