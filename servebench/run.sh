#!/usr/bin/env bash
# Builds and runs the served end-to-end benchmark from the repository
# root, keeping every build cache and temporary file inside the checkout
# under .bench_build/:
#
#   bash servebench/run.sh --workload stream-clean --seed 1 --seconds 10 --trace 0
#
# Arguments are passed to the benchmark unchanged. A failed build exits
# non-zero before anything is measured.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -workdir "$out" "$@"
