#!/bin/sh
# loc.sh — report how many non-test Go lines a change adds and removes:
#
#   sh scripts/loc.sh BASE        (or: make loc BASE=<rev>)
#
# Counts lines of .go files other than *_test.go that differ between the
# revision BASE and the working tree, untracked files included, and
# prints the added, removed and net counts. A report, not a gate.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: loc.sh BASE" >&2
    exit 2
fi
base=$1
cd "$(dirname "$0")/.."
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
    echo "loc.sh: unknown revision $base" >&2
    exit 2
fi

set -- '*.go' ':(exclude)*_test.go'
counts=$(git diff --numstat "$base" -- "$@" | awk '{a += $1; r += $2} END {print a + 0, r + 0}')
added=${counts% *}
removed=${counts#* }
new=$(git ls-files -z --others --exclude-standard -- "$@" | xargs -0 cat | wc -l)
added=$((added + new))
echo "non-test Go lines against $base: added $added, removed $removed, net $((added - removed))"
