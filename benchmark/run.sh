#!/usr/bin/env bash
# Builds the end-to-end benchmark and the scraperlabd daemon from the
# checkout it is run from, then runs the benchmark with the given flags:
#
#   bash benchmark/run.sh --workload estate-csv --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -seed 1                  # every workload
#   bash benchmark/run.sh -compare a.jsonl b.jsonl
#
# Run it from the repository root. Everything it builds, generates and
# caches lands under .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/bin/bench" . && go build -o "$out/bin/scraperlabd" repro/cmd/scraperlabd) >&2

exec "$out/bin/bench" "$@"
