#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload serve_point --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# benchmark's on-disk state all live under .bench_build in the current
# directory, so the first run compiles the standard library once (a few
# minutes on a 2-core host) and later runs reuse it.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${PWD}/.bench_build"
mkdir -p "${out}/tmp" "${out}/gotmp"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" GOMODCACHE="${out}/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "${bench_dir}" && go build -o "${out}/parselbench" .)
exec "${out}/parselbench" -tmpdir "${out}/tmp" "$@"
