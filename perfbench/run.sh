#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload enum --seed 1 --seconds 25 --trace 0
# Run it from the root of the repository. Everything the build and the
# run write stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/home"
# The commit for the environment header: only from a repository rooted
# here, never from one that merely encloses the checkout.
if [ -z "${BENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
export BENCH_COMMIT
(
	cd "$root/perfbench"
	HOME=$out/home XDG_CONFIG_HOME=$out/home GOCACHE=$out/gocache GOPATH=$out/gopath \
		GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec env TMPDIR="$out/tmp" "$out/perfbench" --out "$out" "$@"
