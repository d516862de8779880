#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-mrt --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build leaves behind —
# the Go build cache, the binary and the traced runs' span files — goes
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are missing)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
# No network: the program is this checkout, and the toolchain is the one
# installed.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$out/config"

go -C perfbench build -o "$out/perfbench" .

# Look for a git repository in the checkout only, never above it.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)"
source_hash="$(find . -name '*.go' -not -path './perfbench/*' -not -path "./${out#"$PWD"/}/*" -print0 |
	LC_ALL=C sort -z | xargs -0 cat | sha256sum | cut -c1-16)"

exec "$out/perfbench" --commit "$commit" --source-hash "$source_hash" --spans-dir "$out/spans" "$@"
