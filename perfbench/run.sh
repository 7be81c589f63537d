#!/usr/bin/env bash
# Builds the benchmark against the source tree it sits in, then runs it.
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 15 --trace 0
#
# Every build artefact (binary, Go build cache, toolchain state) and the
# engine's spill files stay under .bench_build/ at the root of the tree; build output goes to stderr so the
# last line of stdout is the benchmark's result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/gocache" "$out/tmp"
export TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
	GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
