#!/usr/bin/env bash
# Builds the clustersim benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload int16-live --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest     # every workload at a tiny size
#
# Everything the build writes (Go build cache, binary, span files) stays
# under .bench_build/ in the current directory.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
# The module needs nothing from the network: the simulator is a local
# replacement and everything else is the standard library.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off GOENV=off GOFLAGS= \
	XDG_CONFIG_HOME="$out/config" HOME="$out/home" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
mkdir -p "$out/tmp"
if [[ "${1:-}" == "--selftest" ]]; then
	cd "$root/perfbench"
	exec go test -count=1 ./...
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
