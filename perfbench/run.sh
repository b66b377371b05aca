#!/usr/bin/env bash
# Builds the perfbench module from this checkout and runs it with the given
# arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload scan-cpu --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go config) stays under
# .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
