#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. The Go build cache, the binary and
# traced runs' span files go under $CARGO_TARGET_DIR (default
# .bench_build); the go command's own home, cache and config are kept
# there too, so nothing is written outside the checkout. Build output
# goes to standard error; the benchmark's last line on standard output
# is its JSON result.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/config" XDG_CACHE_HOME="$out/home/cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
