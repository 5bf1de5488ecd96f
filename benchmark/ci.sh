#!/usr/bin/env bash
# Smoke check of the benchmark itself: the harness's unit tests, the
# default-command test (a process per workload, so peak_rss_mb is the
# figure --workload W reports), the checker self-test (a corrupted output
# must fail its check), and all four
# workloads at about a twentieth of their size with a 2 s window, untraced
# and traced, every check on. Under a minute once built. One line wires it
# into CI:  bash benchmark/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
out=$(mktemp -d benchmark/out.ci.XXXXXX)
trap 'rm -rf "$out"' EXIT

cargo test --release --offline --quiet --manifest-path "$manifest"
bench() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }
bench selftest
bench --smoke --out "$out"
bench --smoke --trace --out "$out"
echo "benchmark smoke OK"
