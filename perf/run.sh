#!/usr/bin/env bash
# Build the real CLI and the benchmark harness (release, offline, one
# shared target directory), then hand every argument to the harness.
#
#   perf/run.sh                        every workload, end to end + traced
#   perf/run.sh --sets 2               ... twice, and compare the two sets
#   perf/run.sh --quick                smoke run at 1/20 of the sizes
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one measured run (BENCHMARK.json's form)
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

target=${CARGO_TARGET_DIR:-$here/target}
case $target in
    /*) ;;
    *) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target

# Cargo reports on stderr, so stdout stays the harness's alone.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p typefuse-cli
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

exec "$target/release/typefuse-perf" "$@"
