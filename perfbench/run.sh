#!/usr/bin/env bash
# Builds the `mithra` server and the `perfbench` binary from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); generated inputs go to `.bench_work/` and are
# removed when the run ends. The last stdout line is the JSON result.
set -euo pipefail
root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case "$target" in
/*) ;;
*) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin mithra >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$target/release/perfbench" --mithra "$target/release/mithra" "$@"
