#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run; result object on the last line
#   run.sh [--seed N] [--trace 1] [--quick] [--calibrate [N]]  the whole set, a child process per untraced run
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build chatter goes to stderr so the last line of stdout stays the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/compadres-benchmark" "$@"
