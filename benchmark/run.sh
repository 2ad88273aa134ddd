#!/usr/bin/env bash
# Build the benchmark offline and run it. See README.md.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--quick] [--manifest]
#
# With no --workload every workload runs. The last line of standard
# output is one JSON result object per the contract in BENCHMARK.json
# (the last workload's, when several ran). Everything is read and
# written inside the checkout: the build, results.json, trace files and
# the durable workload's state directory all live under the cargo target
# directory ($CARGO_TARGET_DIR, else target/benchmark).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
cd "$root"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
GSBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export GSBENCH_COMMIT
exec "$target/release/gsbench" --out-dir "$target" "$@"
