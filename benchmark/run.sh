#!/usr/bin/env bash
# The one command of the repo benchmark: build, run, check, report.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]      all five workloads
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --compare A.json B.json
#
# Results land in benchmark/out/ (results.json, trace.json). Builds
# offline into $CARGO_TARGET_DIR when set, else benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build chatter goes to stderr: stdout's last line is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/suv-benchmark" --out-dir "$here/out" "$@"
