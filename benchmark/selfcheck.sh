#!/usr/bin/env bash
# Run the full set twice on the same commit and seed, and exit non-zero unless
# every end-to-end metric on every workload agrees within its own bound and
# every count is identical.  Arguments are passed on to `all` (for instance
# `--reps 3`); about 20 minutes at the default 5 reps.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/exsample-benchmark"
mkdir -p out
"$bin" all --seed 1 --trace --out out/selfcheck-A.json "$@"
"$bin" all --seed 1 --trace --out out/selfcheck-B.json "$@"
"$bin" agree out/selfcheck-A.json out/selfcheck-B.json
