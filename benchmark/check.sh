#!/usr/bin/env bash
# Format, lint and unit-test the benchmark package.  The root workspace and
# its CI do not see this package, so nothing else runs these.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
