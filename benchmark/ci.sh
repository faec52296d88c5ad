#!/usr/bin/env bash
# Smoke-run the benchmark: its unit tests, then every workload in both
# modes for ~2 s each (`--quick`), failing on any failed check. Quick
# results are marked `"quick": true` and refused by `swbench compare`.
#
# Not wired into .github/workflows/ci.yml yet: add
#   - run: benchmark/ci.sh
# there in a later change.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    all --quick --seed "${SEED:-1}" --out benchmark/out
