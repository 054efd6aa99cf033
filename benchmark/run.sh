#!/usr/bin/env bash
# One command for the benchmark. Builds the standalone package (offline,
# release) and hands every argument to it:
#
#   benchmark/run.sh                      full suite: 4 untraced runs + traced pass, JSON summary
#   benchmark/run.sh --seed 20140627      same on the held-out seed
#   benchmark/run.sh --smoke              n = 64, < 15 s, every check and the schema validation
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1    one run (driver contract)
#   benchmark/run.sh compare BASE.json NEW.json                       regression gate
#
# Runs from the repository root so that benchmark/out/ is where results,
# traces and the per-run scratch directory land.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The driver points CARGO_TARGET_DIR at its own directory; standalone runs
# build into benchmark/target (ignored).
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/linview-benchmark" "$@"
