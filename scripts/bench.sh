#!/usr/bin/env sh
# Tracked simulator benchmark: builds the workspace and runs capsule-bench's
# bench_sim, recording host wall-clock and simulated-cycles-per-host-second
# per catalog entry in BENCH_sim.json (schema capsule-bench-sim/1).
#
# See docs/PERF.md for how to read the numbers and how to compare
# against a saved baseline. The serving path is measured by the
# benchmark under capsbench/ (capsbench/README.md).
#
# Usage:
#   scripts/bench.sh                         # quick scale -> BENCH_sim.json
#   scripts/bench.sh --scale smoke           # fast sanity run
#   scripts/bench.sh --baseline old.json     # adds per-entry speedups
#   scripts/bench.sh --compare old.json      # throughput gate (exit 1 on
#                                            # regression beyond --noise)
# Arguments are passed through to bench_sim.
set -eu

cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
exec target/release/bench_sim "$@"
