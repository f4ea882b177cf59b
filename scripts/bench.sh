#!/usr/bin/env bash
# Regenerates the committed results: results/table2.txt (BSCHED_RUNS=5),
# BENCH_fleet.json and BENCH_tune.json.
#
# This script records results and correctness verdicts, not speed: the
# repository benchmark (`benchmark/`, see BENCHMARK.json) measures how
# fast the offline tables, the tuner and the daemon run.
#
# Usage: scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=5

echo "building current tree..." >&2
cargo build --release -q -p bsched-bench

# --- Crash-safe results pass -------------------------------------------
# Produce the table under a journal: every finished cell is recorded
# as one synced append, so an interrupted run (Ctrl-C, SIGTERM, OOM
# kill) leaves a valid prefix behind (a torn last line is cut) and the next
# invocation resumes from it instead of restarting — the harness prints
# "resumed N of M cells from the journal" on stderr when that happens. A
# completed pass removes the journal so stale state can never leak into
# a later run.
JOURNAL=results/.journal.jsonl
mkdir -p results
on_interrupt() {
    echo "" >&2
    echo "interrupted: partial results are preserved in $JOURNAL." >&2
    echo "re-run scripts/bench.sh to resume the remaining cells." >&2
    exit 130
}
trap on_interrupt INT TERM
echo "results pass (journal: $JOURNAL)..." >&2
BSCHED_JOURNAL="$JOURNAL" BSCHED_RUNS=$RUNS ./target/release/table2 > results/table2.txt
trap - INT TERM
rm -f "$JOURNAL"
echo "wrote results/table2.txt" >&2

# --- Fleet chaos + membership + scale-out pass --------------------------
# Fleet evidence, all in one loadgen run: three shard daemons (each with
# a persistent cache log) behind the consistent-hash router, then
#   1. --kill-shard SIGKILLs one shard mid-mix (zero failed client
#      requests), restarts it, and gates on a >=90% warm-replay hit rate;
#   2. --add-shard-at/--drain-shard-at run a fourth shard in and drain
#      shard 0 out while traffic flows (zero dropped requests, re-homed
#      key fraction <= 1.5/N, drained log warm-starts, streamed == plain
#      through the router);
#   3. --scaleout measures the 1/2/3-shard aggregate-throughput curve on
#      a service-time-bound mix (see EXPERIMENTS.md for why that makes
#      the curve portable to small CI hosts).
# The fleet run's report, with its "fleet", "membership", and
# "scaleout" sections, is BENCH_fleet.json.
# Exit code is the gate: any dropped request, a cold restart, or a
# failed membership transition fails the script.
echo "fleet chaos pass (kill-one, add/drain membership, scale-out curve)..." >&2
cargo build --release -q -p balanced-scheduling -p bsched-serve
fleet_dir=$(mktemp -d /tmp/bsched-fleet.XXXXXX)
./target/release/bsched-loadgen \
    --fleet 3 --kill-shard --clients 8 --passes 2 --runs $RUNS \
    --serve-bin ./target/release/bsched --cache-log-dir "$fleet_dir" \
    --add-shard-at 8 --drain-shard-at 16 --scaleout 1,2,3 \
    --expect-hit-rate 90 --out BENCH_fleet.json
rm -rf "$fleet_dir"
echo "wrote BENCH_fleet.json" >&2

# --- Autotuner pass -----------------------------------------------------
# Search-based policy tuning over all eight stand-ins under the paper's
# N(30,5) network. The tool writes BENCH_tune.json atomically
# (temp+rename), and each stand-in's search runs under its own
# crash-safe journal, so an interrupted pass resumes instead of
# restarting. BENCH_tune.json is the record, taken at the paper's 30
# runs per block.
echo "tune pass (beam search over all stand-ins)..." >&2
./target/release/bsched tune --benchmarks --seed 42 --runs 30 \
    --journal results/.tune-journal --bench-out BENCH_tune.json
rm -f results/.tune-journal*.jsonl
echo "wrote BENCH_tune.json" >&2
