#!/usr/bin/env bash
# Times the table2 workload (BSCHED_RUNS=5) on the current tree against a
# pinned pre-optimization baseline commit and writes BENCH_eval.json.
#
# The baseline is built in a temporary git worktree, so the working tree
# is never touched. Wall times are best-of-N to shed scheduler noise.
#
# Usage: scripts/bench.sh [reps]   (default 5 timed reps per binary)
set -euo pipefail
cd "$(dirname "$0")/.."

# Last commit before the perf work: single-threaded, double-simulation,
# allocating weights kernel. First commit that builds offline.
BASELINE_COMMIT=80499425dd0d2af96f2341fe13337bacaadc67bb
REPS="${1:-5}"
RUNS=5

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

# best_of <reps> <binary> — prints the fastest wall time in ms.
best_of() {
    local reps="$1" bin="$2" best=-1 t0 t1 dt
    # One untimed warm-up run to fault the binary and data in.
    BSCHED_RUNS=$RUNS "$bin" > /dev/null 2>&1
    for _ in $(seq "$reps"); do
        t0=$(now_ms)
        BSCHED_RUNS=$RUNS "$bin" > /dev/null 2>&1
        t1=$(now_ms)
        dt=$(( t1 - t0 ))
        if [ "$best" -lt 0 ] || [ "$dt" -lt "$best" ]; then best=$dt; fi
    done
    echo "$best"
}

echo "building current tree..." >&2
cargo build --release -q -p bsched-bench

# --- Crash-safe results pass -------------------------------------------
# Before timing anything, produce the actual table once under a journal:
# every finished cell is recorded with an atomic temp+rename write, so an
# interrupted run (Ctrl-C, SIGTERM, OOM kill) leaves a valid prefix
# behind and the next invocation resumes from it instead of restarting —
# the harness prints "resumed N of M cells from the journal" on stderr
# when that happens. A completed pass removes the journal so stale state
# can never leak into a later run. Timing reps below deliberately run
# without the journal: they must re-evaluate every cell.
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

current_ms=$(best_of "$REPS" ./target/release/table2)
echo "current:  ${current_ms}ms (best of $REPS, BSCHED_RUNS=$RUNS)" >&2

# --- Serving pass -------------------------------------------------------
# Throughput/latency/cache numbers for the bsched-serve daemon, written
# to BENCH_serve.json by the load generator itself (atomic temp+rename,
# so an interrupted run keeps the previous good report — same discipline
# as the journal above). This runs against the *current* tree only (the
# baseline commit below predates the serve subsystem), with an
# in-process server so nothing needs backgrounding. After the two cache
# passes and the pipelined burst, --sweep replays the warmed mix at
# rising client counts and records the throughput/latency curve into the
# report's "sweep" array.
echo "serve pass (loadgen, 2 passes + concurrency sweep)..." >&2
cargo build --release -q -p bsched-serve
./target/release/bsched-loadgen \
    --spawn --clients 8 --passes 2 --runs $RUNS \
    --burst 16 --sweep 1,2,4,8,16,32,64 \
    --expect-hit-rate 90 --out BENCH_serve.json
echo "wrote BENCH_serve.json (incl. sweep curve)" >&2

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
# failed membership transition fails the bench.
echo "fleet chaos pass (kill-one, add/drain membership, scale-out curve)..." >&2
cargo build --release -q -p balanced-scheduling
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
# restarting. BENCH_tune.json is the record.
echo "tune pass (beam search over all stand-ins)..." >&2
./target/release/bsched tune --benchmarks --seed 42 --runs $RUNS \
    --journal results/.tune-journal --bench-out BENCH_tune.json
rm -f results/.tune-journal*.jsonl
echo "wrote BENCH_tune.json" >&2

# Shallow clones and fresh checkouts may not carry the baseline commit;
# fail with a clear message instead of a cryptic worktree error.
if ! git cat-file -e "$BASELINE_COMMIT^{commit}" 2>/dev/null; then
    echo "error: baseline commit $BASELINE_COMMIT is not in this clone." >&2
    echo "       Fetch full history first (git fetch --unshallow) or update" >&2
    echo "       BASELINE_COMMIT in scripts/bench.sh." >&2
    exit 1
fi

worktree=$(mktemp -d /tmp/bsched-bench-baseline.XXXXXX)
rmdir "$worktree"
echo "building baseline $BASELINE_COMMIT in a worktree..." >&2
git worktree add --detach -q "$worktree" "$BASELINE_COMMIT"
trap 'git worktree remove --force "$worktree" 2>/dev/null || true' EXIT
(cd "$worktree" && cargo build --release -q -p bsched-bench)
baseline_ms=$(best_of "$REPS" "$worktree/target/release/table2")
echo "baseline: ${baseline_ms}ms (best of $REPS, BSCHED_RUNS=$RUNS)" >&2

# Shell arithmetic only (no bc in the container): speedup to 2 decimals.
speedup_x100=$(( baseline_ms * 100 / current_ms ))
speedup="$(( speedup_x100 / 100 )).$(printf '%02d' $(( speedup_x100 % 100 )))"

cat > BENCH_eval.json <<JSON
{
  "workload": "table2",
  "env": { "BSCHED_RUNS": $RUNS },
  "reps": $REPS,
  "timing": "best-of-reps wall clock, milliseconds",
  "baseline_commit": "$BASELINE_COMMIT",
  "current_commit": "$(git rev-parse HEAD)",
  "threads_available": $(nproc),
  "baseline_ms": $baseline_ms,
  "current_ms": $current_ms,
  "speedup": $speedup
}
JSON
echo "wrote BENCH_eval.json (speedup ${speedup}x)" >&2
