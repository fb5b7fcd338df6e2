#!/usr/bin/env bash
# Offline CI gate for the CPPC reproduction. The workspace has zero
# external dependencies (PRNGs, JSON and the campaign engine are all
# in-tree), so every step below must succeed with no network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== non-test lines under crates/ (informational; never fails)"
# The size every change reports in CHANGES.md; per-file counts come
# from running the script itself.
scripts/nontest_loc.sh | tail -n 1 || true

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test -q --workspace

echo "== cargo test without SIMD (scalar/SWAR kernels pinned)"
# The simd feature is default-on; the scalar universe must stay green
# too. The differential tests inside pin SIMD == SWAR == naive scalar
# and batched == sequential, so both universes prove the same results.
cargo test -q -p cppc-ecc --no-default-features
cargo test -q -p cppc-bench --no-default-features --features obs

echo "== kernel + batch differential tests (release codegen)"
# Production campaigns run optimized code; re-pin the kernel and batch
# equivalences under the release profile.
cargo test -q --release -p cppc-ecc kernels
cargo test -q --release -p cppc-bench --test batch_differential

echo "== cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== perf smoke (microbench suite, one iteration each)"
# Bench targets use harness = false; without --bench the in-tree
# harness runs every benchmark once as a smoke test (compile + run,
# no timing assertions).
for bench in codecs hierarchy recovery scheme_ops; do
    cargo test -q --release -p cppc-bench --bench "$bench" > /dev/null
done

echo "== benchmark tests (perfbench, reduced-size workloads)"
# The benchmark is its own cargo workspace; its tests run each
# workload at reduced size, check outputs, and pin metric names and
# units to BENCHMARK.json.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== campaign scaling (thread determinism; advisory speedup)"
# The binary asserts tally identity across thread counts itself. The
# speedup assertion only applies where the host could actually run the
# parallel leg: on single-core or thread-limited hosts the baseline
# records "speedup": null and the check is skipped, not failed.
SCALING_JSON="$(mktemp)"
cargo run -q --release -p cppc-bench --bin campaign_scaling -- \
    --trials 20000 --out "$SCALING_JSON" > /dev/null
if grep -q '"speedup":null' "$SCALING_JSON"; then
    echo "  speedup check skipped: $(grep -o '"note":"[^"]*"' "$SCALING_JSON")"
else
    SPEEDUP=$(grep -o '"speedup":[0-9.]*' "$SCALING_JSON" | cut -d: -f2)
    awk -v s="$SPEEDUP" 'BEGIN { exit !(s > 1.0) }' || {
        echo "parallel campaign leg slower than sequential (speedup $SPEEDUP)" >&2
        exit 1
    }
fi
rm -f "$SCALING_JSON"

echo "== hot-path throughput gate (vs BENCH_hotpath.json baseline)"
# Measures the mbe_coverage campaign both ways: the sequential leg
# fails below 0.9x the committed baseline trials/sec (CI noise
# allowance); the batched leg fails below the committed
# target_trials_per_sec floor (1M trials/sec). It then times the
# dispatched and SWAR form of each parity kernel on the same host and
# fails if any dispatched kernel is slower than its SWAR form: a ratio
# that does not depend on the host, and that catches a vector helper
# compiled without its #[target_feature] (skipped when the dispatch is
# SWAR itself).
cargo run -q -p cppc-bench --release --bin hotpath -- --gate BENCH_hotpath.json

echo "== trace pipeline gate (vs BENCH_timing.json baseline)"
# Measures all three trace ingestion legs (sequential text replay,
# binary materialize + batch, streaming chunked reader): each fails
# below 0.9x its committed ops/sec, and the streaming leg must hold the
# recorded speedup target over the sequential baseline. The binary also
# asserts the final hierarchy digests are identical across legs.
cargo run -q -p cppc-bench --release --bin timing -- --gate BENCH_timing.json

echo "== trace round-trip byte identity (text -> bin -> text)"
# The text and binary trace encodings must be lossless inverses: a
# recorded text trace converted to the binary format and back must be
# byte-identical to the original file.
TRACE_TMP="$(mktemp -d)"
TRACE_CLI=target/release/cppc-cli
"$TRACE_CLI" trace record --ops 50000 --seed 7 --format text \
    --out "$TRACE_TMP/a.txt" > /dev/null
"$TRACE_CLI" trace convert --in "$TRACE_TMP/a.txt" --to bin \
    --out "$TRACE_TMP/a.cppct" > /dev/null
"$TRACE_CLI" trace convert --in "$TRACE_TMP/a.cppct" --to text \
    --out "$TRACE_TMP/b.txt" > /dev/null
cmp "$TRACE_TMP/a.txt" "$TRACE_TMP/b.txt" || {
    echo "text -> bin -> text trace round trip is not byte-identical" >&2
    exit 1
}
rm -rf "$TRACE_TMP"

echo "== repro golden gates (fast tier)"
# Re-runs the fast-tier paper artifacts and fails if any gated metric
# leaves its tolerance band around the committed goldens in
# docs/results/ (see docs/RESULTS.md).
cargo run -q --release -p cppc-cli --bin cppc-cli -- repro --check

echo "== explore quick-tier gate (committed frontier matches the code)"
# Re-runs the quick-tier design-space sweep and fails if the committed
# docs/results/explore_quick.json differs byte-for-byte from what the
# models produce (or if the frontier degenerates to CPPC-only points).
cargo run -q --release -p cppc-cli --bin cppc-cli -- explore --quick --check

echo "== explore full-tier gate (committed explore_full.json matches the code)"
# The same byte gate for the full tier: its 432 configs price every
# scheme x interleave x scrub point through the timing, energy, area
# and MTTF models (a few seconds on two cores).
cargo run -q --release -p cppc-cli --bin cppc-cli -- explore --check

echo "== generated docs freshness"
# docs/{RESULTS,SCHEMES,EXPLORER,METRICS}.md are pure functions of the
# code and the committed docs/results/*.json documents; re-rendering
# them in memory (no simulation) must match the committed bytes. Fails
# naming each stale file; regenerate with
# 'cargo run --release -p cppc-cli -- docs'.
cargo run -q --release -p cppc-cli --bin cppc-cli -- docs --check

echo "== serve smoke (daemon round-trip + kill-and-restart resume)"
# Exercises the job service across a real process boundary: submit
# mbe, scheme and montecarlo campaigns, watch each to completion, and
# require every result document to be byte-identical to a direct
# `campaign --json` run of the same spec. Then interrupt a second job with a graceful shutdown, restart
# the daemon on the same data dir, and require the resumed job to merge
# to the same bytes as its own direct run, and the first job's result,
# now served from the journal, to be the bytes served before.
CLI=target/release/cppc-cli
SERVE_TMP="$(mktemp -d)"
SOCK="$SERVE_TMP/d.sock"
trap 'rm -rf "$SERVE_TMP"' EXIT
"$CLI" serve --data-dir "$SERVE_TMP/data" --socket "$SOCK" --max-threads 2 \
    > "$SERVE_TMP/serve1.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "serve daemon never bound $SOCK" >&2; exit 1; }
JOB=$("$CLI" submit --socket "$SOCK" --kind mbe \
    --trials 400 --seed 49374 --shard-size 32 2> /dev/null)
"$CLI" watch --socket "$SOCK" --id "$JOB" > "$SERVE_TMP/served.json" 2> /dev/null
"$CLI" campaign --kind mbe --trials 400 --seed 49374 --shard-size 32 --json \
    > "$SERVE_TMP/direct.json" 2> /dev/null
cmp "$SERVE_TMP/served.json" "$SERVE_TMP/direct.json" || {
    echo "service result diverged from direct campaign run" >&2; exit 1
}
# The same gate for a scheme-zoo campaign and a Monte Carlo MTTF run:
# `submit --watch` prints the served result document on stdout.
"$CLI" submit --socket "$SOCK" --kind scheme --scheme secded-interleaved \
    --trials 300 --seed 4242 --shard-size 16 --watch \
    > "$SERVE_TMP/served_scheme.json" 2> /dev/null
"$CLI" campaign --kind scheme --scheme secded-interleaved \
    --trials 300 --seed 4242 --shard-size 16 --json \
    > "$SERVE_TMP/direct_scheme.json" 2> /dev/null
cmp "$SERVE_TMP/served_scheme.json" "$SERVE_TMP/direct_scheme.json" || {
    echo "served scheme job diverged from direct campaign run" >&2; exit 1
}
"$CLI" submit --socket "$SOCK" --kind montecarlo --rate 30 --domains 4 \
    --tavg 0.002 --trials 5000 --seed 99 --threads 2 --watch \
    > "$SERVE_TMP/served_mc.json" 2> /dev/null
"$CLI" campaign --kind montecarlo --rate 30 --domains 4 --tavg 0.002 \
    --trials 5000 --seed 99 --json \
    > "$SERVE_TMP/direct_mc.json" 2> /dev/null
cmp "$SERVE_TMP/served_mc.json" "$SERVE_TMP/direct_mc.json" || {
    echo "served montecarlo job diverged from direct campaign run" >&2; exit 1
}
# Kill-and-restart: a slow job suspended by a graceful shutdown must
# resume on restart and still match its direct run bit for bit.
JOB2=$("$CLI" submit --socket "$SOCK" --kind sleep --sleep-ms 20 \
    --trials 100 --seed 777 --shard-size 4 2> /dev/null)
sleep 1
"$CLI" shutdown --socket "$SOCK" 2> /dev/null
wait "$SERVE_PID"
"$CLI" serve --data-dir "$SERVE_TMP/data" --socket "$SOCK" --max-threads 2 \
    > "$SERVE_TMP/serve2.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
"$CLI" watch --socket "$SOCK" --id "$JOB2" > "$SERVE_TMP/resumed.json" 2> /dev/null
"$CLI" campaign --kind sleep --sleep-ms 20 --trials 100 --seed 777 \
    --shard-size 4 --json > "$SERVE_TMP/direct2.json" 2> /dev/null
cmp "$SERVE_TMP/resumed.json" "$SERVE_TMP/direct2.json" || {
    echo "resumed job diverged from direct campaign run" >&2; exit 1
}
# History across the restart: the mbe job finished under the first
# daemon, so the second one serves its result from the journal alone.
"$CLI" watch --socket "$SOCK" --id "$JOB" > "$SERVE_TMP/history.json" 2> /dev/null
cmp "$SERVE_TMP/history.json" "$SERVE_TMP/served.json" || {
    echo "journalled result of a finished job diverged after restart" >&2; exit 1
}
"$CLI" shutdown --socket "$SOCK" 2> /dev/null
wait "$SERVE_PID"

echo "CI OK"
