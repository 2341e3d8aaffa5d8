#!/usr/bin/env bash
# Canonical tier-1 entry point: hermetic build + test, fully offline.
#
# The workspace has zero registry dependencies (solero-testkit replaces
# rand/proptest/crossbeam/parking_lot in-tree), so everything
# below must succeed on a machine with no crates.io access at all.
# `--offline` is not a convenience here — it is the property under test.
#
# The stress/property substrate is deterministic: the pinned seed list
# replays the exact same schedules and generated cases on every run, and
# any failure prints the SOLERO_TESTKIT_SEED needed to reproduce it.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: offline release build =="
cargo build --release --offline --workspace

# Every intra-doc link must resolve: a rename or a deletion that leaves
# a doc comment pointing at a type that no longer exists fails here.
echo "== tier-1: docs build with no broken links =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# `--no-fail-fast` runs every test binary even after one fails, so a
# flaky test cannot hide the results of the binaries after it; the step
# still fails if any test does.
echo "== tier-1: offline test suite (default seeds) =="
cargo test -q --offline --workspace --no-fail-fast

# The recursion-bound contracts in solero-runtime::word are real
# assertions, not debug_asserts; running the suite on the release
# profile proves they still fire with debug assertions compiled out.
# The stripe property test runs here too: racing bumps, which are what
# expose two writers on one read stripe, are more frequent in an
# optimized build. So do the collections model tests: only an optimized
# build turns a TreeMap descent's left/right choice into `setg`/`cmov`.
echo "== tier-1: release-profile runtime asserts (recursion bounds, read stripes, tree turns) =="
cargo test -q --offline --release -p solero-runtime --lib --test stats_stripes_props
cargo test -q --offline --release -p solero-collections --test model_based

# The per-lock counter export needs no feature: obs_smoke writes the
# fleet's measured snapshots, and obs_check reads every line back with
# the same reader (and fails on an empty or malformed file).
echo "== tier-1: obs smoke (counter export, read back) =="
cargo build -q --offline -p solero-bench --bin obs_smoke --bin obs_check
rm -f results/obs.jsonl
./target/debug/obs_smoke > /dev/null
./target/debug/obs_check results/obs.jsonl

# Model-check the elision protocol (crates/mc). The instrumented
# runtime is selected by a cfg flag rather than a cargo feature so
# feature unification can never leak the scheduler into normal builds;
# the separate target dir keeps the two build graphs' caches apart.
#
# Budgets: 2-thread protocol scenarios are explored exhaustively
# (bounded preemption); the 3-thread collections scenarios (hashmap
# rehash, treemap rotation vs. elided readers) are drained under
# dynamic partial-order reduction, and tests/dpor_reduction.rs prints
# the before/after explored-executions count for the same scenarios
# under plain DFS. Both accept overrides — SOLERO_MC_SEED re-seeds the
# sampling mode and SOLERO_MC_BUDGET caps executions per scenario — so
# a failing schedule printed in CI can be replayed locally
# byte-for-byte. This run is uncapped: completeness assertions are
# live. It runs one test thread per binary, like the budgeted steps
# below: scenarios in one binary (bravo_mc's three, for one) share
# process state, and on parallel test threads they hang or fail
# replay with "DPOR prefix diverged".
echo "== tier-1: model checker (exhaustive 2-thread, DPOR 3-thread) =="
RUSTFLAGS="--cfg solero_mc" CARGO_TARGET_DIR=target/mc \
    cargo test -q --offline -p solero-sync -p solero-mc \
    -- --test-threads=1

# The mutation-kill harness flips each test-only protocol weakening
# (skip the exit re-read, demote it to Relaxed, stall the release
# counter, restore the word after a held section wrote, validate an
# exit wait on any free word) and requires the checker to report a
# violating schedule and replay it deterministically; the test fails
# if any mutant survives.
echo "== tier-1: mc mutation-kill (each weakened protocol must fail) =="
RUSTFLAGS="--cfg solero_mc" CARGO_TARGET_DIR=target/mc \
    cargo test -q --offline -p solero-mc --test mutation_kill

# Budgeted DPOR collections pass: the same rehash/rotation scenarios,
# re-run under a pinned seed with SOLERO_MC_BUDGET capping every
# search. This proves the budget knob keeps the step inside a fixed
# CI cost even if a scenario's state space regresses — the uncapped
# completeness run already happened in the main mc step above.
echo "== tier-1: mc collections under DPOR (budgeted, pinned seed) =="
SOLERO_MC_SEED=0x5EED0004 SOLERO_MC_BUDGET=6000 RUST_BACKTRACE=0 \
    RUSTFLAGS="--cfg solero_mc" CARGO_TARGET_DIR=target/mc \
    cargo test -q --offline -p solero-mc \
    --test collections_mc --test dpor_reduction \
    -- --nocapture --test-threads=1 \
    | grep -E "mc\[|test result"

# Budgeted weak-memory pass: the SB/MP litmus battery plus the §3.4
# barrier-table and WEAK_EXIT_LOAD kills, re-run with SOLERO_MC_BUDGET
# capping every search. The cap keeps the step inside a fixed CI cost
# (the clean-baseline searches are the expensive part, ~50k executions
# uncapped) while still sitting above both kills' discovery points
# (the weak-barrier violation surfaces within ~100 executions, the
# weak-exit-load one within ~16k), so the grep still proves the
# mutants die and replay. The uncapped completeness run already
# happened in the main mc step above.
echo "== tier-1: mc weak-memory litmus + barrier kill (budgeted) =="
SOLERO_MC_BUDGET=20000 RUST_BACKTRACE=0 \
    RUSTFLAGS="--cfg solero_mc" CARGO_TARGET_DIR=target/mc \
    cargo test -q --offline -p solero-mc \
    --test weak_memory --test barrier_kill \
    -- --nocapture --test-threads=1 \
    | grep -E "mc\[|killed|test result"

# Budgeted BRAVO revocation pass: the publish/revoke handshake drained
# three ways (exhaustive DFS, TSO store buffers, DPOR re-bias cycle)
# with SOLERO_MC_BUDGET bounding each search. The uncapped completeness
# run already happened in the main mc step above; this pins the budget
# knob and the replay path for the newest protocol the same way the
# collections and weak-memory steps do.
echo "== tier-1: mc bravo bias revocation (budgeted) =="
SOLERO_MC_SEED=0x5EEDB7A0 SOLERO_MC_BUDGET=20000 RUST_BACKTRACE=0 \
    RUSTFLAGS="--cfg solero_mc" CARGO_TARGET_DIR=target/mc \
    cargo test -q --offline -p solero-mc \
    --test bravo_mc \
    -- --nocapture --test-threads=1 \
    | grep -E "mc\[|test result"

# Budgeted store snapshot pass: the MVCC store's COW-install/epoch-bump
# handshake drained three ways (exhaustive DFS, TSO store buffers, DPOR
# with a checkpointer in the mix) with SOLERO_MC_BUDGET bounding each
# search. The uncapped completeness run already happened in the main mc
# step above; this pins the budget knob and the replay path for the
# store protocol the same way the bravo step does.
echo "== tier-1: mc store snapshot handshake (budgeted) =="
SOLERO_MC_SEED=0x5EED5705 SOLERO_MC_BUDGET=20000 RUST_BACKTRACE=0 \
    RUSTFLAGS="--cfg solero_mc" CARGO_TARGET_DIR=target/mc \
    cargo test -q --offline -p solero-mc \
    --test store_mc \
    -- --nocapture --test-threads=1 \
    | grep -E "mc\[|test result"

# Budgeted inline-seqlock pass: the writer-bump/reader-validate
# handshake drained three ways (exhaustive DFS, DPOR with two readers,
# DPOR under TSO store buffers) plus the driver's mutation kills on the
# sequence word (their own binary — the mutation switch is
# process-global), with SOLERO_MC_BUDGET bounding each search. The
# seqlock reads run the shared read driver, so these are its mutation
# points on the sequence word. The cap sits above the SC kills'
# discovery points (SKIP_EXIT_REREAD at 9 967 executions,
# HELD_EXIT_IGNORES_WRITE at 8 709, EXIT_WAIT_ANY_FREE at 6 under DPOR)
# but below the weak-memory one (158 820), so those three kills are
# re-proven here and the WEAK_EXIT_LOAD one prints its budget-capped
# skip; the uncapped completeness run already happened in the main mc
# step above.
echo "== tier-1: mc inline seqlock handshake + kills (budgeted) =="
SOLERO_MC_SEED=0x5EED5E01 SOLERO_MC_BUDGET=20000 RUST_BACKTRACE=0 \
    RUSTFLAGS="--cfg solero_mc" CARGO_TARGET_DIR=target/mc \
    cargo test -q --offline -p solero-mc \
    --test seqlock_mc --test seqlock_kill \
    -- --nocapture --test-threads=1 \
    | grep -E "mc\[|killed|test result"

# Budgeted compact-monitor pass: the compact word's inflate → deflate →
# re-inflate handoff drained three ways (exhaustive DFS under an elided
# reader, DPOR across a re-inflation cycle, DPOR under TSO store
# buffers aimed at the deflater's displaced-word store) plus the exact
# in-word counter law, with SOLERO_MC_BUDGET bounding each search. The
# uncapped completeness run already happened in the main mc step above;
# this pins the budget knob and the replay path for the newest protocol
# the same way the seqlock and store steps do.
echo "== tier-1: mc compact monitor handoff (budgeted) =="
SOLERO_MC_SEED=0x5EEDC03A SOLERO_MC_BUDGET=20000 RUST_BACKTRACE=0 \
    RUSTFLAGS="--cfg solero_mc" CARGO_TARGET_DIR=target/mc \
    cargo test -q --offline -p solero-mc \
    --test compact_mc \
    -- --nocapture --test-threads=1 \
    | grep -E "mc\[|test result"

# Replay the concurrency stress and property suites under a pinned seed
# matrix: different roots exercise different schedules/cases, and every
# one of them is reproducible by exporting the printed seed. Like the
# default-seed step, each replay runs every binary (`--no-fail-fast`)
# and fails if any test fails.
PINNED_SEEDS=(0x5EED0001 0xDECAFBAD 0x0DDBA11)
for seed in "${PINNED_SEEDS[@]}"; do
    echo "== stress/property replay: SOLERO_TESTKIT_SEED=${seed} =="
    SOLERO_TESTKIT_SEED="${seed}" cargo test -q --offline --no-fail-fast \
        --test read_elision_stress \
        --test collections_contention_stress \
        --test fallback_starvation \
        --test adaptive_policy_stress \
        --test bravo_reader_scaling \
        --test store_snapshot_stress \
        --test fallback_storm_stress
    SOLERO_TESTKIT_SEED="${seed}" cargo test -q --offline --no-fail-fast \
        -p solero \
        -p solero-runtime \
        -p solero-collections \
        -p solero-jit \
        -p solero-rwlock \
        -p solero-workloads \
        --test lock_state_props \
        --test zipf_props \
        --test word_props \
        --test model_based \
        --test random_programs \
        --test adaptive_policy_props \
        --test stats_export_props \
        --test stats_stripes_props
done

# The record bins (full-size runs are checked in as BENCH_*.json): a
# quick run of each proves it still drives its whole sweep, including
# the assertions it makes on the way (the footprint bound and table
# drain, lost ops, torn pairs), and the bin itself fails unless the
# record it wrote reads back through solero_bench::record.
for bench in adaptive bravo store seqlock compact; do
    echo "== tier-1: bench_$bench record smoke (quick) =="
    cargo run -q --offline -p solero-bench --bin "bench_$bench" -- \
        --quick --out "results/BENCH_${bench}_quick.json" 2> /dev/null
    test -s "results/BENCH_${bench}_quick.json"
done

# The paper's evaluation (checked in as BENCH_paper.json): a quick run
# of every target measures each cell once, renders every table from the
# cells, and fails unless the record reads back.
echo "== tier-1: reproduce record smoke (quick all) =="
cargo run -q --offline -p solero-bench --bin reproduce -- \
    --quick all --out results/BENCH_paper_quick.json > /dev/null 2> /dev/null
test -s results/BENCH_paper_quick.json

# The benchmark (perfbench/, a workspace of its own on path
# dependencies) checks the library from outside: its unit tests, the
# pinned op-stream digests and a `--quick` smoke of all four workloads,
# each of which checks every result and the teardown invariants. A
# library change that breaks any of them fails here, not only when the
# benchmark is next run.
echo "== tier-1: benchmark unit tests, digests and quick smoke =="
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== tier-1 green =="
