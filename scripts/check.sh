#!/usr/bin/env bash
# Pre-commit gate: formatting, lints, docs, full test run, bench smokes.
#
#   ./scripts/check.sh
#
# Runs offline (the workspace vendors its dependencies; see vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check (workspace)"
cargo fmt -- --check

echo "== cargo clippy (workspace, -D warnings)"
cargo clippy --offline --workspace --no-deps --all-targets -- -D warnings

echo "== cargo doc (workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== qd-lint (workspace invariants, --deny)"
cargo run --offline -q -p qd-lint -- --deny

echo "== qd-lint (fixture corpus must FAIL the gate)"
if (cd crates/lint && cargo run --offline -q -p qd-lint -- --deny --config fixtures/qd-lint.toml fixtures >/dev/null 2>&1); then
    echo "qd-lint accepted the violation fixtures — the gate is broken" >&2
    exit 1
fi

echo "== qd-lint (interprocedural findings carry witness chains)"
(cd crates/lint && cargo run --offline -q -p qd-lint -- --config fixtures/qd-lint.toml fixtures || true) \
    | grep -q 'helpers/math.rs:9: \[panic-safety\].*\[via ' \
    || { echo "reachability finding lost its call chain" >&2; exit 1; }

echo "== qd-lint (--graph dot output matches the pinned fixture byte-for-byte)"
(cd crates/lint && cargo run --offline -q -p qd-lint -- --graph dot --config fixtures/qd-lint.toml fixtures/graph) \
    | diff -u crates/lint/fixtures/graph.dot - \
    || { echo "call-graph DOT drifted from crates/lint/fixtures/graph.dot" >&2; exit 1; }

echo "== cargo test"
cargo test --offline --workspace -q

echo "== repo benchmark builds (crates/bench/ledger against the current public API)"
cargo build --release --offline --manifest-path crates/bench/ledger/Cargo.toml

echo "== allocation gate (counting allocator, one batch-32 ConvNet local step: no backward tape nodes, large allocations at the pinned ceilings)"
cargo test --offline -p qd-nn --test alloc_gate -q

echo "== journal kill-and-resume (release, every state boundary)"
cargo test --offline --release -p qd-core --test journal_resume -q

echo "== serve kill-and-resume (release, every boundary kind + full Vfs crash matrix)"
cargo test --offline --release -p qd-serve --test chaos -q

echo "== crash-point matrix (release, kill at every Vfs op, stride 1)"
cargo test --offline --release -p qd-core --test crash_matrix -q

echo "== journal format corpus (release: pinned v1/v2 fixtures, corruption corpus, O(1) appends)"
cargo test --offline --release -p qd-core --test journal_format -q

echo "== poison-request matrix (release: quarantine exactness, kill-at-every-boundary, inertness)"
cargo test --offline --release -p qd-serve --test poison -q

echo "== isolation properties (release: ladder monotonicity, bisection order-insensitivity)"
cargo test --offline --release -p qd-serve --test isolation_props -q

echo "== chaos determinism + shrink + fixture replay (release, qd-chaos)"
cargo test --offline --release -p qd-chaos -q

echo "== whole-system chaos gate (release, pinned seed, 25 schedules, all invariants)"
# Faults this seed fired when the gate was pinned: a refactor that moves
# kill points must not silently disarm them.
CHAOS_MIN_FAULTS_FIRED=5
chaos_out=$(cargo run --offline --release -q -p qd-cli -- chaos --seed 7 --runs 25)
echo "$chaos_out"
fired=$(printf '%s\n' "$chaos_out" | sed -n 's/.* \([0-9][0-9]*\) fault(s) fired.*/\1/p' | tail -n 1)
if [ -z "$fired" ] || [ "$fired" -lt "$CHAOS_MIN_FAULTS_FIRED" ]; then
    echo "chaos gate fired ${fired:-no} fault(s); at least $CHAOS_MIN_FAULTS_FIRED must fire" >&2
    exit 1
fi

echo "== chaos bench (smoke mode; refreshes BENCH_chaos.json)"
cargo bench --offline -p qd-bench --bench chaos -- --test

echo "== tail bench (smoke mode, 30% dropout)"
cargo bench --offline -p qd-bench --bench tail -- --test

echo "== divergence bench (smoke mode, 50x ascent spike)"
cargo bench --offline -p qd-bench --bench divergence -- --test

echo "== serve bench (smoke mode, crash-mid-batch resume; refreshes BENCH_serve.json)"
cargo bench --offline -p qd-bench --bench serve -- --test

echo "== storage bench (smoke mode, O(1) append contract; refreshes BENCH_storage.json)"
cargo bench --offline -p qd-bench --bench storage -- --test

echo "all checks passed"
