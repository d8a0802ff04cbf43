#!/usr/bin/env bash
# The repo's CI gate: formatting, build, full test suite, the executor
# differential suite, the trace/EXPLAIN suite, the network suite (frame
# codec, fault proxy, socket chaos round), the braidbench suite,
# lint-as-error, and quick smoke runs of the fault-tolerance (E11) and
# tracing-overhead (E14) experiments. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> executor differential suite"
cargo test --test executor_differential -q

echo "==> columnar differential suite (row ≡ columnar, round trips)"
cargo test --test columnar_differential -q

echo "==> concurrent sessions suite (parallel harness)"
cargo test --test concurrent_sessions -q

echo "==> concurrent sessions suite (serialized harness)"
RUST_TEST_THREADS=1 cargo test --test concurrent_sessions -q -- --test-threads=1

echo "==> cooperative sessions suite (fixed worker pool)"
cargo test --test cooperative_sessions -q

echo "==> trace/EXPLAIN observability suite"
cargo test --test trace_observability -q
cargo test -p braid-trace -q

echo "==> simulation oracle suite (differential + golden EXPLAIN)"
cargo test --test sim_oracle -q
cargo test -p braid-sim -q

echo "==> simulation smoke (fixed seed set, 50 scenarios)"
SIM_SEED_START=0 SIM_ROUNDS=50 cargo run --release -p braid-bench --bin sim

echo "==> cooperative soak smoke (10 seeds, all four lanes + procs lane)"
SIM_SEED_START=0 SIM_ROUNDS=10 SIM_PROCS=2 cargo run --release -p braid-bench --bin sim -- --soak

echo "==> network suite (codec, proxy, pool) + one proxy chaos round"
cargo test -p braid-net -q
cargo test --release --test net_chaos -q
cargo run --release --example tcp_session > /dev/null

echo "==> server chaos suite (fault proxy pointed at BraidServer)"
cargo test --release --test server_chaos -q

echo "==> multi-process load smoke (2 forked clients, oracle-checked)"
cargo run --release -p braid-load --bin load -- --procs 2 --conns 1 --queries 40 --rate 0 > /dev/null
cargo run --release -p braid-load --bin load -- --procs 2 --conns 1 --queries 40 --rate 2000 > /dev/null

echo "==> wire observability suite (trace propagation, STATS, flight recorder)"
cargo test --release --test wire_observability -q

echo "==> top dashboard smoke (demo server, one STATS snapshot)"
cargo run --release -p braid-load --bin top -- --demo --once | grep -q "braid top"

echo "==> traced load smoke (wire tracing + 10 Hz STATS poller)"
cargo run --release -p braid-load --bin load -- --procs 2 --conns 1 --queries 40 --rate 0 --trace --stats-poll-hz 10 > /dev/null

echo "==> braid server round trip (serve example)"
cargo run --release --example serve > /dev/null

echo "==> braidbench suite (workload predictions, manifest in step with the program)"
cargo test --release --offline --manifest-path braidbench/Cargo.toml -q

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> E11 smoke report"
cargo run -p braid-bench --bin report -- --quick --only E11

echo "==> E14 tracing-overhead smoke report"
cargo run -p braid-bench --bin report -- --quick --only E14

echo "==> E17 session-scheduling smoke report"
cargo run -p braid-bench --bin report -- --quick --only E17

echo "==> E18 multi-process load smoke report"
cargo run -p braid-bench --bin report -- --quick --only E18

echo "==> E19 observability-overhead smoke report"
cargo run -p braid-bench --bin report -- --quick --only E19

echo "==> E20 columnar-kernels smoke report"
cargo run --release -p braid-bench --bin report -- --quick --only E20

echo "==> ci OK"
