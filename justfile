# Common developer entry points. `just ci` is what the repo gates on.

# fmt --check, build, test (incl. executor differential and trace/EXPLAIN
# suites), clippy -D warnings, E11 + E14 smoke runs.
ci:
    ./scripts/ci.sh

fmt:
    cargo fmt --all

fmt-check:
    cargo fmt --all -- --check

build:
    cargo build --release --workspace

test:
    cargo test --workspace -q

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Regenerate every EXPERIMENTS.md table (full sizes, markdown).
report:
    cargo run --release -p braid-bench --bin report -- --markdown

# Fast smoke run of all experiments.
report-quick:
    cargo run -p braid-bench --bin report -- --quick

bench:
    cargo bench --workspace

# The observability invariants (monotone counters, span forests,
# histogram algebra, EXPLAIN stability) plus the tracing-overhead smoke.
trace-check:
    cargo test --test trace_observability -q
    cargo test -p braid-trace -q
    cargo run -p braid-bench --bin report -- --quick --only E14

# Live server dashboard over the wire STATS protocol (DESIGN.md §14).
# `just top` attaches to a running server; `just top-demo` brings its
# own server + traffic; `just top-smoke` is the one-shot CI check.
top addr="127.0.0.1:7878":
    cargo run --release -p braid-load --bin top -- --addr {{addr}}

top-demo:
    cargo run --release -p braid-load --bin top -- --demo --interval-ms 500

top-smoke:
    cargo run --release -p braid-load --bin top -- --demo --once

# The network suites (DESIGN.md §11): frame codec + fault proxy
# (braid-net), TCP server/client-pool/transport (braid-remote), the
# socket chaos suite driving real workloads through the fault proxy,
# and the server-side chaos suite (proxy pointed at BraidServer).
net:
    cargo test -p braid-net -q
    cargo test -p braid-remote -q
    cargo test --release --test net_chaos -q
    cargo test --release --test server_chaos -q

# Deterministic simulation sweep (DESIGN.md §10): seeded scenarios through
# the step scheduler, every answer oracle-checked against the reference
# model; failures are shrunk to a replayable repro. Override the seed
# range with `just sim 500 100` (start, rounds).
sim start="0" rounds="200":
    SIM_SEED_START={{start}} SIM_ROUNDS={{rounds}} \
        cargo run --release -p braid-bench --bin sim

# Soak lane: the same seeds through the deterministic scheduler, a
# columnar-forced rerun digest-compared against the row run, the
# threaded runner (one OS thread per session over the shared cache),
# the socket runner (same sessions over a real TCP listener behind the
# fault proxy), AND the cooperative runner (same sessions as resumable
# state machines on a fixed worker pool — `workers` sets the pool size
# via SIM_WORKERS), in release so threads genuinely interleave. This
# subsumes the old 25-round `stress` loop: loom is not vendorable
# offline (DESIGN.md §7), so schedule coverage comes from seeded
# repetition.
soak start="0" rounds="400" workers="4" procs="0":
    SIM_SEED_START={{start}} SIM_ROUNDS={{rounds}} SIM_WORKERS={{workers}} SIM_PROCS={{procs}} \
        cargo run --release -p braid-bench --bin sim -- --soak
    cargo test --release --test concurrent_sessions -q
    cargo test --release --test cooperative_sessions -q

# Back-compat alias for the old stress entry point.
stress: soak

# The columnar-representation battery (DESIGN.md §15): the differential
# proptest suite (row ≡ columnar across batch sizes, round trips,
# dictionary/NULL edge cases), the sim oracle sweep with columnar
# forced on, and the E20 row-vs-columnar speedup table.
columnar:
    cargo test --test columnar_differential -q
    cargo test --test sim_oracle -q forty_seeded_scenarios_pass_with_columnar_forced_on
    cargo run --release -p braid-bench --bin report -- --quick --only E20

# Multi-process load generator (DESIGN.md §13): fork real client
# processes against a braid server, closed- or open-loop, every digest
# checked against the reference model. `just load 8 4000` runs 8
# processes at 4000 arrivals/s per process; rate 0 is closed loop.
load procs="4" rate="800" queries="200":
    cargo run --release -p braid-load --bin load -- \
        --procs {{procs}} --rate {{rate}} --queries {{queries}}

# Server-side chaos suite: the fault proxy pointed at BraidServer —
# resets, torn frames, outage windows, protocol garbage — asserting
# typed errors and drained gauges after every scenario.
server-chaos:
    cargo test --release --test server_chaos -q

# The end-to-end benchmark exactly as BENCHMARK.json declares it: every
# workload, oracle-checked, one JSON metrics line each. Pass braidbench
# flags through, e.g. `just braidbench --workload cold-fetch --trace 1`.
braidbench *args:
    cargo run --release --offline --quiet --manifest-path braidbench/Cargo.toml --bin braidbench -- {{args}}

# Narrated braid-server demo: N TCP clients multiplexed as resumable
# session state machines on a fixed worker pool (DESIGN.md §12).
serve:
    cargo run --release --example serve
