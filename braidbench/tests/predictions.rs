//! The bypass predictions the workloads are built on, checked on short
//! traced runs (run with `cargo test --release`; debug builds are slow).

use braidbench::report::{cost, per_layer, Metric};
use braidbench::workloads::{Outcome, Plan, Workload};

fn traced(workload: Workload, seed: u64) -> Outcome {
    let outcome = Plan::new(workload, seed, 1.0)
        .and_then(|p| p.run_traced(1.0))
        .expect("workload runs");
    assert_eq!(
        outcome.failed, 0,
        "every answer matches the reference model"
    );
    assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
    assert!(outcome.window.attempted > 0);
    outcome
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn hot_reuse_never_reaches_the_remote_after_warm_up() {
    let o = traced(Workload::HotReuse, 11);
    let layers = per_layer(&o);
    assert_eq!(value(&cost(&o), "remote_requests_per_query"), 0.0);
    assert_eq!(value(&layers, "remote_kb_per_query"), 0.0);
    assert_eq!(value(&layers, "cms.hit_ratio"), 1.0);
    assert_eq!(value(&layers, "cms.evictions_per_query"), 0.0);
    assert!(value(&layers, "ie.cms_calls_per_query") > 1.0);
    assert_eq!(value(&layers, "trace.ring_dropped"), 0.0);
}

#[test]
fn cold_fetch_inserts_and_evicts_instead_of_hitting() {
    let o = traced(Workload::ColdFetch, 11);
    let layers = per_layer(&o);
    let hit = value(&layers, "cms.hit_ratio");
    assert!(0.0 < hit && hit < 1.0, "hit ratio {hit}");
    assert!(value(&layers, "cms.evictions_per_query") > 0.0);
    assert!(value(&layers, "remote_requests_per_query") > 0.0);
    assert!(value(&layers, "remote.fetch_us") > 0.0);
    assert!(value(&layers, "cms.cache_kb") <= 30.0);
    assert_eq!(value(&layers, "trace.ring_dropped"), 0.0);
}

#[test]
fn server_mixed_answers_through_the_front_door_and_drains() {
    let o = traced(Workload::ServerMixed, 11);
    let layers = per_layer(&o);
    assert!(value(&layers, "server.frontdoor_us") > 0.0);
    assert!(value(&layers, "remote_requests_per_query") > 0.0);
    assert_eq!(
        value(&layers, "loadgen.lag_ms_p99"),
        0.0,
        "closed loop sends on time"
    );
    assert_eq!(value(&layers, "trace.ring_dropped"), 0.0);
}

#[test]
fn server_open_sends_on_schedule_and_drains() {
    let o = traced(Workload::ServerOpen, 11);
    let layers = per_layer(&o);
    // One episode: one whole block, every query due on the schedule.
    assert_eq!(o.window.attempted, braidbench::streams::COLD_BLOCK as u64);
    assert!(value(&layers, "loadgen.lag_ms_p99") > 0.0);
    assert!(value(&layers, "server.frontdoor_us") > 0.0);
    assert_eq!(value(&layers, "trace.ring_dropped"), 0.0);
}
