//! Metric definitions and the result line.

use crate::stats::{percentile_of, ratio};
use crate::workloads::Outcome;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Resident set of this process (`VmRSS`), in KiB.
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmRSS in /proc/self/status".to_string())
}

/// Samples the resident set every few milliseconds on a thread of its
/// own and keeps the peak.
pub struct RssSampler {
    peak_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl RssSampler {
    /// # Errors
    /// When the resident set cannot be read.
    pub fn start() -> Result<RssSampler, String> {
        let peak_kb = Arc::new(AtomicU64::new(rss_kb()?));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (peak_kb, stop) = (Arc::clone(&peak_kb), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Ok(kb) = rss_kb() {
                        peak_kb.fetch_max(kb, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        Ok(RssSampler {
            peak_kb,
            stop,
            thread,
        })
    }

    /// Stop sampling; the peak in MiB.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
        if let Ok(kb) = rss_kb() {
            self.peak_kb.fetch_max(kb, Ordering::Relaxed);
        }
        self.peak_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }
}

/// The metrics a user of the bridge sees, from an untraced run.
pub fn end_to_end(o: &Outcome, rss_mb: f64) -> Vec<Metric> {
    vec![
        m("setup_s", "s", percentile_of(&o.setup_s, 50.0)),
        m("qps", "1/s", o.window.qps),
        m("latency_p50_ms", "ms", o.window.latency_ms(50.0)),
        m("latency_p99_ms", "ms", o.window.latency_ms(99.0)),
        m("peak_rss_mb", "MiB", rss_mb),
    ]
}

/// Failures and the bridge's load on the DBMS (the paper's cost
/// metric). Printed with every run; `remote_requests_per_query` and
/// `remote_kb_per_query` are zero by design on hot-reuse, so they are
/// reported as per-layer metrics rather than bounded end-to-end ones.
pub fn cost(o: &Outcome) -> Vec<Metric> {
    let w = &o.window;
    let q = w.attempted as f64;
    let r = &w.counters.metrics.remote;
    vec![
        m(
            "failed_ratio",
            "ratio",
            ratio(o.failed as f64, o.attempted as f64),
        ),
        m(
            "remote_requests_per_query",
            "count/query",
            ratio(r.requests as f64, q),
        ),
        m(
            "remote_kb_per_query",
            "KiB/query",
            ratio(r.bytes_shipped as f64 / 1024.0, q),
        ),
    ]
}

/// The per-layer breakdown, from a traced run.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let w = &o.window;
    let t = w.tally.clone().unwrap_or_default();
    let c = &w.counters.metrics.cms;
    let r = &w.counters.metrics.remote;
    let n = &w.counters.net;
    let q = w.attempted as f64;
    let tq = t.queries as f64;
    let mut out = vec![
        m(
            "caql.parse_us",
            "us",
            ratio(t.parse_ns as f64 / 1e3, t.parses as f64),
        ),
        m(
            "ie.cms_calls_per_query",
            "count/query",
            ratio(t.cms_queries as f64, tq),
        ),
        m(
            "ie.self_us_per_query",
            "us/query",
            ratio(t.ie_self_us as f64, tq),
        ),
        m(
            "advice.prefetches_per_query",
            "count/query",
            ratio(c.prefetched_queries as f64, q),
        ),
        m(
            "advice.generalized_per_query",
            "count/query",
            ratio(c.generalized_queries as f64, q),
        ),
        m(
            "subsume.candidates_per_probe",
            "count/probe",
            ratio(t.plan_candidates as f64, t.plans as f64),
        ),
        m(
            "subsume.replans_per_query",
            "count/query",
            ratio(t.plan_replans as f64, tq),
        ),
        m(
            "cms.query_self_us",
            "us",
            ratio(t.cms_query_self_us as f64, t.cms_queries as f64),
        ),
        m(
            "cms.hit_ratio",
            "ratio",
            ratio(c.full_cache_answers as f64, c.queries as f64),
        ),
        m(
            "cms.partial_ratio",
            "ratio",
            ratio(c.partial_cache_answers as f64, c.queries as f64),
        ),
        m(
            "cms.evictions_per_query",
            "count/query",
            ratio(c.evictions as f64, q),
        ),
        m("cms.cache_elements", "count", w.cache_elements as f64),
        m("cms.cache_kb", "KiB", w.cache_bytes as f64 / 1024.0),
        m(
            "cms.shard_lock_waits_per_query",
            "count/query",
            ratio(c.shard_lock_waits as f64, q),
        ),
        m(
            "exec.self_us_per_query",
            "us/query",
            ratio(t.exec_self_us as f64, tq),
        ),
        m(
            "exec.tuples_per_query",
            "count/query",
            ratio(c.executor_tuples as f64, q),
        ),
        m(
            "exec.batches_per_query",
            "count/query",
            ratio(c.executor_batches as f64, q),
        ),
        m(
            "remote.fetch_us",
            "us",
            ratio(t.remote_fetch_us as f64, t.remote_fetches as f64),
        ),
        m(
            "remote.units_per_request",
            "units/request",
            ratio(r.simulated_latency_units as f64, r.requests as f64),
        ),
        m(
            "remote.tuples_per_request",
            "count/request",
            ratio(r.tuples_shipped as f64, r.requests as f64),
        ),
        m("net.connects", "count", n.connects as f64),
        m(
            "net.pings_per_request",
            "count/request",
            ratio(n.health_checks as f64, n.requests as f64),
        ),
        m("net.resumes", "count", n.resumes as f64),
        m(
            "flight.dedup_ratio",
            "ratio",
            ratio(
                c.dedup_hits as f64,
                (c.dedup_hits + c.flight_fetches) as f64,
            ),
        ),
        m(
            "sched.parks_per_query",
            "count/query",
            ratio(c.sessions_parked as f64, q),
        ),
        m(
            "sched.park_wait_us",
            "us",
            ratio(t.park_wait_us as f64, t.resumes as f64),
        ),
        m("sched.run_queue_peak", "count", w.run_queue_peak as f64),
        m(
            "server.frontdoor_us",
            "us",
            ratio(t.frontdoor_us as f64, t.frontdoor_queries as f64),
        ),
        m("loadgen.lag_ms_p99", "ms", percentile_of(&w.lags_ms, 99.0)),
        m(
            "trace.overhead_ratio",
            "ratio",
            ratio(w.solve_rate(), o.untraced_solve_rate.unwrap_or(0.0)),
        ),
        m("trace.ring_dropped", "count", w.ring_dropped as f64),
    ];
    out.extend(cost(o).into_iter().skip(1));
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let line = json_line(
            true,
            3,
            0,
            &[m("qps", "1/s", 12.5), m("x", "count", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}, \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn sampled_peak_covers_an_allocation() {
        let sampler = RssSampler::start().expect("linux /proc");
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        std::thread::sleep(Duration::from_millis(30));
        drop(block);
        assert!(sampler.stop() >= 64.0);
    }
}
