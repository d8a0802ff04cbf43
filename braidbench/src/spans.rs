//! Per-layer time from the spans the program emits.
//!
//! The IE streams its answers lazily, so the CMS's `cms.query` spans are
//! roots of their own rather than children of `ie.solve`: one AI query
//! yields a small forest. The benchmark therefore takes one batch of
//! events per AI query and charges the IE with whatever part of the
//! query's service time no `cms.query` span covers. Self time of a span
//! is its duration minus the part of its interval its direct children
//! cover.

use braid_trace::{TraceEvent, TraceKind};
use std::collections::HashMap;

/// Total length covered by a set of `[start, end)` intervals.
pub fn covered_us(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Sum of the self times of every span of `kind` in one id-consistent
/// batch, with the number of such spans.
pub fn self_time_us(events: &[TraceEvent], kind: TraceKind) -> (u64, u64) {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for e in events {
        if let Some(p) = e.parent {
            children
                .entry(p)
                .or_default()
                .push((e.start_us, e.start_us + e.dur_us));
        }
    }
    let (mut n, mut total) = (0, 0);
    for e in events.iter().filter(|e| e.kind == kind) {
        let (s, end) = (e.start_us, e.start_us + e.dur_us);
        let mut inside: Vec<(u64, u64)> = children
            .get(&e.id)
            .map(|c| {
                c.iter()
                    .map(|&(cs, ce)| (cs.clamp(s, end), ce.clamp(s, end)))
                    .collect()
            })
            .unwrap_or_default();
        n += 1;
        total += e.dur_us - covered_us(&mut inside);
    }
    (n, total)
}

/// Sum of the durations of every span of `kind`, with their count.
pub fn total_us(events: &[TraceEvent], kind: TraceKind) -> (u64, u64) {
    events
        .iter()
        .filter(|e| e.kind == kind)
        .fold((0, 0), |(n, t), e| (n + 1, t + e.dur_us))
}

/// Sum of a numeric field over every event of `kind`, with their count.
pub fn field_sum(events: &[TraceEvent], kind: TraceKind, key: &str) -> (u64, u64) {
    events
        .iter()
        .filter(|e| e.kind == kind)
        .fold((0, 0), |(n, t), e| {
            (
                n + 1,
                t + e
                    .field(key)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0),
            )
        })
}

/// Span ids are unique per tracer only. The server's `remote.request`
/// and the TCP pool's `net.*` events come from tracers of their own, so
/// they are left out before ids are matched.
fn session_events(events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    events
        .into_iter()
        .filter(|e| {
            !matches!(
                e.kind,
                TraceKind::RemoteRequest
                    | TraceKind::NetConnect
                    | TraceKind::NetRequest
                    | TraceKind::NetResume
            )
        })
        .collect()
}

/// Time and counts per layer, summed over the AI queries of a traced
/// window.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTally {
    /// AI queries folded in.
    pub queries: u64,
    /// Benchmark-timed `parse_query` calls and their total time.
    pub parses: u64,
    pub parse_ns: u64,
    /// `cms.query` spans, their total and self (minus `exec.run`) time.
    pub cms_queries: u64,
    pub cms_query_us: u64,
    pub cms_query_self_us: u64,
    /// Service time not covered by `cms.query` spans or parked waits.
    pub ie_self_us: u64,
    /// `exec.run` spans and their self time (minus cache and remote parts).
    pub exec_runs: u64,
    pub exec_self_us: u64,
    /// `exec.remote_fetch` spans and their total time.
    pub remote_fetches: u64,
    pub remote_fetch_us: u64,
    /// `cms.plan` events with their subsumption probe fields.
    pub plans: u64,
    pub plan_candidates: u64,
    pub plan_replans: u64,
    /// `sched.resume` events and their parked time.
    pub resumes: u64,
    pub park_wait_us: u64,
    /// Round trip minus the server-side window, per remote query.
    pub frontdoor_us: u64,
    pub frontdoor_queries: u64,
}

impl LayerTally {
    /// Fold one in-process AI query: its drained events and the
    /// benchmark-timed duration of the solve call.
    pub fn add_local(&mut self, events: Vec<TraceEvent>, service_us: u64) {
        let events = session_events(events);
        self.add_forest(&events, service_us);
    }

    /// Fold one query answered through the server: the grafted EXPLAIN
    /// events and the benchmark-timed round trip. The server-side window
    /// runs from the first server span's start to the last one's end;
    /// the rest of the round trip is the front door (read, run-queue
    /// wait, encode, write, wire).
    pub fn add_remote(&mut self, events: Vec<TraceEvent>, roundtrip_us: u64) {
        let server: Vec<TraceEvent> = session_events(events)
            .into_iter()
            .filter(|e| e.field("origin") == Some("server"))
            .collect();
        let start = server.iter().map(|e| e.start_us).min().unwrap_or(0);
        let end = server
            .iter()
            .map(|e| e.start_us + e.dur_us)
            .max()
            .unwrap_or(0);
        let window = end - start;
        self.frontdoor_us += roundtrip_us.saturating_sub(window);
        self.frontdoor_queries += 1;
        self.add_forest(&server, window);
    }

    fn add_forest(&mut self, events: &[TraceEvent], service_us: u64) {
        self.queries += 1;
        let (calls, cms_us) = total_us(events, TraceKind::Query);
        self.cms_queries += calls;
        self.cms_query_us += cms_us;
        self.cms_query_self_us += self_time_us(events, TraceKind::Query).1;
        let (runs, exec_self) = self_time_us(events, TraceKind::Execute);
        self.exec_runs += runs;
        self.exec_self_us += exec_self;
        let (fetches, fetch_us) = total_us(events, TraceKind::RemoteFetch);
        self.remote_fetches += fetches;
        self.remote_fetch_us += fetch_us;
        let (plans, candidates) = field_sum(events, TraceKind::PlanDecision, "candidates");
        self.plans += plans;
        self.plan_candidates += candidates;
        self.plan_replans += field_sum(events, TraceKind::PlanDecision, "replans").1;
        let (resumes, waited_us) = field_sum(events, TraceKind::SchedResume, "waited_us");
        self.resumes += resumes;
        self.park_wait_us += waited_us;
        self.ie_self_us += service_us.saturating_sub(cms_us + waited_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, parent: Option<u64>, kind: TraceKind, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            seq: id,
            id,
            parent,
            kind,
            label: String::new(),
            start_us,
            dur_us,
            fields: Vec::new(),
        }
    }

    fn with(mut e: TraceEvent, key: &'static str, value: &str) -> TraceEvent {
        e.fields.push((key, value.to_string()));
        e
    }

    #[test]
    fn covered_length_merges_overlaps_and_gaps() {
        assert_eq!(covered_us(&mut []), 0);
        assert_eq!(covered_us(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered_us(&mut [(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(covered_us(&mut [(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // q1 [0,100): exec [10,60) with a fetch [20,50) under it, and an
        // overlapping second exec [50,70). q2 [200,230) has no children.
        let events = vec![
            ev(3, Some(2), TraceKind::RemoteFetch, 20, 30),
            ev(2, Some(1), TraceKind::Execute, 10, 50),
            ev(4, Some(1), TraceKind::Execute, 50, 20),
            ev(5, Some(1), TraceKind::PlanDecision, 5, 0),
            ev(1, None, TraceKind::Query, 0, 100),
            ev(6, None, TraceKind::Query, 200, 30),
        ];
        // Query self: 100 - |[10,70)| = 40, plus 30 for the childless one.
        assert_eq!(self_time_us(&events, TraceKind::Query), (2, 70));
        // Exec self: 50 - 30 for the one with a fetch, 20 for the other.
        assert_eq!(self_time_us(&events, TraceKind::Execute), (2, 40));
        assert_eq!(total_us(&events, TraceKind::RemoteFetch), (1, 30));
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child reported past its parent's end (clock skew after a
        // graft) cannot drive self time negative.
        let events = vec![
            ev(2, Some(1), TraceKind::Execute, 5, 50),
            ev(1, None, TraceKind::Query, 0, 20),
        ];
        assert_eq!(self_time_us(&events, TraceKind::Query), (1, 5));
    }

    #[test]
    fn local_tally_charges_the_ie_with_uncovered_service_time() {
        let events = vec![
            ev(1, None, TraceKind::IeSolve, 0, 5),
            with(
                with(
                    ev(3, Some(2), TraceKind::PlanDecision, 11, 0),
                    "candidates",
                    "4",
                ),
                "replans",
                "1",
            ),
            ev(4, Some(2), TraceKind::Execute, 12, 30),
            ev(2, None, TraceKind::Query, 10, 40),
            with(
                with(
                    ev(6, Some(5), TraceKind::PlanDecision, 61, 0),
                    "candidates",
                    "6",
                ),
                "replans",
                "0",
            ),
            ev(5, None, TraceKind::Query, 60, 20),
            // Another tracer's id 4: dropped before ids are matched.
            ev(4, None, TraceKind::RemoteRequest, 0, 0),
        ];
        let mut t = LayerTally::default();
        t.add_local(events, 100);
        assert_eq!(t.queries, 1);
        assert_eq!(
            (t.cms_queries, t.cms_query_us, t.cms_query_self_us),
            (2, 60, 30)
        );
        assert_eq!(t.ie_self_us, 40);
        assert_eq!((t.exec_runs, t.exec_self_us), (1, 30));
        assert_eq!((t.plans, t.plan_candidates, t.plan_replans), (2, 10, 1));
    }

    #[test]
    fn remote_tally_splits_front_door_from_server_window() {
        let server = |e: TraceEvent| with(e, "origin", "server");
        let events = vec![
            ev(1, None, TraceKind::Query, 0, 500), // client request span
            server(ev(2, Some(1), TraceKind::IeSolve, 100, 10)),
            server(with(
                ev(4, Some(1), TraceKind::SchedResume, 250, 0),
                "waited_us",
                "90",
            )),
            server(ev(3, Some(1), TraceKind::Query, 150, 50)),
            server(ev(5, Some(1), TraceKind::Query, 260, 40)),
        ];
        let mut t = LayerTally::default();
        t.add_remote(events, 480);
        // Server window [100, 300) = 200 us; the client span is not a
        // server cms.query.
        assert_eq!((t.frontdoor_us, t.frontdoor_queries), (280, 1));
        assert_eq!((t.cms_queries, t.cms_query_us), (2, 90));
        assert_eq!((t.resumes, t.park_wait_us), (1, 90));
        assert_eq!(t.ie_self_us, 200 - 90 - 90);
    }
}
