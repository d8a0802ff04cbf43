//! `BENCHMARK.json` and `workloads.json` name exactly what the program
//! reports.

use braid_sim::Json;
use braidbench::report::{end_to_end, per_layer};
use braidbench::workloads::{Outcome, Window, Workload};

fn read(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn empty_outcome() -> Outcome {
    Outcome {
        setup_s: vec![1.0],
        window: Window::default(),
        untraced_solve_rate: None,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    }
}

/// `src` with every number that has a fraction or exponent quoted, so
/// the integer-only `Json` parser reads it (the bounds become strings).
fn quote_fractions(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let (mut in_str, mut escaped) = (false, false);
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        if in_str {
            (in_str, escaped) = (escaped || c != '"', !escaped && c == '\\');
            out.push(c);
        } else if c.is_ascii_digit() || c == '-' {
            let mut num = String::from(c);
            while let Some(&d) = chars.peek().filter(|d| "0123456789.eE+-".contains(**d)) {
                num.push(d);
                chars.next();
            }
            if num.contains(['.', 'e', 'E']) {
                out.push_str(&format!("\"{num}\""));
            } else {
                out.push_str(&num);
            }
        } else {
            in_str = c == '"';
            out.push(c);
        }
    }
    out
}

/// `(name, unit)` of each entry of one top-level list; `unit` is empty
/// where an entry has none.
fn entries(manifest: &Json, list: &str) -> Vec<(String, String)> {
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    manifest
        .req(list)
        .ok()
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no {list} list"))
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_program_reports() {
    let manifest =
        Json::parse(&quote_fractions(&read("../BENCHMARK.json"))).expect("BENCHMARK.json parses");
    let o = empty_outcome();
    let e2e: Vec<(String, String)> = end_to_end(&o, 1.0)
        .into_iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    for e in manifest
        .req("end_to_end")
        .ok()
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let bound: f64 = e
            .get("bound")
            .and_then(Json::as_str)
            .and_then(|b| b.parse().ok())
            .expect("a numeric bound");
        assert!(0.0 < bound && bound <= 0.25, "bound {bound}");
    }
    let mut listed = entries(&manifest, "end_to_end");
    listed.sort();
    let mut want = e2e;
    want.sort();
    assert_eq!(listed, want);
    let layers: Vec<(String, String)> = per_layer(&o)
        .into_iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(entries(&manifest, "per_layer"), layers);
    // server-open runs on demand only: its p99 is too unsteady to gate on.
    let workloads: Vec<String> = entries(&manifest, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let names: Vec<String> = Workload::ALL
        .iter()
        .filter(|&&w| w != Workload::ServerOpen)
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, names);
}

#[test]
fn workloads_json_maps_every_per_layer_metric() {
    let doc = Json::parse(&read("workloads.json")).expect("workloads.json parses");
    let map = doc.req("per_layer_map").expect("per_layer_map");
    for m in per_layer(&empty_outcome()) {
        assert!(
            map.get(m.name).and_then(Json::as_str).is_some(),
            "{} unmapped",
            m.name
        );
    }
    for w in Workload::ALL {
        let params = doc
            .req("workloads")
            .and_then(|ws| ws.req(w.name()))
            .expect("workload entry");
        for key in [
            "dataset", "queries", "cache", "remote", "loop", "warmup", "strategy", "why",
        ] {
            assert!(params.get(key).is_some(), "{} lacks {key}", w.name());
        }
    }
}
