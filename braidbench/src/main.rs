//! `braidbench --workload <hot-reuse|cold-fetch|server-mixed|server-open|all>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Build and run from the repository root with
//! `cargo run --release --manifest-path braidbench/Cargo.toml -- ...`;
//! test with `cargo test --release --manifest-path braidbench/Cargo.toml`.
//!
//! Prints a table of every metric with its unit, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the
//! per-layer ones traced). Exits non-zero on any wrong answer, error or
//! undrained server.

use braidbench::report::{self, Metric};
use braidbench::workloads::{Plan, Workload};
use std::process::ExitCode;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        println!("  {:<32} {:>14.4} {}", x.name, x.value, x.unit);
    }
}

/// Run one workload; `Ok(true)` when every answer was right and the
/// deployment drained.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let t0 = std::time::Instant::now();
    let plan = Plan::new(workload, args.seed, args.seconds)?;
    let plan_s = t0.elapsed().as_secs_f64();
    // The reference model's fixpoint peaks far above the bridge's own
    // footprint, so memory is sampled from here on instead of read from
    // the process-lifetime high-water mark.
    let rss = report::RssSampler::start()?;
    let outcome = if args.trace {
        plan.run_traced(args.seconds)?
    } else {
        plan.run(args.seconds, SETUP_REPS)?
    };
    let rss = rss.stop();
    let w = &outcome.window;
    println!(
        "braidbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  deployment: {}", workload.describe());
    println!("  plan: streams and expected answers in {plan_s:.2} s (not timed)");
    println!(
        "  host: available_parallelism={}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "  samples: {} latencies, pooled over the window ({} beyond p99), of {} queries attempted; setup_s over {} set-ups: {:?}",
        w.samples(),
        w.samples() / 100,
        w.attempted,
        outcome.setup_s.len(),
        outcome.setup_s
    );
    for p in &outcome.problems {
        println!("  PROBLEM: {p}");
    }
    let (title, metrics) = if args.trace {
        ("per-layer (traced window):", report::per_layer(&outcome))
    } else {
        ("end-to-end:", report::end_to_end(&outcome, rss))
    };
    print_table(title, &metrics);
    print_table("cost and failures:", &report::cost(&outcome));
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0;
    println!(
        "{}",
        report::json_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("braidbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for &w in &args.workloads {
        match run_one(w, &args) {
            Ok(correct) => ok &= correct,
            Err(e) => {
                eprintln!("braidbench {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
