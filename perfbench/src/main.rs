//! The START benchmark: one command runs a named workload for a fixed
//! time, checks every answer against an oracle, and prints each metric by
//! name with its unit as the last line of standard output (one JSON
//! object).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_miss --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the window
//! twice (untraced, then traced, half the time each), probes each layer,
//! reports the per-layer metrics, and writes the spans and their self
//! times under `perfbench/traces/`. The workloads and metrics are listed in
//! `BENCHMARK.json` at the repository root, the metric ↔ layer map in
//! `perfbench/interactions.json`.
//!
//! Exit codes: 0 with a result line; 1 with a result line whose `correct`
//! is false (an oracle or a validity guard failed); 2 without a result
//! line (bad arguments).

mod inputs;
mod measure;
mod probe;
mod search;
mod serve;
mod trace;
mod train;

use std::fmt::Write as _;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["serve_miss", "search", "train"];

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?)
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: want 0 < s <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Named metrics, in report order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// What a workload run hands back: counts, oracle/guard failures, metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

/// The end-to-end metrics every workload reports, from its untraced
/// window, of which `correct` completions passed their oracle.
pub fn end_to_end(
    m: &mut Metrics,
    window: &measure::Window,
    correct: u64,
    peak_rss_mb: Option<f64>,
    setups: &measure::SetupTimes,
    errors: &mut Vec<String>,
) {
    let p90s: Vec<Option<f64>> =
        window.latencies_ms.iter().map(|l| measure::tail_percentile(l, 0.9)).collect();
    eprintln!("groups: throughput {:?}, p90 ms {p90s:.3?}", window.rates);
    eprintln!("set-ups: {:.4?} s", setups.times());
    match window.figures() {
        Ok(f) => {
            m.push("throughput_per_s", f.throughput, "1/s");
            m.push("latency_p50_ms", f.p50, "ms");
            m.push("latency_p90_ms", f.p90, "ms");
        }
        Err(e) => errors.push(e),
    }
    m.push("success_rate", correct as f64 / window.attempted.max(1) as f64, "ratio");
    match peak_rss_mb {
        Some(rss) => m.push("peak_rss_mb", rss, "MB"),
        None => errors.push("VmHWM unreadable".into()),
    }
    m.push("setup_s", setups.median(), "s");
}

fn result_json(o: &Outcome) -> String {
    let correct =
        o.errors.is_empty() && o.failed == 0 && o.metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN: a missing measurement is written as null and
        // the run is already marked incorrect above.
        let v = if value.is_finite() { format!("{value}") } else { "null".into() };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

/// Write the traced run's spans and self-time table under
/// `perfbench/traces/`, relative to the working directory.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let dir = std::path::Path::new("perfbench/traces");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let table = trace::self_time_table(tracer.spans());
    eprintln!("self times ({}):\n{table}", args.workload);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(dir.join(format!("{stem}.spans.tsv")), trace::spans_tsv(tracer.spans()))
        })
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.self.txt")), table));
    if let Err(e) = written {
        eprintln!("trace not written to {}: {e}", dir.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} cores {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "serve_miss" => serve::run_serve_miss(&args),
        "search" => search::run_search(&args),
        _ => train::run_train(&args),
    };
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let line = result_json(&outcome);
    println!("{line}");
    if line.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args(&["--workload", "search", "--seed", "3", "--seconds", "5", "--trace", "1"])
            .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("search", 3, 5.0, true));
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "train"]).is_err());
        assert!(args(&["--workload", "train", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "train", "--seed", "1", "--seconds", "0"]).is_err());
    }

    #[test]
    fn result_line_marks_missing_values_incorrect() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.5, "ms");
        let ok = Outcome { attempted: 3, failed: 0, errors: vec![], metrics: m };
        assert_eq!(
            result_json(&ok),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        let mut m = Metrics::default();
        m.push("x", f64::NAN, "ms");
        let bad = Outcome { attempted: 1, failed: 0, errors: vec![], metrics: m };
        assert!(result_json(&bad).starts_with("{\"correct\": false"));
    }
}
