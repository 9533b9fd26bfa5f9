//! `bench_e2e` — the repository's one pinned, self-checking benchmark.
//!
//! It runs the whole chain (websim corpus → crawl → filter-list labels →
//! `observe`/`commit` → JSON and binary decisions over a real socket →
//! replica bootstrap + delta) cut into four workloads at the points where
//! the users differ, measures every layer from outside, checks that every
//! output is correct and prints every metric by name with its unit. See
//! the README beside this file for the metric glossary and the
//! should-move table.
//!
//! ```text
//! bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! bench_e2e compare BEFORE.json AFTER.json
//! ```

mod host;
mod ingest;
mod load;
mod pipeline;
mod reference;
mod replay;
mod report;
mod serve;
mod stats;
mod study;
mod trace;

use crawler::json::{object, Value};
use host::{Clock, Reference};
use report::{Outcome, WorkloadResult};
use stats::Estimate;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads, in chain order. `study` bypasses every server-side
/// layer; `serve_binary` bypasses what `serve_json` stresses;
/// `ingest_replicate` is the only one that writes.
pub const WORKLOADS: [&str; 4] = ["study", "serve_json", "serve_binary", "ingest_replicate"];

/// A phase is never cut into fewer equal slices than this.
pub const MIN_SLICES: usize = 10;

const DEFAULT_SEED: u64 = 2021;
/// Measured seconds per workload (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per untraced run at least; `setup_s` is their median.
const SETUPS: usize = 5;
/// A cheap set-up is repeated for this long (never more than
/// `MAX_SETUPS` times), so the median of a 15 ms set-up is as steady as
/// that of a 1 s one.
const CHEAP_SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 40;
/// The traced run repeats the workload at this share of its budget.
const TRACED_SHARE: f64 = 0.25;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: bench_e2e [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
         \x20      bench_e2e compare BEFORE.json AFTER.json",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(".bench_e2e"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|seconds: &f64| *seconds > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// What one run of one workload is given.
pub struct Run<'a> {
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: f64,
    /// Set-ups to time at least (1 in the traced run).
    pub setups: usize,
    /// A directory the workload may write under.
    pub scratch: &'a Path,
    pub reference: &'a mut Reference,
}

impl Run<'_> {
    /// Everything before the first timed operation, several times over:
    /// `set_up` is timed on `clock` between two reference readings,
    /// `tear_down` disposes of every result but the last (untimed).
    /// Returns the last set-up and the estimate `setup_s` reports.
    pub fn set_up<T>(
        &mut self,
        clock: Clock,
        compute_share: f64,
        mut set_up: impl FnMut() -> T,
        mut tear_down: impl FnMut(T),
    ) -> (T, Estimate) {
        let began = Instant::now();
        let mut samples = Vec::new();
        let mut built: Option<T> = None;
        loop {
            let cheap = self.setups > 1
                && samples.len() < MAX_SETUPS
                && began.elapsed().as_secs_f64() < CHEAP_SETUP_SECONDS;
            if samples.len() >= self.setups && !cheap {
                break;
            }
            if let Some(previous) = built.take() {
                tear_down(previous);
            }
            let (result, sample) = self.reference.time(clock, &mut set_up);
            built = Some(result);
            samples.push(sample);
        }
        (
            built.expect("at least one set-up"),
            Estimate::of(samples, compute_share),
        )
    }
}

fn run_workload(name: &str, run: &mut Run<'_>, tracer: &mut Tracer) -> WorkloadResult {
    match name {
        "study" => study::run(run, tracer),
        "serve_json" => serve::run(serve::Codec::Json, run, tracer),
        "serve_binary" => serve::run(serve::Codec::Binary, run, tracer),
        "ingest_replicate" => ingest::run(run, tracer),
        other => unreachable!("workload `{other}` was validated at parse time"),
    }
}

fn compare_files(before: &str, after: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (before, after) = (load(before)?, load(after)?);
    for (side, doc) in [("before", &before), ("after", &after)] {
        if doc.get("disturbed") == Some(&Value::Bool(true)) {
            println!("note: the `{side}` run was marked disturbed (host probes moved >10%)");
        }
    }
    let rows = report::compare(&before, &after)?;
    println!(
        "{:<18} {:<26} {:>10} {:>8}  outcome",
        "workload", "metric", "worse by", "bound"
    );
    for row in &rows {
        println!(
            "{:<18} {:<26} {:>9.2}% {:>7.0}%  {}",
            row.workload,
            row.metric,
            row.worse_by * 100.0,
            row.bound * 100.0,
            match &row.outcome {
                Outcome::Within => "within bound".to_string(),
                Outcome::Regression => "REGRESSION".to_string(),
                Outcome::Missing => "MISSING from the second file".to_string(),
                Outcome::Unresolved(why) => format!("unresolved ({why})"),
            }
        );
    }
    let regressions = rows.iter().filter(|row| row.outcome.fails()).count();
    let unresolved = rows
        .iter()
        .filter(|row| matches!(row.outcome, Outcome::Unresolved(_)))
        .count();
    println!(
        "{} pairs: {regressions} regression(s), {unresolved} unresolved",
        rows.len()
    );
    Ok(regressions == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, before, after] = args.as_slice() else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        return match compare_files(before, after) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(error) => {
                eprintln!("compare: {error}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(&args.out).expect("create the output directory");

    // One process, pinned before anything is timed; every thread spawned
    // from here on inherits the mask.
    let nproc = host::nproc();
    let pinned = host::pin_to_one_cpu();
    let mut reference = Reference::start();
    let probe_before = reference.probe();
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut traces = Vec::new();
    let mut results = Vec::new();
    for name in &names {
        eprintln!(
            "[{name}] seed {}, {} s, untraced …",
            args.seed, args.seconds
        );
        host::reset_peak_rss();
        let mut run = Run {
            seed: args.seed,
            seconds: args.seconds,
            setups: SETUPS,
            scratch: &args.out,
            reference: &mut reference,
        };
        let mut result = run_workload(name, &mut run, &mut Tracer::new(false));
        if args.trace {
            eprintln!("[{name}] traced at {TRACED_SHARE} of the budget …");
            let mut tracer = Tracer::new(true);
            run.seconds *= TRACED_SHARE;
            run.setups = 1;
            let traced = run_workload(name, &mut run, &mut tracer);
            traces.push((*name, tracer.to_json()));
            let rate = |r: &WorkloadResult| r.value("throughput_per_s").unwrap_or(0.0);
            let overhead = 100.0 * (rate(&result) - rate(&traced)) / rate(&result);
            for (what, ok) in &traced.checks {
                result.check(format!("traced: {what}"), *ok);
            }
            result.per_layer = traced.per_layer;
            result.layer("trace.overhead_pct", overhead);
        }
        results.push(result);
    }
    let probe_after = reference.probe();
    drop(reference);
    let disturbed = probe_before.disturbed(&probe_after);
    for result in &mut results {
        if args.trace {
            result.layer("host.nproc", nproc as f64);
            result.layer("host.pinned", f64::from(u8::from(pinned.is_some())));
            result.layer("host.spin_ns", probe_before.spin_ns());
            result.layer("host.pingpong_us", probe_before.pingpong_us());
        }
        result.print();
    }

    let pair = |a: f64, b: f64| Value::Array(vec![Value::Number(a), Value::Number(b)]);
    let document = object(vec![
        ("benchmark", Value::String("bench_e2e".to_string())),
        ("claim", Value::Null),
        ("seed", Value::number_u64(args.seed)),
        ("seconds", Value::Number(args.seconds)),
        ("commit", Value::String(host::commit_hash())),
        ("rustc", Value::String(host::rustc_version())),
        ("nproc", Value::number_u64(nproc as u64)),
        (
            "pinned_cpu",
            pinned.map_or(Value::Null, |cpu| Value::number_u64(cpu as u64)),
        ),
        (
            "spin_ns",
            pair(probe_before.spin_ns(), probe_after.spin_ns()),
        ),
        (
            "pingpong_us",
            pair(probe_before.pingpong_us(), probe_after.pingpong_us()),
        ),
        ("disturbed", Value::Bool(disturbed)),
        (
            "workloads",
            Value::Array(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ]);
    let result_path = args.out.join("result.json");
    std::fs::write(&result_path, document.render()).expect("write result.json");
    println!(
        "\nhost: nproc {nproc}, pinned to cpu {pinned:?}, spin {:.3}→{:.3} ns, pingpong {:.1}→{:.1} us{}",
        probe_before.spin_ns(),
        probe_after.spin_ns(),
        probe_before.pingpong_us(),
        probe_after.pingpong_us(),
        if disturbed { " — DISTURBED" } else { "" }
    );
    println!("wrote {}", result_path.display());
    if args.trace {
        let trace_path = args.out.join("trace.json");
        std::fs::write(&trace_path, object(traces).render()).expect("write trace.json");
        println!("wrote {}", trace_path.display());
    }

    // The driver reads the last line of a single-workload run.
    if let [only] = results.as_slice() {
        println!("{}", only.driver_line(args.trace));
    }
    if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = args(&[
            "--workload",
            "serve_json",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(parsed.workload.as_deref(), Some("serve_json"));
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.seconds, 10.0);
        assert!(parsed.trace);
        let defaults = args(&[]).expect("valid");
        assert_eq!(defaults.workload, None);
        assert_eq!(defaults.seed, DEFAULT_SEED);
        assert!(!defaults.trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
