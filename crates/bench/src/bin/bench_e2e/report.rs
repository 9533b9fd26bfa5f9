//! The metric vocabulary (names, units, directions, regression bounds),
//! the per-workload result a run fills in, its JSON form, and `compare`.
//!
//! End-to-end names are *roles* a user of the system sees on every
//! workload — headline throughput, bulk throughput, median and tail
//! latency, set-up time, peak memory — because the driver wants every
//! end-to-end metric from every workload. What a role means on a given
//! workload is recorded next to each value (`meaning`) and tabulated in
//! the README.

use crate::stats::Estimate;
use crawler::json::{object, Value};
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// How many of [`END_TO_END`] every workload reports — the ones
/// `BENCHMARK.json` lists. The rest exist on `ingest_replicate` only and
/// are gated by `compare`, not by the driver.
pub const ON_EVERY_WORKLOAD: usize = 6;

/// Each bound is at least 1.5 times the widest interquartile spread (as a
/// share of the median) the metric showed over ten seeds on the reference
/// host in a busy hour — 0.16 on the serve tail, 0.12 or less on the other
/// latencies, 0.11 or less on the throughputs — so a run-to-run wobble is
/// not read as a regression (table in the README). `setup_s` (five
/// one-second set-ups per serve run, spread up to 0.19) has the largest.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_per_s", "1/s", Better::Higher, 0.20),
    e2e("bulk_throughput_per_s", "1/s", Better::Higher, 0.20),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("replica_sync_p50_ms", "ms", Better::Lower, 0.25),
    e2e("replica_bootstrap_p50_ms", "ms", Better::Lower, 0.25),
];

/// Every per-layer metric, by the repository's crate/module names. A
/// workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: &[Spec] = &[
    layer("websim.generate_ms", "ms", Lower),
    layer("websim.mutate_ms", "ms", Lower),
    layer("crawler.crawl_ms", "ms", Lower),
    layer("crawler.requests_captured", "count", Higher),
    layer("filterlist.engine_build_ms", "ms", Lower),
    layer("filterlist.request_build_ns", "ns", Lower),
    layer("filterlist.eval_ns", "ns", Lower),
    layer("filterlist.evals", "count", Lower),
    layer("filterlist.tracking_share", "ratio", Higher),
    layer("core.label.stage_ms", "ms", Lower),
    layer("core.memo.hit_rate", "ratio", Higher),
    layer("core.hierarchy.classify_ms", "ms", Lower),
    layer("core.hierarchy.attribution_pct", "%", Higher),
    layer("core.hierarchy.mixed_pct_domain", "%", Lower),
    layer("core.hierarchy.mixed_pct_hostname", "%", Lower),
    layer("core.hierarchy.mixed_pct_script", "%", Lower),
    layer("core.hierarchy.mixed_pct_method", "%", Lower),
    layer("core.service.observe_ns", "ns", Lower),
    layer("core.service.train_commit_ms", "ms", Lower),
    layer("core.service.reclassified_per_commit", "count", Lower),
    layer("core.snapshot.export_ms", "ms", Lower),
    layer("core.snapshot.bytes", "bytes", Lower),
    layer("core.journal.appended_per_epoch", "count", Lower),
    layer("core.journal.syncs_per_epoch", "count", Lower),
    layer("core.journal.bytes_per_observation", "bytes", Lower),
    layer("core.journal.checkpoints", "count", Higher),
    layer("core.journal.disk_wait_ms_per_epoch", "ms", Lower),
    layer("core.journal.recover_ms", "ms", Lower),
    layer("core.table.resolve_ns", "ns", Lower),
    layer("core.table.decide_ns", "ns", Lower),
    layer("core.decision.block_share", "ratio", Higher),
    layer("core.decision.surrogate_share", "ratio", Higher),
    layer("core.decision.rewrite_share", "ratio", Higher),
    layer("core.decision.backstop_share", "ratio", Lower),
    layer("rewriter.prescreen_ns", "ns", Lower),
    layer("rewriter.rewrite_ns", "ns", Lower),
    layer("core.frames.encode_ns", "ns", Lower),
    layer("core.frames.response_bytes", "bytes", Lower),
    layer("core.frames.delta_encode_ms", "ms", Lower),
    layer("core.frames.delta_decode_ms", "ms", Lower),
    layer("core.follower.apply_ms", "ms", Lower),
    layer("core.follower.table_ms", "ms", Lower),
    layer("core.follower.delta_bytes", "bytes", Lower),
    layer("core.follower.full_bytes", "bytes", Lower),
    layer("core.follower.delta_to_full_ratio", "ratio", Lower),
    layer("core.revision.changes_per_commit", "count", Lower),
    layer("server.http.parse_ns", "ns", Lower),
    layer("server.http.render_ns", "ns", Lower),
    layer("server.wire.json_decode_ns", "ns", Lower),
    layer("server.wire.observation_decode_ns", "ns", Lower),
    layer("server.wire.binary_decode_ns", "ns", Lower),
    layer("server.wire.request_bytes", "bytes", Lower),
    layer("server.worker.run_ns_per_request", "ns", Lower),
    layer("server.worker.wait_ns_per_request", "ns", Lower),
    layer("server.worker.residual_ns", "ns", Lower),
    layer("server.worker.requests", "count", Higher),
    layer("server.worker.errors", "count", Lower),
    layer("server.worker.shed", "count", Lower),
    layer("server.admin.run_ms_per_commit", "ms", Lower),
    layer("server.admin.wait_ms_per_commit", "ms", Lower),
    layer("client.run_ns_per_request", "ns", Lower),
    layer("scheduler.tick_ms", "ms", Lower),
    layer("scheduler.observations_per_s", "1/s", Higher),
    layer("scheduler.retention_rate", "ratio", Higher),
    layer("host.nproc", "count", Higher),
    layer("host.pinned", "count", Higher),
    layer("host.spin_ns", "ns", Lower),
    layer("host.pingpong_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.attributed_pct", "%", Higher),
];

fn spec_of(table: &'static [Spec], name: &str) -> &'static Spec {
    table
        .iter()
        .find(|spec| spec.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the vocabulary"))
}

/// One end-to-end value with what the harness knows about its steadiness.
#[derive(Debug, Clone)]
pub struct Measured {
    pub spec: &'static Spec,
    /// What the role means on this workload, naming the issue's metric.
    pub meaning: &'static str,
    pub estimate: Estimate,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub end_to_end: Vec<Measured>,
    pub per_layer: Vec<(&'static Spec, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that ran, with their outcome.
    pub checks: Vec<(String, bool)>,
}

impl WorkloadResult {
    pub fn new(name: &'static str) -> WorkloadResult {
        WorkloadResult {
            name,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
        }
    }

    /// Record an end-to-end value estimated over a run's slices.
    pub fn measured(&mut self, name: &str, meaning: &'static str, estimate: Estimate) {
        self.end_to_end.push(Measured {
            spec: spec_of(END_TO_END, name),
            meaning,
            estimate,
        });
    }

    /// Record the process's peak resident memory so far. Every workload
    /// calls this when its last timed slice has ended, before the untimed
    /// checks that follow (the restart at the end of `ingest_replicate`
    /// reads back a journal that is anywhere between empty and 8 MiB).
    pub fn measured_peak_rss(&mut self) {
        self.measured(
            "peak_rss_mb",
            "VmHWM of the process when the last timed slice ended",
            Estimate::once(crate::host::peak_rss_mb()),
        );
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.push((spec_of(PER_LAYER, name), value));
    }

    pub fn layer_value(&self, name: &str) -> f64 {
        self.per_layer
            .iter()
            .find(|(spec, _)| spec.name == name)
            .map_or(0.0, |(_, value)| *value)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|measured| measured.spec.name == name)
            .map(|measured| measured.estimate.value)
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        if !ok {
            eprintln!("[{}] CHECK FAILED: {what}", self.name);
        }
        self.checks.push((what, ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The line the driver reads: end-to-end metrics of the untraced run,
    /// or every per-layer metric of the traced one.
    pub fn driver_line(&self, traced: bool) -> String {
        let metric = |spec: &Spec, value: f64| {
            (
                spec.name,
                object(vec![
                    ("value", Value::Number(value)),
                    ("unit", Value::String(spec.unit.to_string())),
                ]),
            )
        };
        let metrics: Vec<(&str, Value)> = if traced {
            PER_LAYER
                .iter()
                .map(|spec| metric(spec, self.layer_value(spec.name)))
                .collect()
        } else {
            END_TO_END[..ON_EVERY_WORKLOAD]
                .iter()
                .map(|spec| {
                    let value = self.value(spec.name).unwrap_or_else(|| {
                        panic!("workload {} did not report {}", self.name, spec.name)
                    });
                    metric(spec, value)
                })
                .collect()
        };
        object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::number_u64(self.attempted.max(1))),
            ("failed", Value::number_u64(self.failed)),
            ("metrics", object(metrics)),
        ])
        .render()
    }

    pub fn to_json(&self) -> Value {
        let end_to_end = self
            .end_to_end
            .iter()
            .map(|measured| {
                object(vec![
                    ("name", Value::String(measured.spec.name.to_string())),
                    ("meaning", Value::String(measured.meaning.to_string())),
                    ("unit", Value::String(measured.spec.unit.to_string())),
                    (
                        "better",
                        Value::String(measured.spec.better.name().to_string()),
                    ),
                    ("bound", Value::Number(measured.spec.bound)),
                    ("value", Value::Number(measured.estimate.value)),
                    ("raw_value", Value::Number(measured.estimate.raw_value)),
                    ("best_decile", Value::Number(measured.estimate.best_decile)),
                    ("host_slowdown", Value::Number(measured.estimate.slowdown)),
                    ("contended", Value::Number(measured.estimate.contended)),
                    (
                        "compute_share",
                        Value::Number(measured.estimate.compute_share),
                    ),
                    ("spread", Value::Number(measured.estimate.spread)),
                    (
                        "slices",
                        Value::number_u64(measured.estimate.samples.len() as u64),
                    ),
                    // [raw value, compute kernel s, socket kernel s, CPU s
                    // other threads ran during the readings] per slice.
                    (
                        "samples",
                        Value::Array(
                            measured
                                .estimate
                                .samples
                                .iter()
                                .map(|sample| {
                                    Value::Array(vec![
                                        Value::Number(sample.raw),
                                        Value::Number(sample.host.compute_s),
                                        Value::Number(sample.host.socket_s),
                                        Value::Number(sample.host.foreign_s),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let per_layer = self
            .per_layer
            .iter()
            .map(|(spec, value)| {
                object(vec![
                    ("name", Value::String(spec.name.to_string())),
                    ("unit", Value::String(spec.unit.to_string())),
                    ("value", Value::Number(*value)),
                ])
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|(what, ok)| {
                object(vec![
                    ("check", Value::String(what.clone())),
                    ("passed", Value::Bool(*ok)),
                ])
            })
            .collect();
        object(vec![
            ("name", Value::String(self.name.to_string())),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::number_u64(self.attempted)),
            ("failed", Value::number_u64(self.failed)),
            ("failed_ratio", Value::Number(self.failed_ratio())),
            ("end_to_end", Value::Array(end_to_end)),
            ("per_layer", Value::Array(per_layer)),
            ("checks", Value::Array(checks)),
        ])
    }

    /// Every metric by name with its unit and sample count, for a person.
    pub fn print(&self) {
        println!(
            "\n== {} — {} ({} attempted, {} failed, failed_ratio {})",
            self.name,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            },
            self.attempted,
            self.failed,
            self.failed_ratio()
        );
        for measured in &self.end_to_end {
            println!(
                "  {:<26} {:>14.4} {:<4} (raw {:.4} at host slowdown {:.3}, best decile {:.4}, split-half {:.2}%, {} slices, {:.0}% contended)  {}",
                measured.spec.name,
                measured.estimate.value,
                measured.spec.unit,
                measured.estimate.raw_value,
                measured.estimate.slowdown,
                measured.estimate.best_decile,
                measured.estimate.spread * 100.0,
                measured.estimate.samples.len(),
                measured.estimate.contended * 100.0,
                measured.meaning
            );
        }
        for (spec, value) in &self.per_layer {
            println!("    {:<40} {:>16.4} {}", spec.name, value, spec.unit);
        }
    }
}

fn number(value: &Value, key: &str) -> Option<f64> {
    match value.get(key)? {
        Value::Number(number) => Some(*number),
        _ => None,
    }
}

/// How one (workload, metric) pair moved between two results.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Within,
    Regression,
    /// The workload or the metric is in `before` and not in `after`.
    Missing,
    /// The pair cannot tell a change of the bound's size, for the reason
    /// given.
    Unresolved(&'static str),
}

impl Outcome {
    /// Whether `compare` exits non-zero on this outcome.
    pub fn fails(&self) -> bool {
        matches!(self, Outcome::Regression | Outcome::Missing)
    }
}

pub const SPREAD_EXCEEDS_BOUND: &str = "slice spread exceeds the bound";
pub const READINGS_CONTENDED: &str = "the program's own threads ran through the reference readings";
pub const RAW_DISAGREES: &str = "the raw clock and the host-normalised value disagree";

/// A metric more than this share of whose slices were contended is not
/// resolved: the host slowdown it was divided by is not trustworthy.
const CONTENDED_SLICES: f64 = 0.10;

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// Relative change, positive when `after` is worse (absolute for
    /// `failed_ratio`, whose baseline is 0).
    pub worse_by: f64,
    pub bound: f64,
    pub outcome: Outcome,
}

fn named<'a>(list: &'a [Value], name: &str) -> Option<&'a Value> {
    list.iter()
        .find(|item| item.get("name").and_then(|n| n.as_str().ok()) == Some(name))
}

fn array_of(doc: &Value, key: &str) -> Vec<Value> {
    doc.get(key)
        .and_then(|list| list.as_array().ok())
        .map(<[Value]>::to_vec)
        .unwrap_or_default()
}

/// Compare two result documents pair by pair against each metric's bound.
///
/// Besides every end-to-end metric, each workload gets a `failed_ratio`
/// row (any increase is a regression) and, when `after` failed a
/// correctness check, a `correct` row. What `before` has and `after` lacks
/// is [`Outcome::Missing`], never skipped.
pub fn compare(before: &Value, after: &Value) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Value| -> Result<Vec<Value>, String> {
        doc.get("workloads")
            .and_then(|list| list.as_array().ok())
            .map(<[Value]>::to_vec)
            .ok_or_else(|| "result has no `workloads` array".to_string())
    };
    let mut rows = Vec::new();
    let after_workloads = workloads(after)?;
    for workload in workloads(before)? {
        let name = workload
            .get("name")
            .and_then(|name| name.as_str().ok())
            .ok_or("workload without a name")?;
        let row = |metric: &str, worse_by: f64, bound: f64, outcome: Outcome| Row {
            workload: name.to_string(),
            metric: metric.to_string(),
            worse_by,
            bound,
            outcome,
        };
        let Some(other) = named(&after_workloads, name) else {
            rows.push(row("(every metric)", 0.0, 0.0, Outcome::Missing));
            continue;
        };
        if other.get("correct") != Some(&Value::Bool(true)) {
            rows.push(row("correct", 1.0, 0.0, Outcome::Regression));
        }
        let failed_ratio =
            |doc: &Value| number(doc, "failed_ratio").ok_or(format!("{name} lacks `failed_ratio`"));
        let more_failures = failed_ratio(other)? - failed_ratio(&workload)?;
        rows.push(row(
            "failed_ratio",
            more_failures,
            0.0,
            if more_failures > 0.0 {
                Outcome::Regression
            } else {
                Outcome::Within
            },
        ));
        let other_metrics = array_of(other, "end_to_end");
        for metric in array_of(&workload, "end_to_end") {
            let metric_name = metric
                .get("name")
                .and_then(|n| n.as_str().ok())
                .ok_or("metric without a name")?;
            let field = |doc: &Value, key: &str| {
                number(doc, key).ok_or(format!("{name}/{metric_name} lacks `{key}`"))
            };
            let bound = field(&metric, "bound")?;
            let Some(counterpart) = named(&other_metrics, metric_name) else {
                rows.push(row(metric_name, 0.0, bound, Outcome::Missing));
                continue;
            };
            let higher_is_better =
                metric.get("better").and_then(|b| b.as_str().ok()) == Some("higher");
            let worse_by = |key: &str| -> Result<f64, String> {
                let (base, new) = (field(&metric, key)?, field(counterpart, key)?);
                let change = if base == 0.0 {
                    0.0
                } else {
                    (new - base) / base
                };
                Ok(if higher_is_better { -change } else { change })
            };
            let either = |key: &str| -> Result<f64, String> {
                Ok(field(&metric, key)?.max(field(counterpart, key)?))
            };
            let (normalised, raw) = (worse_by("value")?, worse_by("raw_value")?);
            let outcome = if either("spread")? > bound {
                Outcome::Unresolved(SPREAD_EXCEEDS_BOUND)
            } else if (normalised > bound) != (raw > bound) {
                // Either the host moved by more than the bound between the
                // two runs, or the normalisation hid (or invented) a change.
                Outcome::Unresolved(RAW_DISAGREES)
            } else if normalised > bound {
                Outcome::Regression
            } else if either("contended")? > CONTENDED_SLICES {
                // Busy threads can only make the host look slow, that is
                // the value look good: a loss stands, a pass does not.
                Outcome::Unresolved(READINGS_CONTENDED)
            } else {
                Outcome::Within
            };
            rows.push(row(metric_name, normalised, bound, outcome));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-made result of one workload with two metrics, read on a
    /// host `slowdown` times slower than the quiet reference.
    fn result_on(throughput: f64, spread: f64, latency: f64, slowdown: f64) -> Value {
        let (raw_throughput, raw_latency) = (throughput / slowdown, latency * slowdown);
        let text = format!(
            r#"{{"workloads":[{{"name":"serve_json","correct":true,"failed_ratio":0,"end_to_end":[
              {{"name":"throughput_per_s","better":"higher","bound":0.1,"value":{throughput},
                "raw_value":{raw_throughput},"spread":{spread},"contended":0}},
              {{"name":"latency_p50_ms","better":"lower","bound":0.1,"value":{latency},
                "raw_value":{raw_latency},"spread":0.01,"contended":0}}
            ]}}]}}"#
        );
        Value::parse(&text).expect("hand-made result parses")
    }

    fn result(throughput: f64, spread: f64, latency: f64) -> Value {
        result_on(throughput, spread, latency, 1.0)
    }

    /// The same document with `"key":from` replaced by `"key":to` once.
    fn edited(doc: &Value, from: &str, to: &str) -> Value {
        let text = doc.render();
        assert!(text.contains(from), "{from} not in {text}");
        Value::parse(&text.replacen(from, to, 1)).expect("edited result parses")
    }

    /// Outcomes of the end-to-end rows (the `failed_ratio` row of the one
    /// workload comes first and is checked on its own).
    fn outcomes(before: &Value, after: &Value) -> Vec<Outcome> {
        let rows = compare(before, after).expect("comparable");
        assert_eq!(rows[0].metric, "failed_ratio");
        rows.into_iter().skip(1).map(|row| row.outcome).collect()
    }

    #[test]
    fn a_change_inside_the_bound_passes() {
        let rows =
            compare(&result(1000.0, 0.02, 0.50), &result(950.0, 0.03, 0.52)).expect("comparable");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].outcome, Outcome::Within);
        assert_eq!(rows[1].outcome, Outcome::Within);
        assert!((rows[1].worse_by - 0.05).abs() < 1e-12);
        assert_eq!(rows[2].outcome, Outcome::Within);
        assert!((rows[2].worse_by - 0.04).abs() < 1e-9);
        assert!(rows.iter().all(|row| !row.outcome.fails()));
    }

    #[test]
    fn a_loss_beyond_the_bound_is_a_regression_in_either_direction() {
        // Throughput down 20% (higher is better) …
        assert_eq!(
            outcomes(&result(1000.0, 0.02, 0.50), &result(800.0, 0.02, 0.50)),
            vec![Outcome::Regression, Outcome::Within]
        );
        // … latency up 20% (lower is better); a gain is never a regression.
        assert_eq!(
            outcomes(&result(1000.0, 0.02, 0.50), &result(1500.0, 0.02, 0.60)),
            vec![Outcome::Within, Outcome::Regression]
        );
        assert!(Outcome::Regression.fails());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        assert_eq!(
            outcomes(&result(1000.0, 0.02, 0.50), &result(990.0, 0.15, 0.50)),
            vec![Outcome::Unresolved(SPREAD_EXCEEDS_BOUND), Outcome::Within]
        );
        assert!(!Outcome::Unresolved(SPREAD_EXCEEDS_BOUND).fails());
    }

    #[test]
    fn a_verdict_the_raw_clock_does_not_share_is_unresolved() {
        let before = result(1000.0, 0.02, 0.50);
        // The same normalised values read on a host 1.3x slower: the clock
        // says both metrics lost 30%, the normalisation says nothing moved.
        assert_eq!(
            outcomes(&before, &result_on(1000.0, 0.02, 0.50, 1.3)),
            vec![
                Outcome::Unresolved(RAW_DISAGREES),
                Outcome::Unresolved(RAW_DISAGREES)
            ]
        );
        // A loss both readings show is a regression whatever the host did.
        assert_eq!(
            outcomes(&before, &result_on(800.0, 0.02, 0.50, 1.05)),
            vec![Outcome::Regression, Outcome::Within]
        );
    }

    #[test]
    fn slices_read_through_a_busy_program_are_unresolved() {
        let after = edited(
            &result(1000.0, 0.02, 0.50),
            r#""contended":0"#,
            r#""contended":0.4"#,
        );
        assert_eq!(
            outcomes(&result(1000.0, 0.02, 0.50), &after),
            vec![Outcome::Unresolved(READINGS_CONTENDED), Outcome::Within]
        );
        // They can only flatter the value, so a loss read through them
        // stands.
        let slower = edited(
            &result(700.0, 0.02, 0.50),
            r#""contended":0"#,
            r#""contended":1"#,
        );
        assert_eq!(
            outcomes(&result(1000.0, 0.02, 0.50), &slower),
            vec![Outcome::Regression, Outcome::Within]
        );
    }

    #[test]
    fn any_increase_of_the_failed_ratio_is_a_regression() {
        let before = result(1000.0, 0.02, 0.50);
        // Faster, and failing one request in a thousand.
        let after = edited(
            &result(1200.0, 0.02, 0.40),
            r#""failed_ratio":0"#,
            r#""failed_ratio":0.001"#,
        );
        let rows = compare(&before, &after).expect("comparable");
        assert_eq!(rows[0].metric, "failed_ratio");
        assert_eq!(rows[0].outcome, Outcome::Regression);
        assert!((rows[0].worse_by - 0.001).abs() < 1e-12);
        // The other way round it got better.
        assert_eq!(
            compare(&after, &before).expect("comparable")[0].outcome,
            Outcome::Within
        );
    }

    #[test]
    fn an_incorrect_result_is_a_regression() {
        let before = result(1000.0, 0.02, 0.50);
        let after = edited(&before, r#""correct":true"#, r#""correct":false"#);
        let rows = compare(&before, &after).expect("comparable");
        assert_eq!(rows[0].metric, "correct");
        assert_eq!(rows[0].outcome, Outcome::Regression);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn what_the_after_file_lacks_is_missing_not_skipped() {
        let before = result(1000.0, 0.02, 0.50);
        let dropped_metric = edited(&before, r#""name":"latency_p50_ms""#, r#""name":"renamed""#);
        let rows = compare(&before, &dropped_metric).expect("comparable");
        assert_eq!(rows[2].metric, "latency_p50_ms");
        assert_eq!(rows[2].outcome, Outcome::Missing);
        assert!(rows[2].outcome.fails());
        let dropped_workload = edited(&before, r#""name":"serve_json""#, r#""name":"other""#);
        let rows = compare(&before, &dropped_workload).expect("comparable");
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].workload.as_str(), &rows[0].outcome),
            ("serve_json", &Outcome::Missing)
        );
    }

    #[test]
    fn the_vocabulary_has_unique_contract_conforming_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(spec.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_this_vocabulary() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = Value::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.field(key)
                .and_then(|list| list.as_array())
                .expect("metric list")
                .iter()
                .map(|metric| {
                    let text = |field: &str| {
                        metric
                            .field(field)
                            .and_then(|v| v.as_str())
                            .expect("string field")
                            .to_string()
                    };
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        number(metric, "bound"),
                    )
                })
                .collect()
        };
        let expect =
            |specs: &[Spec], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
                specs
                    .iter()
                    .map(|spec| {
                        (
                            spec.name.to_string(),
                            spec.unit.to_string(),
                            spec.better.name().to_string(),
                            bounded.then_some(spec.bound),
                        )
                    })
                    .collect()
            };
        assert_eq!(
            listed("end_to_end"),
            expect(&END_TO_END[..ON_EVERY_WORKLOAD], true)
        );
        assert_eq!(listed("per_layer"), expect(PER_LAYER, false));
        let workloads: Vec<&str> = doc
            .field("workloads")
            .and_then(|list| list.as_array())
            .expect("workload list")
            .iter()
            .map(|w| w.field("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
