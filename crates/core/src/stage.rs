//! Per-stage wall-clock timings of [`crate::pipeline::Study`].
//!
//! The study pipeline is a linear chain of steps —
//!
//! ```text
//! generate ──▶ crawl ──▶ label ──▶ classify ──▶ (analyses)
//! ```
//!
//! — each consuming the previous step's output. [`StageTimings::time`] runs
//! one step as a closure and records its name and wall-clock duration;
//! [`Study`](crate::pipeline::Study) exposes the record so every run
//! reports where its time went.

use std::time::{Duration, Instant};

/// Wall-clock timing of one executed stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// The stage's name as it appears in timing reports.
    pub name: &'static str,
    /// Wall-clock duration of the stage.
    pub duration: Duration,
}

/// Ordered per-stage timings of a pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    timings: Vec<StageTiming>,
}

impl StageTimings {
    /// Run `work` as the stage `name`, recording its wall-clock duration.
    pub fn time<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let output = work();
        self.timings.push(StageTiming {
            name,
            duration: start.elapsed(),
        });
        output
    }

    /// All recorded timings, in execution order.
    pub fn all(&self) -> &[StageTiming] {
        &self.timings
    }

    /// The full timing record of a stage by name, if it ran. Non-panicking
    /// lookup — prefer this over indexing into [`StageTimings::all`], which
    /// bakes in assumptions about which stages ran and in what order.
    pub fn timing(&self, name: &str) -> Option<StageTiming> {
        self.timings.iter().find(|t| t.name == name).copied()
    }

    /// The duration of a stage by name, if it ran.
    pub fn duration(&self, name: &str) -> Option<Duration> {
        self.timing(name).map(|t| t.duration)
    }

    /// Total wall-clock time across all recorded stages.
    pub fn total(&self) -> Duration {
        self.timings.iter().map(|t| t.duration).sum()
    }

    /// Throughput of a stage in units per second: `units` (sites, requests,
    /// …) divided by the stage's wall-clock duration. `None` when the stage
    /// did not run or its recorded duration is zero.
    pub fn rate(&self, name: &str, units: u64) -> Option<f64> {
        let secs = self.duration(name)?.as_secs_f64();
        if secs > 0.0 {
            Some(units as f64 / secs)
        } else {
            None
        }
    }

    /// A one-line human-readable summary, e.g.
    /// `generate 12.3ms | crawl 48.1ms | label 21.9ms | classify 9.0ms`.
    pub fn summary(&self) -> String {
        self.timings
            .iter()
            .map(|t| format!("{} {:.1?}", t.name, t.duration))
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_chain_and_record_timings() {
        let mut timings = StageTimings::default();
        let input = [1u64, 2, 3];
        let doubled: Vec<u64> = timings.time("double", || input.iter().map(|x| x * 2).collect());
        let total: u64 = timings.time("sum", || doubled.into_iter().sum());
        assert_eq!(total, 12);
        let names: Vec<&str> = timings.all().iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["double", "sum"]);
        assert!(timings.duration("double").is_some());
        assert!(timings.duration("missing").is_none());
        assert_eq!(timings.timing("sum").unwrap().name, "sum");
        assert!(timings.timing("missing").is_none());
        assert!(timings.total() >= timings.duration("sum").unwrap());
        assert!(timings.summary().contains("double"));
        let rate = timings.rate("double", 3_000).expect("stage ran");
        assert!(rate > 0.0);
        assert!(timings.rate("missing", 10).is_none());
    }
}
