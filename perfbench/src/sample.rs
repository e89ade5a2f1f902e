//! Process-level sampling.
//!
//! The same pass on the same inputs runs at noticeably different speeds
//! in different processes (hash seeds, heap layout, the physical pages
//! a process happens to get), and within one process repeated passes
//! share that luck. An untraced run therefore measures in several
//! worker processes, one after another: each does one complete set-up
//! and its share of the timed passes, then prints one [`Sample`] line.
//! The parent pools the samples, so `setup_s` is a median over
//! independent cold starts and `captures_per_s` a median over passes
//! drawn from several processes.

use crate::harness::Outcome;
use crate::metrics::end_to_end;
use crate::stats::median;
use std::process::{Command, Stdio};

const TAG: &str = "perfbench-sample";

/// One worker process's raw measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sample {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub rates: Vec<f64>,
    pub peak_rss_mb: f64,
    pub disk_bytes_per_capture: f64,
}

fn list(v: &[f64]) -> String {
    v.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
}

impl Sample {
    /// The sample an in-process run measured.
    pub fn of(out: &Outcome) -> Sample {
        let metric = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        Sample {
            attempted: out.attempted,
            failed: out.failed,
            setup_s: out.setup_s.clone(),
            rates: out.rates.clone(),
            peak_rss_mb: metric("peak_rss_mb"),
            disk_bytes_per_capture: metric("disk_bytes_per_capture"),
        }
    }

    /// One line of `key=value` fields.
    pub fn render(&self) -> String {
        format!(
            "{TAG} attempted={} failed={} peak_rss_mb={} disk_bytes_per_capture={} setup_s={} rates={}",
            self.attempted,
            self.failed,
            self.peak_rss_mb,
            self.disk_bytes_per_capture,
            list(&self.setup_s),
            list(&self.rates)
        )
    }

    pub fn parse(line: &str) -> Option<Sample> {
        let mut fields = line.split_whitespace();
        if fields.next()? != TAG {
            return None;
        }
        let mut s = Sample::default();
        for field in fields {
            let (key, value) = field.split_once('=')?;
            let floats = || -> Option<Vec<f64>> {
                value
                    .split(',')
                    .filter(|v| !v.is_empty())
                    .map(|v| v.parse().ok())
                    .collect()
            };
            match key {
                "attempted" => s.attempted = value.parse().ok()?,
                "failed" => s.failed = value.parse().ok()?,
                "peak_rss_mb" => s.peak_rss_mb = value.parse().ok()?,
                "disk_bytes_per_capture" => s.disk_bytes_per_capture = value.parse().ok()?,
                "setup_s" => s.setup_s = floats()?,
                "rates" => s.rates = floats()?,
                _ => return None,
            }
        }
        Some(s)
    }
}

/// Pool worker samples into one outcome. Memory and disk are medians
/// over workers; a worker that could not report counts as one failed
/// operation.
pub fn combine(samples: &[Option<Sample>]) -> Outcome {
    let mut out = Outcome::default();
    let mut rss = Vec::new();
    let mut disk = Vec::new();
    for (i, sample) in samples.iter().enumerate() {
        let Some(s) = sample else {
            out.attempted += 1;
            out.failed += 1;
            out.failures.push(format!("worker {i} printed no sample"));
            continue;
        };
        out.attempted += s.attempted;
        out.failed += s.failed;
        if s.failed > 0 {
            out.failures.push(format!(
                "worker {i}: {} of {} operations failed",
                s.failed, s.attempted
            ));
        }
        out.setup_s.extend(&s.setup_s);
        out.rates.extend(&s.rates);
        rss.push(s.peak_rss_mb);
        disk.push(s.disk_bytes_per_capture);
    }
    let median = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    out.metrics = end_to_end([
        median(&out.rates),
        median(&out.setup_s),
        median(&rss),
        median(&disk),
    ]);
    out
}

/// Run `workers` worker processes of this executable one after another,
/// each with `args` plus `--worker 1`, and collect their samples. Worker
/// standard error passes through.
pub fn run_workers(args: &[String], workers: usize) -> Vec<Option<Sample>> {
    let Ok(exe) = std::env::current_exe() else {
        return vec![None; workers];
    };
    (0..workers)
        .map(|_| {
            let output = Command::new(&exe)
                .args(args)
                .args(["--worker", "1"])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .ok()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            Sample::parse(stdout.lines().last()?)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rates: &[f64], setup: f64, rss: f64) -> Sample {
        Sample {
            attempted: rates.len() as u64 + 1,
            failed: 0,
            setup_s: vec![setup],
            rates: rates.to_vec(),
            peak_rss_mb: rss,
            disk_bytes_per_capture: 20.5,
        }
    }

    #[test]
    fn samples_round_trip_through_their_line() {
        let s = sample(&[1.5, 2.25e4], 0.125, 100.0);
        assert_eq!(Sample::parse(&s.render()), Some(s));
        let empty = Sample::default();
        assert_eq!(Sample::parse(&empty.render()), Some(empty));
        assert_eq!(Sample::parse("something else"), None);
    }

    #[test]
    fn combine_pools_passes_and_takes_medians() {
        let out = combine(&[
            Some(sample(&[10.0, 11.0], 2.0, 100.0)),
            Some(sample(&[12.0], 4.0, 300.0)),
            Some(sample(&[13.0, 14.0], 3.0, 200.0)),
        ]);
        assert_eq!(out.attempted, 8);
        assert_eq!(out.failed, 0);
        let value = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value("captures_per_s"), 12.0);
        assert_eq!(value("setup_s"), 3.0);
        assert_eq!(value("peak_rss_mb"), 200.0);
        assert_eq!(value("disk_bytes_per_capture"), 20.5);
    }

    #[test]
    fn a_silent_worker_is_a_failure() {
        let out = combine(&[Some(sample(&[10.0], 1.0, 1.0)), None]);
        assert_eq!((out.attempted, out.failed), (3, 1));
        assert!(!out.correct());
    }
}
