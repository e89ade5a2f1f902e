//! Per-experiment run reports.
//!
//! A [`RunReport`] wraps an experiment invocation: it snapshots the
//! registry before and after, times the wall clock, and condenses the
//! delta into the paper's §3.5 quality columns — how many captures were
//! recorded, with which `CaptureStatus`, from which vantage location.
//! The capture counts are read from the `capture_db.insert` counter
//! family that `consent-crawler` maintains, so a report's totals
//! reconcile exactly with `CaptureDb` row counts.

use crate::registry::{parse_key, Registry, Snapshot};
use consent_util::table::{thousands, Table};
use consent_util::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The counter family instrumented in `CaptureDb::insert`, labeled
/// with `location` and `status`.
pub const CAPTURE_FAMILY: &str = "capture_db.insert";

/// Wall time plus metric deltas for one experiment run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Experiment name (e.g. `fig6`).
    pub name: String,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Every metric that changed during the run.
    pub delta: Snapshot,
}

impl RunReport {
    /// Run `f` against `registry`, capturing timing and metric deltas.
    ///
    /// # Contract: one window at a time
    ///
    /// A report is a *snapshot delta*: everything recorded into
    /// `registry` between the two snapshots is attributed to this run,
    /// regardless of which thread recorded it. The report is therefore
    /// only meaningful if this collect window is the registry's sole
    /// source of traffic — do not run two `collect` calls concurrently
    /// against the same registry (including the global one), and do not
    /// nest them: overlapping windows silently attribute each other's
    /// metrics to both reports. Debug builds enforce this with an
    /// assertion via [`Registry::begin_collect`]; release builds only
    /// track the open-window count ([`Registry::open_collects`]).
    ///
    /// Traffic from background threads *inside* the window is fine and
    /// is counted — the contract is one window, not one thread.
    ///
    /// ```
    /// use consent_telemetry::{Registry, RunReport};
    ///
    /// let reg = Registry::new();
    /// let (value, report) = RunReport::collect(&reg, "demo", || {
    ///     reg.counter("demo.work").add(3);
    ///     "done"
    /// });
    /// assert_eq!(value, "done");
    /// assert_eq!(report.delta.counter("demo.work"), 3);
    /// assert_eq!(reg.open_collects(), 0);
    /// ```
    pub fn collect<T>(registry: &Registry, name: &str, f: impl FnOnce() -> T) -> (T, RunReport) {
        let _window = registry.begin_collect();
        let before = registry.snapshot();
        let start = Instant::now();
        let value = f();
        let wall = start.elapsed();
        let delta = registry.snapshot().delta_since(&before);
        (
            value,
            RunReport {
                name: name.to_string(),
                wall,
                delta,
            },
        )
    }

    /// Total captures recorded into `CaptureDb` during the run.
    pub fn captures_total(&self) -> u64 {
        self.capture_family().map(|(_, _, n)| n).sum()
    }

    /// Captures by `CaptureStatus` name.
    pub fn captures_by_status(&self) -> BTreeMap<String, u64> {
        self.group_captures("status")
    }

    /// Captures by vantage location.
    pub fn captures_by_location(&self) -> BTreeMap<String, u64> {
        self.group_captures("location")
    }

    /// `(location, status, count)` rows of the capture family.
    fn capture_family(&self) -> impl Iterator<Item = (String, String, u64)> + '_ {
        self.delta
            .counters_with_prefix(CAPTURE_FAMILY)
            .map(|(key, n)| {
                let (_, labels) = parse_key(key);
                let find = |want: &str| {
                    labels
                        .iter()
                        .find(|(k, _)| *k == want)
                        .map(|(_, v)| (*v).to_string())
                        .unwrap_or_default()
                };
                (find("location"), find("status"), n)
            })
    }

    fn group_captures(&self, label: &str) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for (location, status, n) in self.capture_family() {
            let key = if label == "location" {
                location
            } else {
                status
            };
            *out.entry(key).or_default() += n;
        }
        out
    }

    /// Render the report as a quality-columns table.
    pub fn render(&self) -> String {
        let mut t = Table::with_columns(&["Quality metric", "Value"]);
        t.numeric().title(format!("Run report: {}", self.name));
        t.row(vec![
            "Wall time".into(),
            format!("{:.1} ms", self.wall.as_secs_f64() * 1e3),
        ]);
        t.row(vec![
            "Captures recorded".into(),
            thousands(self.captures_total()),
        ]);
        for (status, n) in self.captures_by_status() {
            t.row(vec![format!("  status {status}"), thousands(n)]);
        }
        for (location, n) in self.captures_by_location() {
            t.row(vec![format!("  from {location}"), thousands(n)]);
        }
        for (key, label) in [
            ("campaign.retries", "Campaign retries"),
            ("campaign.breaker.open", "Breaker opens"),
            ("campaign.pairs_skipped", "Resume skips"),
            ("queue.offer{decision=SkippedUrl}", "Dedup skips (URL)"),
            (
                "queue.offer{decision=SkippedDomain}",
                "Dedup skips (domain)",
            ),
            ("trace.traces", "Traces recorded"),
            ("trace.events", "Trace events"),
            ("fingerprint.detect.miss", "Detector misses"),
            ("fingerprint.detect.degraded", "Degraded captures analyzed"),
            (
                "fingerprint.detect.miss_degraded",
                "Detector misses (degraded)",
            ),
            ("analysis.interpolated_days", "Interpolated days"),
        ] {
            let v = self.delta.counter(key);
            if v > 0 {
                t.row(vec![label.into(), thousands(v)]);
            }
        }
        // Labeled robustness families: injected faults, final outcome
        // classes, dead-letter and provenance records, one row per
        // label value.
        for (family, label) in [
            ("faultsim.injected", "Injected fault"),
            ("campaign.outcome", "Campaign outcome"),
            ("campaign.dead_letter{", "Dead letters"),
            ("campaign.provenance{", "Provenance"),
        ] {
            for (key, n) in self.delta.counters_with_prefix(family) {
                let (_, labels) = parse_key(key);
                let value = labels.first().map(|(_, v)| *v).unwrap_or("?");
                t.row(vec![format!("  {label} {value}"), thousands(n)]);
            }
        }
        let open = self.delta.counter("campaign.breaker.open_pairs");
        if open > 0 {
            t.row(vec!["Breaker-opened pairs".into(), thousands(open)]);
        }
        t.to_string()
    }

    /// One JSON object (single line) summarizing the run.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("kind".to_string(), Json::str("run_report")),
            ("name".to_string(), Json::str(self.name.clone())),
            (
                "wall_ms".to_string(),
                Json::Number(self.wall.as_secs_f64() * 1e3),
            ),
            (
                "captures".to_string(),
                Json::int(self.captures_total() as i64),
            ),
            (
                "by_status".to_string(),
                Json::object(
                    self.captures_by_status()
                        .into_iter()
                        .map(|(k, v)| (k, Json::int(v as i64))),
                ),
            ),
            (
                "by_location".to_string(),
                Json::object(
                    self.captures_by_location()
                        .into_iter()
                        .map(|(k, v)| (k, Json::int(v as i64))),
                ),
            ),
        ])
    }

    /// Export the report plus its full metric delta as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.to_json().to_compact();
        out.push('\n');
        out.push_str(&self.delta.to_jsonl());
        out
    }
}

/// Aggregate several run reports into one summary table.
pub fn summary_table(reports: &[RunReport]) -> String {
    let mut t = Table::with_columns(&["Experiment", "Wall", "Captures", "Ok", "Failed"]);
    t.numeric().title("Experiment run summary");
    for r in reports {
        let by_status = r.captures_by_status();
        let ok = by_status.get("Ok").copied().unwrap_or(0);
        let total = r.captures_total();
        t.row(vec![
            r.name.clone(),
            format!("{:.1} ms", r.wall.as_secs_f64() * 1e3),
            thousands(total),
            thousands(ok),
            thousands(total - ok),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_run(reg: &Registry) {
        reg.counter_labeled(
            CAPTURE_FAMILY,
            &[("location", "US cloud"), ("status", "Ok")],
        )
        .add(7);
        reg.counter_labeled(
            CAPTURE_FAMILY,
            &[("location", "EU cloud"), ("status", "Ok")],
        )
        .add(5);
        reg.counter_labeled(
            CAPTURE_FAMILY,
            &[("location", "EU cloud"), ("status", "Timeout")],
        )
        .add(2);
        reg.counter("campaign.retries").add(3);
    }

    #[test]
    fn report_groups_capture_family() {
        let reg = Registry::new();
        // Pre-existing traffic must not leak into the report.
        fake_run(&reg);
        let (value, report) = RunReport::collect(&reg, "exp", || {
            fake_run(&reg);
            42
        });
        assert_eq!(value, 42);
        assert_eq!(report.name, "exp");
        assert_eq!(report.captures_total(), 14);
        let by_status = report.captures_by_status();
        assert_eq!(by_status.get("Ok"), Some(&12));
        assert_eq!(by_status.get("Timeout"), Some(&2));
        let by_loc = report.captures_by_location();
        assert_eq!(by_loc.get("US cloud"), Some(&7));
        assert_eq!(by_loc.get("EU cloud"), Some(&7));
        assert_eq!(by_status.values().sum::<u64>(), report.captures_total());
        assert_eq!(by_loc.values().sum::<u64>(), report.captures_total());
    }

    #[test]
    fn render_and_jsonl_mention_the_columns() {
        let reg = Registry::new();
        let (_, report) = RunReport::collect(&reg, "quality", || fake_run(&reg));
        let text = report.render();
        assert!(text.contains("Run report: quality"));
        assert!(text.contains("status Ok"));
        assert!(text.contains("from EU cloud"));
        assert!(text.contains("Campaign retries"));

        let jsonl = report.to_jsonl();
        let first = jsonl.lines().next().unwrap();
        let parsed = Json::parse(first).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("quality"));
        assert_eq!(
            parsed
                .get("by_status")
                .and_then(|s| s.get("Ok"))
                .and_then(Json::as_f64),
            Some(12.0)
        );

        let summary = summary_table(&[report]);
        assert!(summary.contains("quality"));
        assert!(summary.contains("14"));
    }
}
