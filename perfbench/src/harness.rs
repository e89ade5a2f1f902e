//! The run loop shared by every workload: environment guard, repeated
//! set-up, timed and verified passes, the traced run, and the result
//! line.

use crate::expect::Expect;
use crate::metrics::end_to_end;
use crate::stats::{median, ratio, Summary};
use std::time::Instant;

/// Environment variables that change what the observatory's crates do
/// (network chaos, storage chaos, crash injection, watchdog rules).
/// The benchmark measures the unperturbed program, so it refuses to run
/// with any of them set rather than silently inheriting them.
pub const GUARDED_ENV: [&str; 4] = [
    "CONSENT_CHAOS",
    "CONSENT_IO_CHAOS",
    "CONSENT_CRASHPOINT",
    "CONSENT_WATCH",
];

/// The guarded variables that are set, if any.
pub fn env_violations() -> Vec<String> {
    GUARDED_ENV
        .iter()
        .filter(|v| std::env::var_os(v).is_some())
        .map(|v| v.to_string())
        .collect()
}

/// Turn the process-global telemetry registry and trace log off and
/// empty them, so nothing recorded by one workload (or a traced phase)
/// leaks into the next.
pub fn reset_globals() {
    consent_telemetry::disable();
    consent_telemetry::reset();
    consent_trace::disable();
    consent_trace::clear();
}

/// Timed passes run with every in-program observability plane off.
pub fn assert_planes_off() {
    assert!(
        !consent_telemetry::enabled(),
        "telemetry must be off during a timed pass"
    );
    assert!(
        !consent_trace::enabled(),
        "the trace log must be off during a timed pass"
    );
}

/// Workload size: the configuration the benchmark reports, or a
/// reduced one that keeps the harness's own tests quick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The outcome of one verified pass. `seconds` covers only the work
/// being measured; verification runs after the clock stops.
#[derive(Debug, Default)]
pub struct Pass {
    pub captures: u64,
    pub seconds: f64,
    pub failures: Vec<String>,
}

/// What set-up hands the run loop besides the workload state.
#[derive(Debug, Default)]
pub struct SetupReport {
    /// Duration of the reference pass, which ran against cold caches.
    pub cold_pass_s: f64,
    /// Reference checks that failed (a pinned digest not reproduced).
    pub failures: Vec<String>,
}

/// A benchmark workload.
pub trait Workload {
    type State;

    fn name(&self) -> &'static str;

    /// Build inputs and run the reference pass (which doubles as the
    /// warm-up), filling `expect` with any digest not pinned.
    fn setup(&self, expect: &mut Expect) -> Result<(Self::State, SetupReport), String>;

    /// One timed pass, verified against `expect`.
    fn pass(&self, state: &mut Self::State, expect: &Expect) -> Pass;

    /// Bytes left on disk per capture by the workload's output.
    fn disk_bytes_per_capture(&self, state: &Self::State) -> f64;

    /// The traced run's per-layer metrics. `warm_s` are untraced warm
    /// pass durations measured just before.
    fn trace(
        &self,
        state: &mut Self::State,
        expect: &Expect,
        setup: &SetupReport,
        warm_s: &[f64],
        failures: &mut Vec<String>,
    ) -> Vec<Metric>;
}

/// Options of one invocation.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seconds: f64,
    pub trace: bool,
    /// Complete set-ups; the last one's state is measured.
    pub setups: usize,
    /// Passes always run, even past the time budget.
    pub min_passes: usize,
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Captures per second of every passing timed pass.
    pub rates: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// The digests the passes were verified against.
    pub expect: Expect,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Resident-memory high-water mark of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Run one workload end to end and collect its result.
pub fn run<W: Workload>(w: &W, mut expect: Expect, opts: &RunOpts) -> Outcome {
    reset_globals();
    crate::workdir::settle();
    let mut out = Outcome::default();
    let record = |out: &mut Outcome, what: &str, failures: Vec<String>| {
        out.attempted += 1;
        if !failures.is_empty() {
            out.failed += 1;
            out.failures
                .extend(failures.into_iter().map(|f| format!("{what}: {f}")));
        }
    };

    // Set-up, repeated so its time is a median. Each repetition starts
    // from nothing: the previous state is dropped first, and the digests
    // adopted from a reference pass are discarded with it.
    let pinned = expect.clone();
    let mut built = None;
    for _ in 0..opts.setups.max(1) {
        drop(built.take());
        expect = pinned.clone();
        let start = Instant::now();
        let result = w.setup(&mut expect);
        out.setup_s.push(start.elapsed().as_secs_f64());
        // Let the file system finish what set-up queued (unsynced
        // archives) before the next repetition or the first pass.
        crate::workdir::settle();
        match result {
            Ok((state, report)) => built = Some((state, report)),
            Err(e) => {
                record(&mut out, "setup", vec![e]);
                return out;
            }
        }
        reset_globals();
    }
    let (mut state, setup) = built.expect("at least one set-up ran");
    record(&mut out, "setup reference", setup.failures.clone());

    // Timed passes: untraced, verified, until the budget is spent. In a
    // traced run these are the untraced baseline and take half of it.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut warm_s = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    while passes < opts.min_passes || start.elapsed().as_secs_f64() < budget {
        assert_planes_off();
        let pass = w.pass(&mut state, &expect);
        passes += 1;
        if pass.failures.is_empty() {
            out.rates.push(ratio(pass.captures as f64, pass.seconds));
            warm_s.push(pass.seconds);
        }
        record(&mut out, "pass", pass.failures);
    }

    if opts.trace {
        let mut failures = Vec::new();
        out.metrics = w.trace(&mut state, &expect, &setup, &warm_s, &mut failures);
        record(&mut out, "traced pass", failures);
        reset_globals();
    } else {
        out.metrics = end_to_end([
            median(&out.rates).unwrap_or(f64::NAN),
            median(&out.setup_s).unwrap_or(f64::NAN),
            peak_rss_mb(),
            w.disk_bytes_per_capture(&state),
        ]);
    }
    drop(state);
    out.expect = expect;
    out
}

/// The human-readable report written to standard error.
pub fn describe(workload: &str, seed: u64, out: &Outcome) -> String {
    let mut s = format!("perfbench {workload} seed={seed}\n");
    let series = |label: &str, v: &[f64]| match Summary::of(v) {
        Some(x) => format!(
            "  {label:<16} median {:.6}  q1 {:.6}  q3 {:.6}  n={}\n",
            x.median, x.q1, x.q3, x.count
        ),
        None => format!("  {label:<16} no samples\n"),
    };
    s.push_str(&series("captures/s", &out.rates));
    s.push_str(&series("setup s", &out.setup_s));
    let each: Vec<String> = out.setup_s.iter().map(|t| format!("{t:.3}")).collect();
    s.push_str(&format!("  setups           {}\n", each.join(" ")));
    s.push_str(&format!(
        "  failed_share     {:.6} ({} of {} verified operations failed)\n",
        out.failed_share(),
        out.failed,
        out.attempted
    ));
    for m in &out.metrics {
        s.push_str(&format!("  {:<40} {:>18.6} {}\n", m.name, m.value, m.unit));
    }
    for f in &out.failures {
        s.push_str(&format!("  FAILED {f}\n"));
    }
    if !out.expect.is_empty() {
        s.push_str("  reference digests (pinned.txt format):\n");
        for line in out.expect.render(workload, Scale::Full.name()).lines() {
            s.push_str(&format!("    {line}\n"));
        }
    }
    s
}

/// Serializes the tests that run workloads: they share the
/// process-global telemetry registry and trace log.
#[cfg(test)]
pub static GLOBALS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 1,
            failures: vec![],
            metrics: vec![
                Metric::new("setup_s", 0.5, "s"),
                Metric::new("x", f64::NAN, "s"),
            ],
            rates: vec![],
            setup_s: vec![],
            expect: Expect::default(),
        };
        assert_eq!(
            out.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"s\"}}}"
        );
        assert!((out.failed_share() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        let mb = peak_rss_mb();
        assert!(mb > 0.0, "{mb}");
    }
}
