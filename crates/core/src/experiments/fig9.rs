//! Figure 9 — the TrustArc opt-out cost on forbes.com.
//!
//! Hourly probes for two weeks; the paper reports the medians: ≥7 clicks
//! and ~34 s to opt out, +279 requests to 25 domains, +1.2 MB / 5.8 MB
//! transferred — while accepting closes the dialog immediately.

use crate::study::Study;
use consent_dialog::{accept, hourly_probes, Probe};
use consent_stats::median;
use consent_util::table::Table;

/// Output of the Figure 9 measurement.
pub struct Fig9Result {
    /// All probes (default: 336 = hourly for two weeks).
    pub probes: Vec<Probe>,
    /// Median total opt-out waiting time, seconds.
    pub median_wait_s: f64,
    /// Minimum clicks across probes.
    pub min_clicks: u8,
    /// Median extra requests.
    pub median_extra_requests: f64,
    /// Median distinct opt-out domains.
    pub median_extra_domains: f64,
    /// Median extra compressed megabytes.
    pub median_extra_mb: f64,
    /// Median extra uncompressed megabytes.
    pub median_extra_mb_uncompressed: f64,
    /// Time to *accept* instead, seconds (median).
    pub accept_wait_s: f64,
}

impl Fig9Result {
    /// Render the phase breakdown of the median-duration probe plus the
    /// summary line.
    pub fn render(&self) -> String {
        // Pick the probe whose total wait is closest to the median.
        let target = self.median_wait_s;
        let probe = self
            .probes
            .iter()
            .min_by(|a, b| {
                let da = (a.run.total_wait().as_secs_f64() - target).abs();
                let db = (b.run.total_wait().as_secs_f64() - target).abs();
                da.partial_cmp(&db).expect("finite")
            })
            .expect("non-empty probes");
        let mut t = Table::with_columns(&["Phase", "Clicks", "Wait"]);
        t.numeric()
            .title("Figure 9: Opting out on a TrustArc multi-partner dialog");
        for phase in &probe.run.phases {
            t.row(vec![
                phase.name.to_owned(),
                phase.clicks.to_string(),
                format!("{:.1}s", phase.wait_ms as f64 / 1000.0),
            ]);
        }
        format!(
            "{t}\nTotal: {} clicks, {:.1}s median wait | accepting instead: 1 click, {:.2}s\n\
             Extra cost of opting out: {:.0} requests to {:.0} domains, \
             {:.1} MB / {:.1} MB (compressed/uncompressed)\n",
            probe.run.total_clicks(),
            self.median_wait_s,
            self.accept_wait_s,
            self.median_extra_requests,
            self.median_extra_domains,
            self.median_extra_mb,
            self.median_extra_mb_uncompressed,
        )
    }
}

/// Run the two-week hourly probe schedule.
pub fn fig9(study: &Study) -> Fig9Result {
    fig9_with_hours(study, 336)
}

/// Run with a custom number of hourly probes.
pub fn fig9_with_hours(study: &Study, hours: u32) -> Fig9Result {
    let probes = hourly_probes(hours, study.seed().child("fig9"));
    let waits: Vec<f64> = probes
        .iter()
        .map(|p| p.run.total_wait().as_secs_f64())
        .collect();
    let reqs: Vec<f64> = probes
        .iter()
        .map(|p| f64::from(p.run.extra_requests))
        .collect();
    let domains: Vec<f64> = probes
        .iter()
        .map(|p| f64::from(p.run.extra_domains))
        .collect();
    let mb: Vec<f64> = probes
        .iter()
        .map(|p| p.run.extra_bytes_compressed as f64 / 1e6)
        .collect();
    let mbu: Vec<f64> = probes
        .iter()
        .map(|p| p.run.extra_bytes_uncompressed as f64 / 1e6)
        .collect();
    let min_clicks = probes
        .iter()
        .map(|p| p.run.total_clicks())
        .min()
        .unwrap_or(0);
    let mut accept_rng = study.seed().child("fig9-accept").rng();
    let accepts: Vec<f64> = (0..hours)
        .map(|_| accept(&mut accept_rng).wait_ms as f64 / 1000.0)
        .collect();
    Fig9Result {
        median_wait_s: median(&waits).unwrap_or(0.0),
        min_clicks,
        median_extra_requests: median(&reqs).unwrap_or(0.0),
        median_extra_domains: median(&domains).unwrap_or(0.0),
        median_extra_mb: median(&mb).unwrap_or(0.0),
        median_extra_mb_uncompressed: median(&mbu).unwrap_or(0.0),
        accept_wait_s: median(&accepts).unwrap_or(0.0),
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_magnitudes() {
        let study = Study::quick();
        let r = fig9(&study);
        assert_eq!(r.probes.len(), 336);
        assert!(r.min_clicks >= 7, "min clicks {}", r.min_clicks);
        assert!(
            (30.0..42.0).contains(&r.median_wait_s),
            "median wait {} (paper: ≥34 s)",
            r.median_wait_s
        );
        assert!(
            (240.0..320.0).contains(&r.median_extra_requests),
            "requests {} (paper: 279)",
            r.median_extra_requests
        );
        assert!(
            (22.0..28.0).contains(&r.median_extra_domains),
            "domains {} (paper: 25)",
            r.median_extra_domains
        );
        assert!(
            (0.9..1.5).contains(&r.median_extra_mb),
            "{} MB",
            r.median_extra_mb
        );
        assert!(
            (4.5..7.0).contains(&r.median_extra_mb_uncompressed),
            "{} MB",
            r.median_extra_mb_uncompressed
        );
        // Accepting is orders of magnitude faster.
        assert!(r.accept_wait_s < 0.5);
        assert!(r.median_wait_s / r.accept_wait_s > 50.0);
    }

    #[test]
    fn renders_phase_breakdown() {
        let study = Study::quick();
        let r = fig9_with_hours(&study, 48);
        let s = r.render();
        assert!(s.contains("partner opt-out fan-out"));
        assert!(s.contains("Total:"));
        assert!(s.contains("compressed"));
    }
}
