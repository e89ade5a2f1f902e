//! Figure 10 — the randomized time-to-consent experiment.
//!
//! Runs the mitmproxy.org field experiment against the simulated visitor
//! population and reports the paper's quantities: median accept/reject
//! times per dialog configuration, consent rates, and the Mann–Whitney
//! statistics.

use crate::study::Study;
use consent_dialog::{run_experiment, ExperimentConfig, ExperimentResult};
use consent_stats::proportion::{two_proportion_z, TwoProportion};
use consent_util::table::Table;

/// Output of the Figure 10 experiment.
pub struct Fig10Result {
    /// Raw experiment output.
    pub experiment: ExperimentResult,
}

impl Fig10Result {
    /// Two-proportion z-test on the consent-rate difference between the
    /// arms (the paper reports the 83 % → 90 % increase descriptively;
    /// this quantifies its significance).
    pub fn consent_rate_test(&self) -> Option<TwoProportion> {
        let d = &self.experiment.direct;
        let m = &self.experiment.more_options;
        two_proportion_z(
            d.accept_times.len() as u64,
            (d.accept_times.len() + d.reject_times.len()) as u64,
            m.accept_times.len() as u64,
            (m.accept_times.len() + m.reject_times.len()) as u64,
        )
        .ok()
    }

    /// Render the paper's summary: per-arm medians, consent rates, and
    /// test statistics.
    pub fn render(&self) -> String {
        let mut t = Table::with_columns(&[
            "Configuration",
            "N accept",
            "N reject",
            "Median accept",
            "Median reject",
            "Consent rate",
            "U",
            "z",
            "p",
        ]);
        t.numeric()
            .title("Figure 10: Interaction time by dialog design (Quantcast field experiment)");
        for arm in [&self.experiment.direct, &self.experiment.more_options] {
            let name = match arm.config {
                consent_dialog::QuantcastConfig::DirectReject => "Direct reject button",
                consent_dialog::QuantcastConfig::MoreOptions => "\"More Options\" button",
            };
            let (u, z, p) = arm
                .test
                .map(|t| {
                    (
                        format!("{:.0}", t.u1),
                        format!("{:.2}", t.z),
                        format!("{:.2e}{}", t.p_two_sided, t.stars()),
                    )
                })
                .unwrap_or_default();
            t.row(vec![
                name.into(),
                arm.accept_times.len().to_string(),
                arm.reject_times.len().to_string(),
                format!("{:.1}s", arm.median_accept().unwrap_or(0.0)),
                format!("{:.1}s", arm.median_reject().unwrap_or(0.0)),
                consent_util::table::pct(arm.consent_rate()),
                u,
                z,
                p,
            ]);
        }
        let rate_line = match self.consent_rate_test() {
            Some(tp) => format!(
                "Consent-rate difference: {:.1}% vs {:.1}% (z = {:.2}, p = {:.2e})\n",
                tp.p1 * 100.0,
                tp.p2 * 100.0,
                tp.z,
                tp.p_two_sided
            ),
            None => String::new(),
        };
        format!(
            "{t}{rate_line}Total visitors shown a dialog: {}\n",
            self.experiment.visitors
        )
    }
}

/// Run the experiment with the paper's 2 910 visitors.
pub fn fig10(study: &Study) -> Fig10Result {
    fig10_with(study, &ExperimentConfig::default())
}

/// Run with a custom configuration (used for scale ablations).
pub fn fig10_with(study: &Study, config: &ExperimentConfig) -> Fig10Result {
    Fig10Result {
        experiment: run_experiment(config, study.seed().child("fig10")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_statistics() {
        let study = Study::quick();
        let r = fig10(&study);
        let e = &r.experiment;
        assert_eq!(e.visitors, 2_910);
        // Medians: 3.2 / 3.6 / 6.7 seconds.
        assert!((e.direct.median_accept().unwrap() - 3.2).abs() < 0.4);
        assert!((e.direct.median_reject().unwrap() - 3.6).abs() < 0.5);
        assert!((e.more_options.median_reject().unwrap() - 6.7).abs() < 1.5);
        // Consent rates 83 % → 90 %.
        assert!(e.more_options.consent_rate() > e.direct.consent_rate());
        // Both tests significant, direction negative.
        assert!(e.direct.test.unwrap().p_two_sided < 0.05);
        assert!(e.more_options.test.unwrap().p_two_sided < 0.001);
    }

    #[test]
    fn consent_rate_difference_significant() {
        let study = Study::quick();
        let r = fig10(&study);
        let tp = r.consent_rate_test().expect("both arms have deciders");
        assert!(tp.p1 < tp.p2, "direct arm must have the lower rate");
        assert!(tp.z < 0.0);
        assert!(tp.p_two_sided < 0.01, "p = {}", tp.p_two_sided);
    }

    #[test]
    fn render_contains_statistics() {
        let study = Study::quick();
        let s = fig10(&study).render();
        assert!(s.contains("Direct reject"));
        assert!(s.contains("More Options"));
        assert!(s.contains("Consent rate"));
        assert!(s.contains("2910"));
    }
}
