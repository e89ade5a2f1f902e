//! §3.4–§3.5 methodology statistics: feed composition, dedup rate,
//! redirect rate, multi-CMP rate, daily-share bimodality, and the
//! missing-data breakdown over the toplist.

use crate::experiments::fig6::Fig6Result;
use crate::study::Study;
use consent_analysis::{bimodal_share, build_timelines, missing_data_report, MissingDataReport};
use consent_util::table::{pct, Table};

/// Collected methodology statistics.
pub struct MethodologyResult {
    /// Twitter's share of feed items (paper: ~80 %).
    pub twitter_share: f64,
    /// Dedup skip rate (paper: ~40 %).
    pub skip_rate: f64,
    /// Captures with a cross-domain redirect (paper: ~11 %).
    pub redirect_rate: f64,
    /// Captures with more than one CMP (paper: 0.01 %).
    pub multi_cmp_rate: f64,
    /// Domains whose daily CMP share is always <5 % or >95 %
    /// (paper: 99.8 %).
    pub bimodal_share: f64,
    /// Missing-data breakdown over the toplist (§3.5).
    pub missing: MissingDataReport,
}

impl MethodologyResult {
    /// Render as a two-column table with the paper's reference values.
    pub fn render(&self) -> String {
        let mut t = Table::with_columns(&["Statistic", "Measured", "Paper"]);
        t.numeric().title("Methodology statistics (§3.4–§3.5)");
        t.row(vec![
            "Twitter share of feed".into(),
            pct(self.twitter_share),
            "80%".into(),
        ]);
        t.row(vec![
            "Dedup skip rate".into(),
            pct(self.skip_rate),
            "~40%".into(),
        ]);
        t.row(vec![
            "Cross-domain redirects".into(),
            pct(self.redirect_rate),
            "~11%".into(),
        ]);
        t.row(vec![
            "Multi-CMP captures".into(),
            format!("{:.3}%", self.multi_cmp_rate * 100.0),
            "0.01%".into(),
        ]);
        t.row(vec![
            "Bimodal daily CMP share".into(),
            pct(self.bimodal_share),
            "99.8%".into(),
        ]);
        let m = &self.missing;
        t.row(vec![
            "Toplist domains never shared".into(),
            m.never_shared.to_string(),
            "1076 / 10k".into(),
        ]);
        t.row(vec![
            "  of which unreachable".into(),
            m.unreachable.to_string(),
            "315".into(),
        ]);
        t.row(vec![
            "  of which HTTP error".into(),
            m.http_error.to_string(),
            "70".into(),
        ]);
        t.row(vec![
            "  of which redirect elsewhere".into(),
            m.redirects_elsewhere.to_string(),
            "192".into(),
        ]);
        t.row(vec![
            "  of which infrastructure".into(),
            m.infrastructure.to_string(),
            ">90% of rest".into(),
        ]);
        t.to_string()
    }
}

/// Compute the statistics from an existing Figure 6 run (which already
/// holds the capture DB and toplist).
pub fn methodology(study: &Study, fig6: &Fig6Result) -> MethodologyResult {
    let timelines = build_timelines(&fig6.db, None);
    let refs: Vec<&consent_analysis::Timeline> = timelines.values().collect();
    MethodologyResult {
        twitter_share: fig6.stats.twitter_share(),
        skip_rate: fig6.stats.skip_rate(),
        redirect_rate: fig6.db.redirect_rate(),
        multi_cmp_rate: fig6.db.multi_cmp_rate(),
        bimodal_share: bimodal_share(&refs),
        missing: missing_data_report(study.world(), &fig6.toplist, &fig6.db),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig6::fig6;

    #[test]
    fn statistics_in_paper_bands() {
        let study = Study::quick();
        let f6 = fig6(&study);
        let m = methodology(&study, &f6);
        assert!(
            (m.twitter_share - 0.8).abs() < 0.05,
            "twitter {}",
            m.twitter_share
        );
        assert!((0.2..0.6).contains(&m.skip_rate), "skip {}", m.skip_rate);
        assert!(
            (0.05..0.2).contains(&m.redirect_rate),
            "redirect {}",
            m.redirect_rate
        );
        assert!(m.multi_cmp_rate < 0.005, "multi {}", m.multi_cmp_rate);
        assert!(m.bimodal_share > 0.95, "bimodal {}", m.bimodal_share);
        assert!(m.missing.never_shared > 0);
        let rendered = m.render();
        assert!(rendered.contains("Dedup skip rate"));
        assert!(rendered.contains("99.8%"));
    }
}
