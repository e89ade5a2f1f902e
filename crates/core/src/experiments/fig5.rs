//! Figure 5 / A.4–A.6 — cumulative CMP market share vs toplist size.
//!
//! The paper computes this from 161M social-media captures over the
//! Tranco 1M. We run a *stratified census sweep* instead: every site in
//! the head strata and a fixed random sample per tail stratum is crawled
//! through the full capture pipeline (EU cloud vantage, the production
//! configuration), detections are weighted by the inverse sampling
//! fraction, and the cumulative curve is assembled. Statistically this
//! matches the paper's estimator; it just spends samples where they
//! matter.

use crate::study::Study;
use consent_analysis::{marketshare_curve, standard_sizes, MarketshareCurve, RankObservation};
use consent_fingerprint::Detector;
use consent_httpsim::{CaptureOptions, Engine, Vantage};
use consent_util::table::{pct, Table};
use consent_util::{date::known, Day};
use consent_webgraph::{Cmp, ALL_CMPS};
use rand::seq::SliceRandom;

/// Output of the Figure 5 sweep.
pub struct Fig5Result {
    /// Snapshot day.
    pub snapshot: Day,
    /// The cumulative curve over [`standard_sizes`].
    pub curve: MarketshareCurve,
    /// Number of sites actually crawled.
    pub crawled: usize,
}

impl Fig5Result {
    /// Render the curve as a table (one row per toplist size).
    pub fn render(&self) -> String {
        let mut header = vec!["Toplist size".to_owned(), "Total".to_owned()];
        header.extend(ALL_CMPS.iter().map(|c| c.name().to_owned()));
        let mut t = Table::new(header);
        t.numeric().title(format!(
            "Figure 5: Cumulative CMP marketshare by toplist size ({})",
            self.snapshot
        ));
        for (i, &size) in self.curve.sizes.iter().enumerate() {
            let mut row = vec![
                consent_util::table::thousands(u64::from(size)),
                pct(self.curve.total_share(i)),
            ];
            row.extend(ALL_CMPS.iter().map(|&c| pct(self.curve.share_of(i, c))));
            t.row(row);
        }
        t.to_string()
    }
}

/// Run the sweep at the May 2020 snapshot.
pub fn fig5(study: &Study) -> Fig5Result {
    fig5_at(study, known::may_2020_snapshot())
}

/// Run the sweep at an arbitrary snapshot (Figures A.4/A.5 use January
/// 2019 / January 2020).
pub fn fig5_at(study: &Study, snapshot: Day) -> Fig5Result {
    let world = study.world();
    let engine = Engine::new(world, study.seed().child("fig5-engine"));
    let detector = Detector::hostname_only();
    let per_stratum = study.config().fig5_stratum_sample;
    let n = world.n_sites();

    // Strata: census up to the stratum-sample size, then sampled.
    let sizes = standard_sizes();
    let mut strata: Vec<(u32, u32)> = Vec::new(); // (lo, hi] rank ranges
    let mut lo = 0u32;
    for &hi in &sizes {
        let hi = hi.min(n);
        if hi > lo {
            strata.push((lo, hi));
            lo = hi;
        }
    }

    let mut rng = study.seed().child("fig5-sample").rng();
    let mut observations = Vec::new();
    let mut crawled = 0usize;
    for (lo, hi) in strata {
        let width = hi - lo;
        let (ranks, weight): (Vec<u32>, f64) = if width <= per_stratum {
            ((lo + 1..=hi).collect(), 1.0)
        } else {
            let mut all: Vec<u32> = (lo + 1..=hi).collect();
            all.shuffle(&mut rng);
            all.truncate(per_stratum as usize);
            (all, f64::from(width) / f64::from(per_stratum))
        };
        for rank in ranks {
            let profile = world.profile(rank);
            let url = format!("https://{}/", profile.domain);
            let capture = engine.capture(
                &url,
                snapshot,
                Vantage::eu_cloud(),
                CaptureOptions::default(),
            );
            crawled += 1;
            let cmp: Option<Cmp> = detector.detect(&capture).into_iter().next();
            observations.push(RankObservation { rank, weight, cmp });
        }
    }
    let curve = marketshare_curve(&observations, &sizes);
    Fig5Result {
        snapshot,
        curve,
        crawled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_curve_has_paper_shape() {
        let study = Study::quick();
        let r = fig5(&study);
        assert!(r.crawled > 1_000);
        let sizes = &r.curve.sizes;
        // The curve covers the world size even when < 1M.
        assert!(*sizes.last().unwrap() >= study.world().n_sites());
        // Mid-market hump: share at 1k-5k exceeds share at 100 and the
        // deep tail.
        let at = |s: u32| {
            let i = sizes.iter().position(|&x| x == s).unwrap();
            r.curve.total_share(i)
        };
        assert!(at(2_000) > at(100), "{} vs {}", at(2_000), at(100));
        assert!(at(2_000) > at(50_000), "{} vs {}", at(2_000), at(50_000));
        // Head share is small but present (~4 % at 100 in the paper; the
        // EU-cloud vantage sees a bit less).
        assert!(at(100) < 0.12);
        let render = r.render();
        assert!(render.contains("Toplist size"));
        assert!(render.contains('%'));
    }

    #[test]
    fn earlier_snapshot_has_lower_share() {
        let study = Study::quick();
        let may20 = fig5_at(&study, Day::from_ymd(2020, 5, 15));
        let jan19 = fig5_at(&study, Day::from_ymd(2019, 1, 15));
        let idx = may20.curve.sizes.iter().position(|&s| s == 10_000).unwrap();
        assert!(
            jan19.curve.total_share(idx) < may20.curve.total_share(idx),
            "{} !< {}",
            jan19.curve.total_share(idx),
            may20.curve.total_share(idx)
        );
    }
}
