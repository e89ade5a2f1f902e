//! Table 1 / Table A.3 — CMP occurrence by vantage point.

use crate::study::Study;
use consent_analysis::{vantage_table, VantageTable};
use consent_crawler::{
    build_toplist, run_campaign, run_campaign_parallel, CampaignResult, ParallelOpts,
};
use consent_fingerprint::Detector;
use consent_httpsim::Vantage;
use consent_util::{date::known, Day};

/// Output of the Table 1 experiment.
pub struct Table1Result {
    /// Snapshot day the campaign ran on.
    pub snapshot: Day,
    /// The computed table.
    pub table: VantageTable,
    /// Raw campaign output (kept for the I3 analysis, which reuses the
    /// EU-university captures).
    pub campaign: CampaignResult,
}

impl Table1Result {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let title = format!(
            "Table 1: Occurrence of CMPs on websites in the Tranco toplist ({})",
            self.snapshot
        );
        self.table.render(&title)
    }
}

/// Run the toplist campaign for the May 2020 snapshot (Table 1).
pub fn table1(study: &Study) -> Table1Result {
    run_at(study, known::may_2020_snapshot())
}

/// Run the January 2020 variant (Table A.3).
pub fn table_a3(study: &Study) -> Table1Result {
    run_at(study, known::jan_2020_snapshot())
}

/// Run the campaign at an arbitrary snapshot day.
pub fn run_at(study: &Study, snapshot: Day) -> Table1Result {
    let list = build_toplist(
        study.world(),
        study.config().toplist_size,
        study.seed().child("toplist"),
    );
    let campaign = run_campaign(
        study.world(),
        &list,
        snapshot,
        &Vantage::table1_columns(),
        study.seed().child("campaign").child_idx(snapshot.0 as u64),
    );
    let table = vantage_table(&campaign, &Detector::hostname_only());
    Table1Result {
        snapshot,
        table,
        campaign,
    }
}

/// [`run_at`] on the worker-pool executor. Returns the same result as
/// the sequential entry point at any `threads` — the parallel merge is
/// byte-deterministic — just faster on multicore hardware. `threads <= 1`
/// runs the sequential code path unchanged.
pub fn run_at_parallel(study: &Study, snapshot: Day, threads: usize) -> Table1Result {
    let list = build_toplist(
        study.world(),
        study.config().toplist_size,
        study.seed().child("toplist"),
    );
    let run = run_campaign_parallel(
        study.world(),
        &list,
        snapshot,
        &Vantage::table1_columns(),
        study.seed().child("campaign").child_idx(snapshot.0 as u64),
        &ParallelOpts::with_threads(threads),
    );
    let table = vantage_table(&run.result, &Detector::hostname_only());
    Table1Result {
        snapshot,
        table,
        campaign: run.result,
    }
}

/// [`table1`] on the worker-pool executor ([`run_at_parallel`]).
pub fn table1_parallel(study: &Study, threads: usize) -> Table1Result {
    run_at_parallel(study, known::may_2020_snapshot(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_has_paper_shape() {
        let study = Study::quick();
        let r = table1(&study);
        // Monotone coverage: US cloud < EU university extended.
        assert!(r.table.total(0) < r.table.total(3));
        // Coverage row ends at 100 % for the best column.
        let best: f64 = (0..6).map(|i| r.table.coverage(i)).fold(0.0, f64::max);
        assert!((best - 1.0).abs() < 1e-9);
        let rendered = r.render();
        assert!(rendered.contains("Quantcast"));
        assert!(rendered.contains("Coverage"));
    }

    #[test]
    fn parallel_variant_renders_the_same_table() {
        let study = Study::quick();
        let seq = table1(&study);
        let par = table1_parallel(&study, 3);
        assert_eq!(seq.render(), par.render());
        assert_eq!(seq.campaign.columns.len(), par.campaign.columns.len());
    }

    #[test]
    fn january_snapshot_smaller_than_may() {
        let study = Study::quick();
        let may = table1(&study);
        let jan = table_a3(&study);
        // Adoption grows: the best column in January is below May's.
        let may_best = (0..6).map(|i| may.table.total(i)).max().unwrap();
        let jan_best = (0..6).map(|i| jan.table.total(i)).max().unwrap();
        assert!(jan_best < may_best, "jan {jan_best} !< may {may_best}");
        // §3.5: US coverage grows markedly between the snapshots as CCPA
        // adoption ramps (70 % → 79 % in the paper).
        assert!(jan.table.coverage(0) <= may.table.coverage(0) + 0.05);
    }
}
