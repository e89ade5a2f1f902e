//! Archival round-trip — pack a campaign into a content-addressed
//! bundle, fsck it, and replay the analyses from the archive alone.
//!
//! This is the reproducibility experiment behind the paper's
//! "measurements must be auditable later" posture (and the Web
//! Execution Bundle idea from related work): a completed Table-1-style
//! campaign is packed by the durable driver into a `consent-bundle`
//! archive together with its [`standard_exports`] analysis documents,
//! then [`replay_campaign_bundle`] re-imports the state *from the
//! bundle* and recomputes every export, byte-comparing against the
//! archived copies. The result names the dedup ratio the
//! content-addressed store achieved and whether replay reproduced the
//! analyses exactly.

use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::Study;
use consent_analysis::standard_exports;
use consent_crawler::archive::{replay_campaign_bundle, ExportFn, ReplayReport};
use consent_crawler::{
    build_toplist, open_chaos_store, run_durable_campaign, BundleSpec, DurableOpts, DurableOutcome,
};
use consent_httpsim::Vantage;
use consent_util::table::Table;
use consent_util::Day;

/// Output of the archival round-trip experiment.
pub struct ArchiveResult {
    /// How the durable campaign ended.
    pub outcome: DurableOutcome,
    /// One-line pack summary (blob counts, dedup ratio).
    pub pack_summary: String,
    /// Blob-level dedup ratio achieved by the content-addressed store.
    pub dedup_ratio: f64,
    /// The replay verdict: pairs, documents compared, first divergence.
    pub replay: ReplayReport,
}

impl ArchiveResult {
    /// True when the campaign finished, the pack verified clean, and
    /// replay reproduced every analysis document byte-for-byte.
    pub fn reproducible(&self) -> bool {
        self.outcome.finished() && self.replay.ok()
    }

    /// Render as a small report table.
    pub fn render(&self) -> String {
        let mut t = Table::with_columns(&["Check", "Result"]);
        t.title("Archive: content-addressed bundle round-trip");
        t.row(vec!["campaign".into(), format!("{:?}", self.outcome)]);
        t.row(vec!["pack".into(), self.pack_summary.clone()]);
        t.row(vec![
            "dedup ratio".into(),
            format!("{:.3}", self.dedup_ratio),
        ]);
        t.row(vec!["replay".into(), self.replay.summary()]);
        t.to_string()
    }
}

/// Run a reduced campaign, pack it into `bundle_dir` (checkpointing
/// into `store_dir`), and replay the analyses from the bundle.
///
/// Scale is bounded independently of the study's toplist size: the
/// point is the round-trip property, not campaign throughput.
pub fn archive_roundtrip(
    study: &Study,
    store_dir: &Path,
    bundle_dir: &Path,
) -> io::Result<ArchiveResult> {
    let domains = study.config().toplist_size.min(40);
    let list = build_toplist(
        study.world(),
        domains,
        study.seed().child("archive-toplist"),
    );
    let day = Day::from_ymd(2020, 5, 15);
    let vantages = [Vantage::us_cloud(), Vantage::eu_cloud()];
    let provider: Arc<ExportFn> = Arc::new(standard_exports);
    let store = open_chaos_store(store_dir)?;
    let run = run_durable_campaign(
        study.world(),
        &list,
        day,
        &vantages,
        study.seed().child("archive-campaign"),
        &store,
        &DurableOpts {
            bundle: Some(BundleSpec {
                dir: bundle_dir.to_path_buf(),
                provider: Some(Arc::clone(&provider)),
                gvl_json: None,
            }),
            ..DurableOpts::default()
        },
    )?;
    let (pack_summary, dedup_ratio) = match &run.bundle {
        Some(report) => (report.summary(), report.dedup_ratio()),
        None => ("no bundle packed".to_string(), 0.0),
    };
    let replay = replay_campaign_bundle(bundle_dir, Some(&*provider))?;
    Ok(ArchiveResult {
        outcome: run.outcome,
        pack_summary,
        dedup_ratio,
        replay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "consent-core-archive-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn quick_study_round_trips_through_the_archive() {
        let study = Study::quick();
        let store_dir = tmp_dir();
        let bundle_dir = tmp_dir();
        let result = archive_roundtrip(&study, &store_dir, &bundle_dir).unwrap();
        assert!(result.reproducible(), "{}", result.render());
        assert!(result.dedup_ratio >= 1.0, "{}", result.render());
        assert!(result.render().contains("replay ok"));
        std::fs::remove_dir_all(store_dir).unwrap();
        std::fs::remove_dir_all(bundle_dir).unwrap();
    }
}
