//! The storage-fault soak sweep: durable campaigns under increasing
//! background IO-fault rates, written to `BENCH_soak.json`.
//!
//! For each fault rate (per-mille of filesystem operations, injected by
//! a [`FaultyVfs`] with an [`IoFaultPlan::rate`] plan), [`soak`] runs
//! the workload's repeats of durable campaigns against fresh stores and
//! records, per rate:
//!
//! * throughput (`pairs_per_sec`) and per-pair latency quantiles — the
//!   shared `BENCH_*.json` columns, so the `diff` gate can compare soak
//!   points across commits;
//! * **completion rate**: the fraction of campaigns that finished fully
//!   healthy (`Complete`) versus cleanly degraded (`Degraded`) — a
//!   crash or wedge fails the sweep outright;
//! * **MTTR** (mean time to repair): mean and p95 of the
//!   `supervisor.mttr_us` histogram, the wall time from a checkpoint
//!   save's first injected failure to its eventual success;
//! * the raw fault/retry/skip counters behind those outcomes.
//!
//! The sweep is a correctness check like the other benches: every
//! campaign, at every fault rate, must export byte-identical
//! [`CampaignState`](consent_crawler::CampaignState) bytes — storage
//! faults may cost durability and time, never measurement bytes.

use crate::{BenchRecord, Meter, Row, Scratch, Sweep, Workload};
use consent_checkpoint::{CheckpointStore, DEFAULT_KEEP};
use consent_crawler::{run_durable_campaign, DurableOpts, DurableOutcome, DurableRun};
use consent_faultsim::{FaultyVfs, IoFaultPlan};
use consent_util::Json;
use std::sync::Arc;

/// Checkpoint cadence of every soak campaign, in pairs.
pub const SOAK_CHECKPOINT_EVERY: u64 = 20;

/// One fault-rate row of the soak sweep: the shared bench columns plus
/// the soak-specific health columns.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakRecord {
    /// The shared `BENCH_*.json` columns (`soak/io_rate=Npermille`).
    pub record: BenchRecord,
    /// Injected IO-fault rate in per-mille of filesystem operations.
    pub rate_per_mille: u64,
    /// Campaigns that finished fully healthy.
    pub completed: u64,
    /// Campaigns that finished degraded (loud, never silent).
    pub degraded: u64,
    /// `completed / (completed + degraded)`.
    pub completion_rate: f64,
    /// Checkpoint IO faults observed across the row's campaigns.
    pub io_faults: u64,
    /// Supervised save retries across the row's campaigns.
    pub retries: u64,
    /// Checkpoint writes skipped in memory-only mode.
    pub writes_skipped: u64,
    /// Saves that needed repair (count of `supervisor.mttr_us`).
    pub repairs: u64,
    /// Mean time to repair a failing save, in microseconds.
    pub mttr_us_mean: f64,
    /// 95th-percentile time to repair, in microseconds.
    pub mttr_us_p95: u64,
}

impl Row for SoakRecord {
    fn record(&self) -> &BenchRecord {
        &self.record
    }

    fn extra_columns(&self) -> Vec<(&'static str, Json)> {
        let int = |n: u64| Json::int(n as i64);
        vec![
            ("rate_per_mille", int(self.rate_per_mille)),
            ("completed", int(self.completed)),
            ("degraded", int(self.degraded)),
            ("completion_rate", Json::Number(self.completion_rate)),
            ("io_faults", int(self.io_faults)),
            ("retries", int(self.retries)),
            ("writes_skipped", int(self.writes_skipped)),
            ("repairs", int(self.repairs)),
            ("mttr_us_mean", Json::Number(self.mttr_us_mean)),
            ("mttr_us_p95", int(self.mttr_us_p95)),
        ]
    }
}

/// Run the soak sweep over `rates_per_mille` (0 = the fault-free
/// control row) and return one row per rate.
///
/// Panics if any campaign crashes, wedges, or exports different bytes
/// than the fault-free control — a soak run that breaks the
/// supervisor's guarantees must not produce a trajectory point.
pub fn soak(w: &Workload, rates_per_mille: &[u64]) -> Sweep<SoakRecord> {
    let meter = Meter::acquire();
    let fixture = w.build();
    let threads = w.first_threads();
    let run_once = |plan: IoFaultPlan| -> DurableRun {
        let dir = Scratch::new();
        let vfs = Arc::new(FaultyVfs::new(plan));
        let store = CheckpointStore::with_vfs(&dir.0, DEFAULT_KEEP, vfs).expect("open soak store");
        let opts = DurableOpts {
            threads,
            config: fixture.config,
            checkpoint_every: SOAK_CHECKPOINT_EVERY,
            ..DurableOpts::default()
        };
        let (world, list) = (&fixture.world, &fixture.list);
        run_durable_campaign(
            world,
            list,
            w.days[0],
            &w.vantages,
            fixture.seed,
            &store,
            &opts,
        )
        .expect("durable campaign io")
    };

    // The fault-free control run pins the bytes every faulted campaign
    // must still produce (and warms caches).
    let control = run_once(IoFaultPlan::none());
    assert_eq!(control.outcome, DurableOutcome::Complete);
    let baseline = control.state.export();

    let records = rates_per_mille
        .iter()
        .map(|&pm| {
            let (mut completed, mut degraded) = (0u64, 0u64);
            let reading = meter.measure(|p| {
                p.time(|| {
                    for rep in 0..w.reps() {
                        // A distinct seed per repeat so the faults land
                        // on different operations, same rate.
                        let plan = match pm {
                            0 => IoFaultPlan::none(),
                            _ => IoFaultPlan::rate(w.seed.wrapping_add(rep), pm),
                        };
                        let run = run_once(plan);
                        match &run.outcome {
                            DurableOutcome::Complete => completed += 1,
                            DurableOutcome::Degraded(_) => degraded += 1,
                            DurableOutcome::Crashed { .. } => {
                                panic!("soak campaign crashed at {pm}\u{2030} — refusing to record")
                            }
                        }
                        assert!(
                            run.state.export() == baseline,
                            "state diverged at {pm}\u{2030} (repeat {rep}) — refusing to record"
                        );
                    }
                })
            });
            let name = format!("soak/io_rate={pm}permille");
            let pairs = fixture.pairs() * w.reps();
            let mttr = reading.histogram("supervisor.mttr_us");
            let counter = |key: &str| reading.snapshot.counter(key);
            SoakRecord {
                record: BenchRecord::measured(name, threads, pairs, &reading, "campaign.pair"),
                rate_per_mille: pm,
                completed,
                degraded,
                completion_rate: completed as f64 / (completed + degraded).max(1) as f64,
                io_faults: counter("checkpoint.io_fault"),
                retries: counter("checkpoint.retry"),
                writes_skipped: counter("checkpoint.skipped"),
                repairs: mttr.count,
                mttr_us_mean: mttr.mean,
                mttr_us_p95: mttr.p95,
            }
        })
        .collect();
    let rates = Json::array(rates_per_mille.iter().map(|&r| Json::int(r as i64)));
    let workload = w.describe([
        ("threads", Json::int(threads as i64)),
        ("rates_per_mille", rates),
        ("checkpoint_every", Json::int(SOAK_CHECKPOINT_EVERY as i64)),
    ]);
    Sweep {
        bench: "storage_soak",
        workload,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_httpsim::Vantage;

    /// 40 pairs: two checkpoint cuts per campaign.
    fn small() -> Workload {
        Workload {
            sites: 400,
            domains: 40,
            vantages: vec![Vantage::eu_cloud()],
            repeats: 2,
            threads: vec![2],
            ..Workload::soak()
        }
    }

    /// The 0‰ row: no faults injected, every campaign healthy.
    fn assert_control(r: &SoakRecord) {
        assert_eq!(r.record.name, "soak/io_rate=0permille");
        assert_eq!(r.completed, 2);
        assert_eq!(r.degraded, 0);
        assert_eq!(r.completion_rate, 1.0);
        assert_eq!(r.io_faults, 0);
        assert_eq!(r.repairs, 0);
    }

    /// The 200‰ row: 20% of filesystem operations failing must hurt
    /// (faults observed) but never crash or change bytes (the sweep
    /// asserts both).
    fn assert_hot(r: &SoakRecord) {
        assert_eq!(r.record.name, "soak/io_rate=200permille");
        assert_eq!(r.completed + r.degraded, 2);
        assert!(r.io_faults > 0, "20% fault rate produced no faults");
        assert!(r.completion_rate <= 1.0);
    }

    #[test]
    fn soak_sweep_records_health_columns_per_rate() {
        let w = small();
        let records = soak(&w, &[0, 200]).records;
        assert_eq!(records.len(), 2);
        assert_control(&records[0]);
        assert_hot(&records[1]);
        for r in &records {
            assert_eq!(r.record.pairs, w.pairs() * 2);
            assert!(r.record.pairs_per_sec > 0.0);
        }
    }

    #[test]
    fn soak_document_keeps_diff_compatible_keys() {
        let w = small();
        let parsed =
            Json::parse(&soak(&w, &[0, 200]).document().to_pretty()).expect("document parses");
        assert_eq!(
            parsed.get("bench").and_then(Json::as_str),
            Some("storage_soak")
        );
        assert_eq!(parsed.get("schema").and_then(Json::as_u32), Some(1));
        let recs = parsed.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(recs.len(), 2);
        for rec in recs {
            // The shared columns the diff gate needs...
            for key in ["name", "pairs_per_sec", "p50_us", "p95_us"] {
                assert!(rec.get(key).is_some(), "missing shared key {key}");
            }
            // ...and the soak-specific health columns.
            for key in [
                "rate_per_mille",
                "completed",
                "degraded",
                "completion_rate",
                "io_faults",
                "retries",
                "writes_skipped",
                "repairs",
                "mttr_us_mean",
                "mttr_us_p95",
            ] {
                assert!(rec.get(key).is_some(), "missing soak key {key}");
            }
        }
        // The diff tool accepts the document end-to-end.
        let diff = crate::diff_documents(&parsed, &parsed).expect("diff accepts soak docs");
        assert!(diff.regressions(crate::DEFAULT_THRESHOLD_PCT).is_empty());
    }

    /// Two sweeps started at once on two threads each report what they
    /// would report alone: the registry lock keeps one sweep's resets
    /// and faults out of the other's rows.
    #[test]
    fn concurrent_sweeps_keep_their_own_rows() {
        let w = small();
        let (control, hot) = std::thread::scope(|s| {
            let control = s.spawn(|| soak(&w, &[0]).records);
            let hot = s.spawn(|| soak(&w, &[200]).records);
            (control.join().unwrap(), hot.join().unwrap())
        });
        assert_control(&control[0]);
        assert_hot(&hot[0]);
    }
}
