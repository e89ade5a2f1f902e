//! Parallel-executor equivalence guarantees, end to end.
//!
//! The worker-pool executor (`run_campaign_parallel`) promises that
//! parallelism is *invisible* in every artifact the pipeline persists:
//! checkpoint exports, per-pair captures, dead letters, and the causal
//! trace JSONL are byte-identical to the sequential runner at any
//! thread count — with and without chaos, and across a kill-halfway
//! checkpoint/resume cycle. This binary pins those promises.
//!
//! Campaigns write into the process-global `consent_trace` log whenever
//! it is enabled, and cargo runs one binary's test fns concurrently, so
//! every test here holds one lock while it crawls. The trace test
//! enables the log under that lock and leaves it cleared and disabled,
//! mirroring `it_trace`.

use consent_crawler::{
    build_toplist, resume_campaign_parallel, run_campaign_parallel, run_campaign_with,
    BreakerConfig, CampaignConfig, CampaignRun, CampaignState, ParallelOpts, RetryPolicy,
};
use consent_faultsim::FaultProfile;
use consent_httpsim::Vantage;
use consent_util::{Day, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::sync::{Mutex, MutexGuard, OnceLock};

static LOCK: Mutex<()> = Mutex::new(());

/// Keep every other test's campaigns out of the global trace log while
/// this test runs.
fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Hold the global trace log, cleared and recording, for one test.
fn lock() -> MutexGuard<'static, ()> {
    let guard = serial();
    consent_trace::clear();
    consent_trace::enable();
    guard
}

fn unlock(guard: MutexGuard<'static, ()>) {
    consent_trace::disable();
    consent_trace::clear();
    drop(guard);
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        World::new(WorldConfig {
            n_sites: 5_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    })
}

fn toplist() -> &'static [String] {
    static LIST: OnceLock<Vec<String>> = OnceLock::new();
    LIST.get_or_init(|| build_toplist(world(), 110, SeedTree::new(7)))
}

fn config(profile: FaultProfile) -> CampaignConfig {
    CampaignConfig {
        fault_profile: profile,
        retry: RetryPolicy::paper(),
        breaker: BreakerConfig::default(),
    }
}

const DAY: fn() -> Day = || Day::from_ymd(2020, 5, 15);

fn vantages() -> [Vantage; 2] {
    [Vantage::eu_cloud(), Vantage::us_cloud()]
}

fn sequential(profile: FaultProfile) -> CampaignRun {
    run_campaign_with(
        world(),
        toplist(),
        DAY(),
        &vantages(),
        SeedTree::new(9),
        &config(profile),
    )
}

fn parallel(profile: FaultProfile, threads: usize) -> CampaignRun {
    run_campaign_parallel(
        world(),
        toplist(),
        DAY(),
        &vantages(),
        SeedTree::new(9),
        &ParallelOpts {
            threads,
            config: config(profile),
            max_pairs: None,
        },
    )
}

/// Every persisted artifact of `a` equals `b`: checkpoint bytes and the
/// full per-pair capture record, column by column.
fn assert_same_run(a: &CampaignRun, b: &CampaignRun) {
    assert_eq!(a.state.export(), b.state.export());
    assert_eq!(a.result.seeds.len(), b.result.seeds.len());
    for ((va, ca), (vb, cb)) in a.result.columns.iter().zip(b.result.columns.iter()) {
        assert_eq!(va, vb);
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(cb.iter()) {
            assert_eq!(x.rank, y.rank);
            assert_eq!(x.capture, y.capture);
            assert_eq!(x.attempts, y.attempts);
            assert_eq!(x.outcome, y.outcome);
        }
    }
}

#[test]
fn parallel_matches_sequential_bytes_without_chaos() {
    let _serial = serial();
    let seq = sequential(FaultProfile::none());
    assert!(seq.complete);
    for threads in [1usize, 2, 4] {
        let par = parallel(FaultProfile::none(), threads);
        assert!(par.complete);
        assert_same_run(&par, &seq);
    }
}

#[test]
fn parallel_matches_sequential_bytes_under_mild_chaos() {
    let _serial = serial();
    let seq = sequential(FaultProfile::mild());
    assert!(seq.complete);
    // Chaos means retries, breaker opens, and dead letters — all of
    // which must land identically regardless of which worker crawled
    // the pair.
    for threads in [1usize, 2, 4] {
        let par = parallel(FaultProfile::mild(), threads);
        assert!(par.complete);
        assert_same_run(&par, &seq);
        assert_eq!(
            par.state.dead_letters.records().len(),
            seq.state.dead_letters.records().len()
        );
    }
}

#[test]
fn killed_halfway_parallel_run_resumes_to_the_same_bytes() {
    let _serial = serial();
    let cfg = config(FaultProfile::mild());
    let full = sequential(FaultProfile::mild());
    let total = (toplist().len() * vantages().len()) as u64;
    assert_eq!(full.state.pairs_done, total);

    // Kill a 4-thread run mid-column, round-trip the checkpoint through
    // its text format, and finish on a *different* thread count.
    let half = total / 2;
    let first = run_campaign_parallel(
        world(),
        toplist(),
        DAY(),
        &vantages(),
        SeedTree::new(9),
        &ParallelOpts {
            threads: 4,
            config: cfg,
            max_pairs: Some(half),
        },
    );
    assert!(!first.complete);
    assert_eq!(first.state.pairs_done, half);

    let checkpoint = first.state.export();
    let restored = CampaignState::import(&checkpoint).expect("checkpoint parses");
    let second = resume_campaign_parallel(
        world(),
        toplist(),
        DAY(),
        &vantages(),
        SeedTree::new(9),
        &ParallelOpts {
            threads: 2,
            config: cfg,
            max_pairs: None,
        },
        restored,
    );
    assert!(second.complete);
    assert_eq!(second.state.export(), full.state.export());

    // The two halves stitch back into the uninterrupted capture record.
    let merged = first.result.merge(second.result);
    for (vantage, captures) in &full.result.columns {
        let m = merged.column(*vantage).unwrap();
        assert_eq!(m.len(), captures.len());
        for (x, y) in captures.iter().zip(m.iter()) {
            assert_eq!(x.rank, y.rank);
            assert_eq!(x.capture, y.capture);
        }
    }
}

#[test]
fn trace_jsonl_is_byte_identical_across_thread_counts() {
    let guard = lock();
    let seq = sequential(FaultProfile::mild());
    let baseline = consent_trace::global().export_jsonl();
    assert!(baseline.contains("attempt.outcome"));

    for threads in [2usize, 4] {
        consent_trace::clear();
        consent_trace::enable();
        let par = parallel(FaultProfile::mild(), threads);
        let jsonl = consent_trace::global().export_jsonl();
        assert_same_run(&par, &seq);
        assert!(
            jsonl == baseline,
            "trace JSONL diverged at {threads} threads"
        );
    }
    unlock(guard);
}
