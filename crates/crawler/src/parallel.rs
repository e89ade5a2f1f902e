//! The campaign executor.
//!
//! The paper's scale (Tranco-10k × six vantages × a week of retries,
//! ~161 M crawls over the study) makes the pair loop the throughput
//! ceiling of the whole pipeline. This module is that loop: it shards
//! the `(domain, vantage)` pair stream across a `std::thread` worker
//! pool — the calling thread is worker 0, and `threads − 1` helpers join
//! it — and merges the per-worker shards back into one [`CampaignState`]
//! whose export is **byte-identical** at any thread count.
//!
//! # Why the merge can be deterministic
//!
//! Each pair is crawled by `process_pair_contained` (the
//! panic-containing wrapper around `process_pair`), a pure function of
//! the pair identity: every random draw inside the engine and the fault
//! plan is keyed by `(host, day, vantage, attempt)`, trace ids come from
//! [`consent_trace::stable_id`], and the per-pair
//! [`CircuitBreaker`](crate::resilience::CircuitBreaker) lives on the
//! worker's stack. Workers therefore never race on campaign state: a
//! worker's only shared-mutable touchpoints are the commutative
//! telemetry registry and the lock-sharded trace log (whose JSONL export
//! sorts by `(trace_id, seq)`, with sequence numbers drawn from
//! per-trace counters — so the interleaving of workers is invisible in
//! the export).
//!
//! Pair *application* — [`CaptureDb`](crate::CaptureDb) ingestion,
//! provenance, dead letters, result columns — is order-sensitive, so it
//! never happens on a worker. Workers push `(pair_index, PairOutput)`
//! into private shards; after the pool joins, the shards are flattened,
//! sorted by pair index (vantage-major, rank-minor), and applied on the
//! calling thread. Because application is single-threaded and the
//! capture store is append-only (columnar segments that seal at fixed
//! capacity, never at cut boundaries — see `docs/STORAGE.md`), the
//! store's physical layout is a pure function of the insert history:
//! host interning order, segment boundaries, and per-shard row order
//! are identical at any thread count. A checkpoint cut anywhere — including a kill halfway through
//! a budgeted run — resumes to the same bytes because the first
//! `pairs_done` pairs of the order are exactly the ones already
//! applied, and that same property is what lets delta checkpoints
//! describe "everything since the last cut" as plain per-shard row
//! ranges ([`CaptureDb::marks`](crate::CaptureDb::marks)).

use crate::campaign::{
    apply_pair, process_pair_contained, CampaignCapture, CampaignConfig, CampaignResult,
    CampaignRun, CampaignState, PairOutput,
};
use consent_faultsim::FaultyEngine;
use consent_fingerprint::Detector;
use consent_httpsim::{Vantage, WorldProber};
use consent_psl::PublicSuffixList;
use consent_toplist::resolve_all;
use consent_util::{Day, SeedTree};
use consent_webgraph::World;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// How a campaign shards its work.
#[derive(Clone, Debug)]
pub struct ParallelOpts {
    /// Worker threads, the calling thread included: `threads − 1`
    /// helpers are spawned, none at `0` or `1`. The exports do not
    /// depend on it.
    pub threads: usize,
    /// Campaign behavior: chaos profile, retry schedule, breaker.
    pub config: CampaignConfig,
    /// Cap on pairs processed by this invocation (for incremental
    /// checkpointing); `None` runs to completion.
    pub max_pairs: Option<u64>,
}

impl Default for ParallelOpts {
    /// One worker per available core, default [`CampaignConfig`], no
    /// pair budget.
    fn default() -> ParallelOpts {
        ParallelOpts {
            threads: thread::available_parallelism().map_or(1, |n| n.get()),
            config: CampaignConfig::default(),
            max_pairs: None,
        }
    }
}

/// Run a full campaign on `day` for the given vantage columns.
///
/// Same captures, same checkpoint bytes, same trace export at any
/// `opts.threads` — more threads are only faster on multicore hardware.
///
/// ```
/// use consent_crawler::{build_toplist, run_campaign_parallel};
/// use consent_crawler::{CampaignConfig, ParallelOpts, RetryPolicy, BreakerConfig};
/// use consent_faultsim::FaultProfile;
/// use consent_httpsim::Vantage;
/// use consent_util::{Day, SeedTree};
/// use consent_webgraph::{AdoptionConfig, World, WorldConfig};
///
/// let world = World::new(WorldConfig {
///     n_sites: 300,
///     seed: 42,
///     adoption: AdoptionConfig::default(),
/// });
/// let list = build_toplist(&world, 8, SeedTree::new(7));
/// let day = Day::from_ymd(2020, 5, 15);
/// let config = CampaignConfig {
///     fault_profile: FaultProfile::mild(),
///     retry: RetryPolicy::paper(),
///     breaker: BreakerConfig::default(),
/// };
/// let run = |threads| {
///     let opts = ParallelOpts { threads, config, max_pairs: None };
///     run_campaign_parallel(&world, &list, day, &[Vantage::eu_cloud()], SeedTree::new(9), &opts)
/// };
/// let (two, one) = (run(2), run(1));
/// // Byte-identical checkpoints at any thread count.
/// assert_eq!(two.state.export(), one.state.export());
/// assert!(two.complete);
/// ```
pub fn run_campaign_parallel(
    world: &World,
    domains: &[String],
    day: Day,
    vantages: &[Vantage],
    seed: SeedTree,
    opts: &ParallelOpts,
) -> CampaignRun {
    resume_campaign_parallel(
        world,
        domains,
        day,
        vantages,
        seed,
        opts,
        CampaignState::new(),
    )
}

/// Run (or continue) a campaign from a checkpoint.
///
/// Pairs are processed in a deterministic vantage-major, rank-minor
/// order; the first `state.pairs_done` pairs are skipped without
/// re-crawling, and at most `opts.max_pairs` further pairs are processed
/// (`None` runs to completion). Because every random draw is keyed by
/// `(host, day, vantage, attempt)` rather than by call order, and
/// application order is restored before any state is touched, a run
/// interrupted anywhere — even mid-merge, where the checkpoint on disk
/// still holds the previous cut — resumes, at any thread count, to the
/// same bytes as an uninterrupted run.
pub fn resume_campaign_parallel(
    world: &World,
    domains: &[String],
    day: Day,
    vantages: &[Vantage],
    seed: SeedTree,
    opts: &ParallelOpts,
    mut state: CampaignState,
) -> CampaignRun {
    let _span = consent_telemetry::span("campaign.run");
    let engine = FaultyEngine::from_world(world, opts.config.fault_profile, seed);
    let prober = WorldProber::new(world, seed.child("prober"));
    // Three resolution rounds over a week (§3.2). Resolution is a pure
    // function of the seed, so a resumed run re-derives identical URLs.
    let attempt_days = [day - 7, day - 4, day - 1];
    let seeds = resolve_all(domains.iter().cloned(), &prober, &attempt_days);
    let schedule = opts.config.retry.schedule(day);
    let detector = Detector::hostname_only();
    let psl = PublicSuffixList::embedded();

    let total_pairs = (vantages.len() * seeds.len()) as u64;
    let start = state.pairs_done.min(total_pairs);
    let end = start
        .saturating_add(opts.max_pairs.unwrap_or(u64::MAX))
        .min(total_pairs);
    let threads = opts.threads.max(1);
    consent_telemetry::gauge_set("campaign.parallel.workers", threads as i64);

    // Work distribution: a shared cursor over the pair order. Claiming
    // one index per fetch keeps the pool balanced when per-pair cost
    // varies (retries, breaker opens). A pair is about 13.5 µs of work
    // (perfbench's traced 1-thread Tranco-10k × 6-vantage campaign: 60 000
    // pairs in 0.812 s on a 2-vCPU VM), so one fetch_add per pair, tens
    // of nanoseconds even when contended, stays well under 1% of it.
    let next = AtomicU64::new(start);
    let n_seeds = seeds.len() as u64;
    let work = || {
        let mut shard: Vec<(u64, PairOutput)> = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= end {
                break;
            }
            // Live-plane gauges (scraped by consent-obs): the claimed
            // cursor position and how many pairs are being crawled right
            // now. Both race across workers by design — they are health
            // signals, not accounting — and the whole
            // `campaign.parallel.*` family is denied from deterministic
            // samples.
            consent_telemetry::gauge_set("campaign.parallel.cursor", idx as i64);
            consent_telemetry::gauge_add("campaign.parallel.in_flight", 1);
            let col = (idx / n_seeds) as usize;
            let i = (idx % n_seeds) as usize;
            let out = process_pair_contained(
                &engine,
                &seeds[i],
                i + 1,
                col,
                vantages[col],
                day,
                &schedule,
                &opts.config,
                &detector,
            );
            consent_telemetry::gauge_add("campaign.parallel.in_flight", -1);
            shard.push((idx, out));
        }
        consent_telemetry::observe("campaign.parallel.shard_pairs", shard.len() as u64);
        shard
    };
    // The caller is worker 0: it drains the cursor alongside its
    // helpers, then joins them.
    let shards: Vec<Vec<(u64, PairOutput)>> = thread::scope(|sc| {
        let helpers: Vec<_> = (1..threads).map(|_| sc.spawn(work)).collect();
        let mut shards = vec![work()];
        shards.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked")),
        );
        shards
    });

    // Order-restoring merge: pair indices are unique, so the sort is
    // deterministic no matter how the pool interleaved, and applying in
    // ascending order reproduces the pair order exactly.
    let mut outputs: Vec<(u64, PairOutput)> = shards.into_iter().flatten().collect();
    outputs.sort_unstable_by_key(|&(idx, _)| idx);
    let mut columns: Vec<(Vantage, Vec<CampaignCapture>)> =
        vantages.iter().map(|&v| (v, Vec::new())).collect();
    consent_telemetry::gauge_set("campaign.parallel.merge_backlog", outputs.len() as i64);
    for (_, out) in outputs {
        apply_pair(&mut state, &mut columns, day, out, &psl);
        consent_telemetry::gauge_add("campaign.parallel.merge_backlog", -1);
    }
    let complete = state.pairs_done == total_pairs;
    CampaignRun {
        result: CampaignResult { columns, seeds },
        state,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::build_toplist;
    use crate::resilience::{BreakerConfig, RetryPolicy};
    use consent_faultsim::FaultProfile;
    use consent_webgraph::{AdoptionConfig, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            n_sites: 2_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    fn opts(threads: usize, profile: FaultProfile) -> ParallelOpts {
        ParallelOpts {
            threads,
            config: CampaignConfig {
                fault_profile: profile,
                retry: RetryPolicy::paper(),
                breaker: BreakerConfig::default(),
            },
            max_pairs: None,
        }
    }

    /// `a` and `b` agree on the checkpoint bytes and every result column.
    fn assert_same_run(a: &CampaignRun, b: &CampaignRun, what: &str) {
        assert_eq!(a.state.export(), b.state.export(), "{what}");
        assert_eq!(a.result.columns.len(), b.result.columns.len(), "{what}");
        for ((va, ca), (vb, cb)) in a.result.columns.iter().zip(b.result.columns.iter()) {
            assert_eq!(va, vb, "{what}");
            assert_eq!(ca.len(), cb.len(), "{what}");
            for (x, y) in ca.iter().zip(cb.iter()) {
                assert_eq!(x.capture, y.capture, "{what}");
                assert_eq!(x.attempts, y.attempts, "{what}");
                assert_eq!(x.outcome, y.outcome, "{what}");
            }
        }
    }

    #[test]
    fn every_thread_count_and_resume_split_gives_the_same_bytes() {
        let w = world();
        let list = build_toplist(&w, 30, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::us_cloud(), Vantage::eu_cloud()];
        let run = |o: &ParallelOpts, state: CampaignState| {
            resume_campaign_parallel(&w, &list, day, &vantages, SeedTree::new(9), o, state)
        };
        let one = run(&opts(1, FaultProfile::mild()), CampaignState::new());
        assert!(one.complete);
        for threads in [0, 1, 2, 3] {
            let all = run(&opts(threads, FaultProfile::mild()), CampaignState::new());
            assert!(all.complete);
            assert_same_run(&all, &one, &format!("{threads} threads"));
        }
        // Cut a budgeted run at one thread count and resume it at another.
        for (cut_at, resume_at) in [(1, 2), (3, 1)] {
            let mut o = opts(cut_at, FaultProfile::mild());
            o.max_pairs = Some(25);
            let first = run(&o, CampaignState::new());
            assert!(!first.complete);
            assert_eq!(first.state.pairs_done, 25);
            let restored = CampaignState::import(&first.state.export()).unwrap();
            let second = run(&opts(resume_at, FaultProfile::mild()), restored);
            assert!(second.complete);
            let whole = CampaignRun {
                result: first.result.merge(second.result),
                ..second
            };
            assert_same_run(
                &whole,
                &one,
                &format!("cut at {cut_at}, resumed at {resume_at}"),
            );
        }
    }

    #[test]
    fn worker_pool_matches_sequential_bytes() {
        let w = world();
        let list = build_toplist(&w, 40, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
        let seq = run_campaign_parallel(
            &w,
            &list,
            day,
            &vantages,
            SeedTree::new(9),
            &opts(1, FaultProfile::mild()),
        );
        for threads in [2, 3, 8] {
            let par = run_campaign_parallel(
                &w,
                &list,
                day,
                &vantages,
                SeedTree::new(9),
                &opts(threads, FaultProfile::mild()),
            );
            assert!(par.complete);
            assert_same_run(&par, &seq, &format!("divergence at {threads} threads"));
        }
    }

    #[test]
    fn budgeted_parallel_run_stops_at_the_cut() {
        let w = world();
        let list = build_toplist(&w, 30, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
        let mut o = opts(4, FaultProfile::mild());
        o.max_pairs = Some(25);
        let first = run_campaign_parallel(&w, &list, day, &vantages, SeedTree::new(9), &o);
        assert!(!first.complete);
        assert_eq!(first.state.pairs_done, 25);
        assert_eq!(first.state.db.len(), 25);
        // Resume the remainder in parallel and land on the 1-thread bytes.
        o.max_pairs = None;
        let second =
            resume_campaign_parallel(&w, &list, day, &vantages, SeedTree::new(9), &o, first.state);
        assert!(second.complete);
        o.threads = 1;
        let seq = run_campaign_parallel(&w, &list, day, &vantages, SeedTree::new(9), &o);
        assert_eq!(second.state.export(), seq.state.export());
    }
}
