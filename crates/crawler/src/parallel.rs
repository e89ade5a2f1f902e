//! The parallel campaign executor.
//!
//! The paper's scale (Tranco-10k × six vantages × a week of retries,
//! ~161 M crawls over the study) makes the sequential triple loop in
//! [`resume_campaign`] the throughput ceiling of the whole pipeline.
//! This module shards the `(domain, vantage)` pair stream across a
//! `std::thread` worker pool and merges the per-worker shards back into
//! one [`CampaignState`] whose export is **byte-identical** to the
//! sequential run at any thread count.
//!
//! # Why the merge can be deterministic
//!
//! Each pair is crawled by `process_pair_contained` (the same
//! panic-containing wrapper the sequential loop calls), whose underlying
//! `process_pair` is a pure function of
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
//! sorted by pair index (the same vantage-major, rank-minor order the
//! sequential loop walks), and applied on the calling thread. Because
//! application is single-threaded and the capture store is append-only
//! (columnar segments that seal at fixed capacity, never at cut
//! boundaries — see `docs/STORAGE.md`), the store's physical layout is
//! a pure function of the insert history: host interning order, segment
//! boundaries, and per-shard row order are identical at any thread
//! count. A checkpoint cut anywhere — including a kill halfway through
//! a budgeted run — resumes to the same bytes because the first
//! `pairs_done` pairs of the order are exactly the ones already
//! applied, and that same property is what lets delta checkpoints
//! describe "everything since the last cut" as plain per-shard row
//! ranges ([`CaptureDb::marks`](crate::CaptureDb::marks)).

use crate::campaign::{
    apply_pair, process_pair_contained, resume_campaign, CampaignCapture, CampaignConfig,
    CampaignResult, CampaignRun, CampaignState, PairOutput,
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

/// How a parallel campaign shards its work.
#[derive(Clone, Debug)]
pub struct ParallelOpts {
    /// Worker threads. `0` and `1` both run the sequential code path
    /// ([`resume_campaign`]) unchanged.
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

impl ParallelOpts {
    /// Options with an explicit worker count and defaults elsewhere.
    pub fn with_threads(threads: usize) -> ParallelOpts {
        ParallelOpts {
            threads,
            ..ParallelOpts::default()
        }
    }
}

/// Run a full campaign across a worker pool.
///
/// Semantically identical to
/// [`run_campaign_with`](crate::run_campaign_with) — same captures, same
/// checkpoint bytes, same trace export — only faster on multicore
/// hardware. `opts.threads <= 1` *is* the sequential runner.
///
/// ```
/// use consent_crawler::{build_toplist, run_campaign_parallel, run_campaign_with};
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
/// let opts = ParallelOpts { threads: 2, config, max_pairs: None };
///
/// let parallel = run_campaign_parallel(
///     &world, &list, day, &[Vantage::eu_cloud()], SeedTree::new(9), &opts,
/// );
/// let sequential = run_campaign_with(
///     &world, &list, day, &[Vantage::eu_cloud()], SeedTree::new(9), &config,
/// );
/// // Byte-identical checkpoints at any thread count.
/// assert_eq!(parallel.state.export(), sequential.state.export());
/// assert!(parallel.complete);
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

/// Run (or continue) a campaign from a checkpoint across a worker pool.
///
/// The counterpart of [`resume_campaign`]: the first `state.pairs_done`
/// pairs of the deterministic vantage-major order are skipped without
/// re-crawling, and at most `opts.max_pairs` further pairs are processed.
/// Because application order is restored before any state is touched, a
/// parallel run interrupted anywhere — even mid-merge, where the
/// checkpoint on disk still holds the previous cut — resumes to the
/// same bytes as an uninterrupted sequential run.
pub fn resume_campaign_parallel(
    world: &World,
    domains: &[String],
    day: Day,
    vantages: &[Vantage],
    seed: SeedTree,
    opts: &ParallelOpts,
    mut state: CampaignState,
) -> CampaignRun {
    if opts.threads <= 1 {
        return resume_campaign(
            world,
            domains,
            day,
            vantages,
            seed,
            &opts.config,
            state,
            opts.max_pairs,
        );
    }
    let _span = consent_telemetry::span("campaign.run");
    let engine = FaultyEngine::from_world(world, opts.config.fault_profile, seed);
    let prober = WorldProber::new(world, seed.child("prober"));
    // Same three resolution rounds as the sequential runner (§3.2);
    // resolution is a pure function of the seed.
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
    consent_telemetry::count("campaign.pairs_skipped", start);
    consent_telemetry::gauge_set("campaign.parallel.workers", opts.threads as i64);

    // Work distribution: a shared cursor over the pair order. Claiming
    // one index per fetch keeps the pool balanced when per-pair cost
    // varies (retries, breaker opens). A pair is about 13.5 µs of work
    // (perfbench's traced 1-thread Tranco-10k × 6-vantage campaign: 60 000
    // pairs in 0.812 s on a 2-vCPU VM), so one fetch_add per pair, tens
    // of nanoseconds even when contended, stays well under 1% of it.
    let next = AtomicU64::new(start);
    let n_seeds = seeds.len() as u64;
    let shards: Vec<Vec<(u64, PairOutput)>> = thread::scope(|sc| {
        let handles: Vec<_> = (0..opts.threads)
            .map(|_| {
                sc.spawn(|| {
                    let mut shard: Vec<(u64, PairOutput)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= end {
                            break;
                        }
                        // Live-plane gauges (scraped by consent-obs):
                        // the claimed cursor position and how many pairs
                        // are being crawled right now. Both race across
                        // workers by design — they are health signals,
                        // not accounting — and the whole
                        // `campaign.parallel.*` family is denied from
                        // deterministic samples.
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
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });

    // Order-restoring merge: pair indices are unique, so the sort is
    // deterministic no matter how the pool interleaved, and applying in
    // ascending order reproduces the sequential insertion order exactly.
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
    use crate::campaign::{build_toplist, run_campaign_with};
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

    #[test]
    fn zero_and_one_thread_take_the_sequential_path() {
        let w = world();
        let list = build_toplist(&w, 30, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let seq = run_campaign_with(
            &w,
            &list,
            day,
            &[Vantage::us_cloud()],
            SeedTree::new(9),
            &opts(1, FaultProfile::none()).config,
        );
        for threads in [0, 1] {
            let run = run_campaign_parallel(
                &w,
                &list,
                day,
                &[Vantage::us_cloud()],
                SeedTree::new(9),
                &opts(threads, FaultProfile::none()),
            );
            assert!(run.complete);
            assert_eq!(run.state.export(), seq.state.export());
        }
    }

    #[test]
    fn worker_pool_matches_sequential_bytes() {
        let w = world();
        let list = build_toplist(&w, 40, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
        let seq = run_campaign_with(
            &w,
            &list,
            day,
            &vantages,
            SeedTree::new(9),
            &opts(1, FaultProfile::mild()).config,
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
            assert_eq!(
                par.state.export(),
                seq.state.export(),
                "divergence at {threads} threads"
            );
            for ((va, ca), (vb, cb)) in par.result.columns.iter().zip(seq.result.columns.iter()) {
                assert_eq!(va, vb);
                assert_eq!(ca.len(), cb.len());
                for (x, y) in ca.iter().zip(cb.iter()) {
                    assert_eq!(x.capture, y.capture);
                    assert_eq!(x.attempts, y.attempts);
                    assert_eq!(x.outcome, y.outcome);
                }
            }
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
        // Resume the remainder in parallel and land on the sequential bytes.
        o.max_pairs = None;
        let second =
            resume_campaign_parallel(&w, &list, day, &vantages, SeedTree::new(9), &o, first.state);
        assert!(second.complete);
        let seq = run_campaign_with(&w, &list, day, &vantages, SeedTree::new(9), &o.config);
        assert_eq!(second.state.export(), seq.state.export());
    }
}
