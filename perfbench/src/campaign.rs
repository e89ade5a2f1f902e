//! `toplist_campaign`: the Table 1 campaign at paper scale — Tranco-10k
//! × the six `Vantage::table1_columns()` on the May-2020 snapshot, two
//! worker threads, an explicit `FaultProfile::mild()`.
//!
//! This is the workload where resolve, the worker pool, the
//! caller-thread sort-and-apply merge and the shared world cache carry
//! the load. Mild chaos makes the retry schedule, the breaker and
//! per-attempt provenance do real work; with no chaos they would be
//! bypassed. Feed, dedup and storage are idle.

use crate::expect::{digest, Expect};
use crate::harness::{Metric, Pass, Scale, SetupReport, Workload};
use crate::instruments::{CountingProber, LayerClock};
use crate::stats::{apply_residual_us_per_pair, median, ratio, unattributed_share};
use consent_core::{Study, StudyConfig};
use consent_crawler::{
    build_toplist, run_campaign_parallel, BreakerConfig, CampaignConfig, CampaignRun, ParallelOpts,
    RetryPolicy,
};
use consent_faultsim::{FaultProfile, FaultyEngine};
use consent_fingerprint::Detector;
use consent_httpsim::{split_url, CaptureOptions, Location, Vantage, WorldProber};
use consent_toplist::resolve_all;
use consent_util::date::known;
use consent_util::{Day, SeedTree};
use std::time::Instant;

/// Worker threads of a timed pass (the machine's core count).
pub const THREADS: usize = 2;

/// Sequential/parallel campaign pairs the traced run times.
const TRACE_ROUNDS: usize = 3;

pub struct ToplistCampaign {
    config: StudyConfig,
    day: Day,
    campaign: CampaignConfig,
}

impl ToplistCampaign {
    pub fn new(scale: Scale, seed: u64) -> ToplistCampaign {
        let config = match scale {
            Scale::Full => StudyConfig {
                seed,
                ..StudyConfig::default()
            },
            Scale::Smoke => StudyConfig {
                seed,
                n_sites: 20_000,
                toplist_size: 200,
                ..StudyConfig::quick()
            },
        };
        ToplistCampaign {
            config,
            day: known::may_2020_snapshot(),
            campaign: CampaignConfig {
                fault_profile: FaultProfile::mild(),
                retry: RetryPolicy::paper(),
                breaker: BreakerConfig::default(),
            },
        }
    }

    fn run(&self, state: &CampaignState, threads: usize) -> CampaignRun {
        run_campaign_parallel(
            state.study.world(),
            &state.list,
            self.day,
            &Vantage::table1_columns(),
            state.seed,
            &ParallelOpts {
                threads,
                config: self.campaign,
                max_pairs: None,
            },
        )
    }

    /// Run and time one campaign, then verify it against the reference.
    fn timed(&self, state: &CampaignState, threads: usize, expect: &Expect) -> (CampaignRun, Pass) {
        let start = Instant::now();
        let run = self.run(state, threads);
        let seconds = start.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        if !run.complete {
            failures.push(format!("{threads}-thread campaign did not complete"));
        }
        expect.check("state", &run.state.export(), &mut failures);
        let pass = Pass {
            captures: run.state.pairs_done,
            seconds,
            failures,
        };
        (run, pass)
    }
}

pub struct CampaignState {
    study: Study,
    list: Vec<String>,
    seed: SeedTree,
    build_s: f64,
    export_bytes: u64,
    pairs: u64,
}

impl Workload for ToplistCampaign {
    type State = CampaignState;

    fn name(&self) -> &'static str {
        "toplist_campaign"
    }

    fn setup(&self, expect: &mut Expect) -> Result<(CampaignState, SetupReport), String> {
        let study = Study::new(self.config.clone());
        let start = Instant::now();
        let list = build_toplist(
            study.world(),
            self.config.toplist_size,
            study.seed().child("toplist"),
        );
        let build_s = start.elapsed().as_secs_f64();
        // table1::run_at's campaign seed.
        let seed = study.seed().child("campaign").child_idx(self.day.0 as u64);
        let mut state = CampaignState {
            study,
            list,
            seed,
            build_s,
            export_bytes: 0,
            pairs: 0,
        };
        // The sequential reference, run against cold caches.
        let start = Instant::now();
        let reference = self.run(&state, 1);
        let cold_pass_s = start.elapsed().as_secs_f64();
        if !reference.complete {
            return Err("sequential reference campaign did not complete".into());
        }
        let export = reference.state.export();
        state.export_bytes = export.len() as u64;
        state.pairs = reference.state.pairs_done;
        drop(reference);
        expect.adopt("state", digest(&export));
        let mut failures = Vec::new();
        expect.check("state", &export, &mut failures);
        // Untimed warm-up at the timed thread count.
        failures.extend(self.timed(&state, THREADS, expect).1.failures);
        Ok((
            state,
            SetupReport {
                cold_pass_s,
                failures,
            },
        ))
    }

    fn pass(&self, state: &mut CampaignState, expect: &Expect) -> Pass {
        self.timed(state, THREADS, expect).1
    }

    /// The campaign persists nothing; this is its state in the
    /// checkpoint export format, the bytes a checkpoint would hold.
    fn disk_bytes_per_capture(&self, state: &CampaignState) -> f64 {
        ratio(state.export_bytes as f64, state.pairs as f64)
    }

    fn trace(
        &self,
        state: &mut CampaignState,
        expect: &Expect,
        setup: &SetupReport,
        warm_s: &[f64],
        failures: &mut Vec<String>,
    ) -> Vec<Metric> {
        let world = state.study.world();
        // Untraced sequential and parallel walls, interleaved.
        let (mut wall_1t, mut wall_2t) = (Vec::new(), Vec::new());
        let mut sequential = None;
        for _ in 0..TRACE_ROUNDS {
            let (run, pass) = self.timed(state, 1, expect);
            failures.extend(pass.failures);
            wall_1t.push(pass.seconds);
            sequential = Some(run);
            let (_, pass) = self.timed(state, THREADS, expect);
            failures.extend(pass.failures);
            wall_2t.push(pass.seconds);
        }
        let run = sequential.expect("at least one round");
        let wall_1t = median(&wall_1t).unwrap_or(f64::NAN);
        let wall_2t = median(&wall_2t).unwrap_or(f64::NAN);

        // Resolve, counted and timed from outside, with the executor's
        // prober seed and attempt days.
        let prober = CountingProber::new(WorldProber::new(world, state.seed.child("prober")));
        let attempt_days = [self.day - 7, self.day - 4, self.day - 1];
        let start = Instant::now();
        let seeds = resolve_all(state.list.iter().cloned(), &prober, &attempt_days);
        let resolve_s = start.elapsed().as_secs_f64();
        if seeds != run.result.seeds {
            failures.push("resolve_all seeds differ from the campaign's".into());
        }

        // Replay every recorded attempt of every pair through the same
        // engine the executor builds: capture, the provenance fault
        // decision, and detection on the final capture.
        let engine = FaultyEngine::from_world(world, self.campaign.fault_profile, state.seed);
        let schedule = self.campaign.retry.schedule(self.day);
        let detector = Detector::hostname_only();
        let (mut capture, mut decide, mut detect) = (
            LayerClock::default(),
            LayerClock::default(),
            LayerClock::default(),
        );
        let (mut attempts, mut usable, mut injected, mut hits, mut diverged) = (0u64, 0, 0, 0, 0);
        for (vantage, column) in &run.result.columns {
            let opts = CaptureOptions {
                collect_dom: vantage.location == Location::EuUniversity,
            };
            for (s, recorded) in seeds.iter().zip(column) {
                let (host, _) = split_url(&s.url);
                let mut last = None;
                for (day, attempt) in schedule.iter().zip(1..=recorded.attempts) {
                    let c = capture
                        .time(|| engine.capture_attempt(&s.url, *day, *vantage, opts, attempt));
                    usable += u64::from(c.usable());
                    let fault =
                        decide.time(|| engine.plan().decide(&host, *day, *vantage, attempt));
                    injected += u64::from(fault.is_some());
                    attempts += 1;
                    last = Some(c);
                }
                let last = last.expect("every pair has an attempt");
                diverged += u64::from(last != recorded.capture);
                let found = detect.time(|| detector.detect(&last));
                hits += u64::from(!found.is_empty());
            }
        }
        if diverged > 0 {
            failures.push(format!(
                "{diverged} replayed captures differ from the campaign's"
            ));
        }
        let pairs = run.state.pairs_done;
        let dead_letters = run.state.dead_letters.len();
        drop(run);

        // One sequential campaign with telemetry on: the traced pass,
        // and the registry's own fault count to cross-check the replay.
        consent_telemetry::reset();
        consent_telemetry::enable();
        let start = Instant::now();
        let traced = self.run(state, 1);
        let traced_s = start.elapsed().as_secs_f64();
        consent_telemetry::disable();
        let snapshot = consent_telemetry::global().snapshot();
        consent_telemetry::reset();
        let counted: u64 = snapshot
            .counters_with_prefix("faultsim.injected")
            .map(|(_, n)| n)
            .sum();
        if counted != injected {
            failures.push(format!(
                "registry counted {counted} injected faults, replay decided {injected}"
            ));
        }
        expect.check("state", &traced.state.export(), failures);
        drop(traced);

        let cached = world.cached_sites();
        // The feed-only layers, so they are measured on this gated
        // workload too: one traced feed study on the same world.
        let feed_layers = crate::feed::feed_only_layers(&state.study, failures);

        let measured = [resolve_s, capture.secs(), decide.secs(), detect.secs()];
        let residual_us = apply_residual_us_per_pair(wall_1t, &measured, pairs);
        vec![
            Metric::new("webgraph.profiles_cached", cached as f64, "count"),
            Metric::new("webgraph.fill_s", setup.cold_pass_s - wall_1t, "s"),
            Metric::new("toplist.build_s", state.build_s, "s"),
            Metric::new("toplist.resolve_s", resolve_s, "s"),
            Metric::new("toplist.probes", prober.probes() as f64, "count"),
            Metric::new("toplist.resolve_share", ratio(resolve_s, wall_1t), "ratio"),
            Metric::new("httpsim.captures", capture.calls as f64, "count"),
            Metric::new("httpsim.capture_s", capture.secs(), "s"),
            Metric::new("httpsim.capture_us_p50", capture.percentile_us(0.5), "us"),
            Metric::new("httpsim.capture_us_p99", capture.percentile_us(0.99), "us"),
            Metric::new(
                "httpsim.usable_ratio",
                ratio(usable as f64, capture.calls as f64),
                "ratio",
            ),
            Metric::new("faultsim.injected", injected as f64, "count"),
            Metric::new("faultsim.decide_s", decide.secs(), "s"),
            Metric::new(
                "campaign.attempts_per_pair",
                ratio(attempts as f64, pairs as f64),
                "attempts",
            ),
            Metric::new(
                "campaign.dead_letter_ratio",
                ratio(dead_letters as f64, pairs as f64),
                "ratio",
            ),
            Metric::new("fingerprint.detect_s", detect.secs(), "s"),
            Metric::new("fingerprint.detect_us_p50", detect.percentile_us(0.5), "us"),
            Metric::new(
                "fingerprint.hit_ratio",
                ratio(hits as f64, detect.calls as f64),
                "ratio",
            ),
            Metric::new("campaign.wall_1t_s", wall_1t, "s"),
            Metric::new("campaign.wall_2t_s", wall_2t, "s"),
            Metric::new("parallel.speedup", ratio(wall_1t, wall_2t), "ratio"),
            Metric::new(
                "parallel.serial_share",
                ratio(resolve_s + residual_us * pairs as f64 / 1e6, wall_1t),
                "ratio",
            ),
            Metric::new("campaign.apply_residual_us_per_pair", residual_us, "us"),
            Metric::new("trace.pass_s", traced_s, "s"),
            Metric::new(
                "trace.overhead_share",
                ratio(traced_s - wall_1t, wall_1t),
                "ratio",
            ),
            Metric::new(
                "trace.unattributed_share",
                unattributed_share(traced_s, &measured),
                "ratio",
            ),
            Metric::new("trace.passes", (2 * TRACE_ROUNDS + 1) as f64, "count"),
            Metric::new("trace.untraced_passes", warm_s.len() as f64, "count"),
        ]
        .into_iter()
        .chain(feed_layers)
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_webgraph::{AdoptionConfig, World, WorldConfig};

    #[test]
    fn counting_prober_resolves_the_same_seeds() {
        let world = World::new(WorldConfig {
            n_sites: 2_000,
            seed: 7,
            adoption: AdoptionConfig::default(),
        });
        let list = build_toplist(&world, 50, SeedTree::new(1));
        let day = known::may_2020_snapshot();
        let days = [day - 7, day - 4, day - 1];
        let plain = resolve_all(
            list.iter().cloned(),
            &WorldProber::new(&world, SeedTree::new(2)),
            &days,
        );
        let counting = CountingProber::new(WorldProber::new(&world, SeedTree::new(2)));
        assert_eq!(resolve_all(list.iter().cloned(), &counting, &days), plain);
        // At least one TLS probe per domain per round.
        assert!(
            counting.probes() >= 3 * list.len() as u64,
            "{}",
            counting.probes()
        );
    }
}
