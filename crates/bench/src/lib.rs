//! # consent-bench
//!
//! The harness behind CI's `BENCH_*.json` regression gates
//! (`cargo run -p consent-bench --release`, `src/main.rs`; see
//! `BENCHMARKS.md`), plus the criterion paper-table micro-benches under
//! `benches/`. The end-to-end, paper-scale numbers live in
//! `perfbench/`.
//!
//! Every sweep is a short function over three pieces:
//!
//! * a [`Workload`]: world size, toplist length, vantages, days, seed,
//!   repeats and thread counts. `Workload::build` makes its world and
//!   toplist once, and the resulting `Fixture` crawls them.
//! * a `Meter`, the only code in the crate that touches the
//!   process-global telemetry registry. It holds one process-wide lock
//!   for the whole sweep, so a concurrent sweep waits instead of
//!   resetting the registry under a running measurement, and
//!   `Meter::measure` resets, enables, times, disables and reads the
//!   registry around one configuration.
//! * a [`Sweep`], the one document writer: `bench`, `schema`, the
//!   workload description and one object per [`Row`]. A [`BenchRecord`]
//!   carries the columns every document shares (throughput, plus p50/p95
//!   latency from a telemetry histogram); the soak sweep's
//!   [`SoakRecord`] extends them with its health columns.
//!
//! Every sweep is a correctness check too: it asserts that the bytes it
//! measures (state exports, bundle manifests, replays, recovered
//! checkpoints) are identical across its configurations before it
//! records a number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod soak;

pub use diff::{
    diff_documents, BenchDiff, DiffRow, DEFAULT_THRESHOLD_P95_PCT, DEFAULT_THRESHOLD_PCT,
};
pub use soak::{soak, SoakRecord, SOAK_CHECKPOINT_EVERY};

use consent_analysis::standard_exports;
use consent_checkpoint::CheckpointStore;
use consent_crawler::{
    apply_delta, build_toplist, delta_state_sections, export_db, import_db, pack_campaign_bundle,
    recover_state, replay_campaign_bundle, resume_campaign_parallel, state_sections,
    ArchiveContext, CampaignArtifacts, CampaignConfig, CampaignRun, CampaignState, DeltaMarks,
    ExportFn, ParallelOpts, SECTION_DB_DELTA,
};
use consent_faultsim::FaultProfile;
use consent_httpsim::Vantage;
use consent_telemetry::{HistSummary, Registry, Snapshot};
use consent_util::{Day, Json, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Version written into the `schema` field of every `BENCH_*.json`.
pub const BENCH_SCHEMA_VERSION: i64 = 1;

/// Worker threads of the obs and watch sweeps' workload, the same for
/// every row so only the observer varies.
pub const OVERHEAD_THREADS: usize = 4;

/// Sampling interval of the `obs/sampler=wall` row: aggressive on
/// purpose, production would sample far less often.
pub const WALL_INTERVAL: Duration = Duration::from_millis(25);

/// What a sweep crawls: one synthetic world and toplist, crawled on
/// each of [`days`](Self::days) from one seed.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Synthetic world size.
    pub sites: u32,
    /// Toplist entries to crawl.
    pub domains: usize,
    /// Vantage columns (each multiplies the pair count).
    pub vantages: Vec<Vantage>,
    /// Campaign days; only the bundle sweep crawls more than the first.
    pub days: Vec<Day>,
    /// Root seed for world, toplist, campaign and fault plans.
    pub seed: u64,
    /// Timed repetitions per configuration (at least one runs).
    pub repeats: usize,
    /// Worker-thread counts. The campaign sweep records one row per
    /// entry and the bundle sweep checks manifest identity across them;
    /// the other sweeps crawl at the first.
    pub threads: Vec<usize>,
}

impl Default for Workload {
    /// The campaign sweep's CI-sized workload: 4 000 sites, 600 domains
    /// × 2 vantages (1 200 pairs), threads 1/2/4/8, 5 repeats. The pair
    /// count is deliberately large enough that per-pair work dominates
    /// the worker-pool spawn/merge fixed cost — smaller sweeps measure
    /// thread overhead, not the executor.
    fn default() -> Workload {
        Workload {
            sites: 4_000,
            domains: 600,
            vantages: vec![Vantage::eu_cloud(), Vantage::us_cloud()],
            days: vec![Day::from_ymd(2020, 5, 15)],
            seed: 42,
            repeats: 5,
            threads: vec![1, 2, 4, 8],
        }
    }
}

impl Workload {
    /// The checkpoint sweep's workload: a 200-domain × 2-vantage state
    /// (400 captures, large enough that serialization and CRC work
    /// dominate the per-call fixed cost), 20 iterations per operation.
    pub fn checkpoint() -> Workload {
        Workload {
            sites: 2_000,
            domains: 200,
            repeats: 20,
            threads: vec![1],
            ..Workload::default()
        }
    }

    /// The bundle sweep's workload: 48 domains × 2 vantages × 2 days
    /// over an 800-site world — wide enough that the jitter-free capture
    /// classes appear and dedup materializes — built at 1/2/4 threads
    /// for the identity precheck.
    pub fn bundle() -> Workload {
        Workload {
            sites: 800,
            domains: 48,
            vantages: vec![Vantage::us_cloud(), Vantage::eu_cloud()],
            days: vec![Day::from_ymd(2020, 5, 15), Day::from_ymd(2020, 5, 16)],
            threads: vec![1, 2, 4],
            ..Workload::default()
        }
    }

    /// The soak sweep's workload: 120 domains × 2 vantages (240 pairs,
    /// about 12 checkpoint writes per campaign), 4 threads, 3 campaigns
    /// per fault rate.
    pub fn soak() -> Workload {
        Workload {
            sites: 2_000,
            domains: 120,
            repeats: 3,
            threads: vec![4],
            ..Workload::default()
        }
    }

    /// `(domain, vantage, day)` pairs one crawl of every day covers.
    pub fn pairs(&self) -> u64 {
        (self.domains * self.vantages.len() * self.days.len()) as u64
    }

    /// Timed repetitions per configuration, at least one.
    pub fn reps(&self) -> u64 {
        self.repeats.max(1) as u64
    }

    /// The thread count of sweeps that crawl at one.
    fn first_threads(&self) -> usize {
        self.threads.first().copied().unwrap_or(1)
    }

    /// Build the world and toplist (and nothing else: no crawl yet).
    fn build(&self) -> Fixture<'_> {
        let world = World::new(WorldConfig {
            n_sites: self.sites,
            seed: self.seed,
            adoption: AdoptionConfig::default(),
        });
        let root = SeedTree::new(self.seed);
        let list = build_toplist(&world, self.domains, root.child("toplist"));
        Fixture {
            workload: self,
            world,
            list,
            seed: root.child("campaign"),
            config: CampaignConfig {
                fault_profile: FaultProfile::none(),
                ..CampaignConfig::default()
            },
        }
    }

    /// The `workload` object of a document: size, vantages, pairs,
    /// repeats and seed, followed by the sweep's `extra` keys.
    fn describe<'a>(&self, extra: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let vantages = self.vantages.iter().map(|v| Json::str(v.label()));
        object(
            [
                ("n_sites", Json::int(i64::from(self.sites))),
                ("domains", Json::int(self.domains as i64)),
                ("vantages", Json::array(vantages)),
                ("pairs", Json::int(self.pairs() as i64)),
                ("repeats", Json::int(self.reps() as i64)),
                ("seed", Json::int(self.seed as i64)),
            ]
            .into_iter()
            .chain(extra),
        )
    }
}

/// A [`Workload`]'s world and toplist, built once and crawled many
/// times.
struct Fixture<'w> {
    workload: &'w Workload,
    world: World,
    list: Vec<String>,
    seed: SeedTree,
    /// Campaign behavior; the fault profile is `none` unless the sweep
    /// sets one.
    config: CampaignConfig,
}

impl Fixture<'_> {
    /// Pairs one crawl of every day processes.
    fn pairs(&self) -> u64 {
        (self.list.len() * self.workload.vantages.len() * self.workload.days.len()) as u64
    }

    /// Continue `state` on `day` at `threads` for at most `max` more
    /// pairs (`None`: to completion).
    fn resume(
        &self,
        day: Day,
        threads: usize,
        state: CampaignState,
        max: Option<u64>,
    ) -> CampaignRun {
        let opts = ParallelOpts {
            threads,
            config: self.config,
            max_pairs: max,
        };
        resume_campaign_parallel(
            &self.world,
            &self.list,
            day,
            &self.workload.vantages,
            self.seed,
            &opts,
            state,
        )
    }

    /// Crawl every day from scratch at `threads`, asserting each
    /// campaign completes.
    fn crawl(&self, threads: usize) -> Vec<CampaignRun> {
        let runs: Vec<_> = self
            .workload
            .days
            .iter()
            .map(|&day| self.resume(day, threads, CampaignState::new(), None))
            .collect();
        assert!(
            runs.iter().all(|r| r.complete),
            "bench campaign did not complete"
        );
        runs
    }

    /// The state after crawling the last day at `threads`.
    fn state(&self, threads: usize) -> CampaignState {
        self.crawl(threads)
            .pop()
            .expect("a workload has a day")
            .state
    }

    /// Sequentially advance `state` on the first day until `upto` pairs
    /// are done.
    fn advance(&self, state: CampaignState, upto: u64) -> CampaignState {
        let more = upto.saturating_sub(state.pairs_done);
        self.resume(self.workload.days[0], 1, state, Some(more))
            .state
    }

    /// Time the workload's repeats of a campaign at `threads`, asserting
    /// each exports `baseline`; `window` runs after each with the pairs
    /// done so far (inside the timing, like an observer's cadence would).
    fn timed_campaigns(
        &self,
        p: &mut Probe,
        threads: usize,
        baseline: &str,
        what: &str,
        mut window: impl FnMut(u64),
    ) {
        p.time(|| {
            for rep in 1..=self.workload.reps() {
                assert!(
                    self.state(threads).export() == baseline,
                    "state export diverged {what} — refusing to record"
                );
                window(rep * self.pairs());
            }
        })
    }
}

/// Exclusive use of the process-global telemetry registry for one
/// sweep.
///
/// Campaigns record into `consent_telemetry::global()` whenever it is
/// enabled, so two sweeps sharing it would reset and disable it under
/// each other. A `Meter` holds one process-wide lock for as long as it
/// lives: a second sweep in the process waits for the first to finish.
struct Meter {
    _lock: MutexGuard<'static, ()>,
}

impl Meter {
    /// Wait until no other sweep holds the registry, then take it.
    fn acquire() -> Meter {
        static LOCK: Mutex<()> = Mutex::new(());
        // A sweep whose correctness gate panicked poisons the lock; the
        // next measurement resets the registry, so carry on.
        let lock = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        Meter { _lock: lock }
    }

    /// Measure one configuration: reset and enable the registry, run
    /// `body`, then disable the registry and read what it recorded.
    /// `body` times its work with [`Probe::time`] (setup outside it is
    /// not counted) and may attach observers to [`Probe::registry`].
    fn measure(&self, body: impl FnOnce(&mut Probe)) -> Reading {
        consent_telemetry::reset();
        consent_telemetry::enable();
        let mut probe = Probe {
            registry: consent_telemetry::global(),
            elapsed: Duration::ZERO,
        };
        body(&mut probe);
        consent_telemetry::disable();
        Reading {
            elapsed_secs: probe.elapsed.as_secs_f64().max(1e-9),
            snapshot: probe.registry.snapshot(),
        }
    }
}

/// What a [`Meter::measure`] body works with.
struct Probe {
    /// The registry being recorded into.
    registry: &'static Registry,
    elapsed: Duration,
}

impl Probe {
    /// Run `f`, adding its wall time to the measurement.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.elapsed += start.elapsed();
        out
    }
}

/// What one [`Meter::measure`] call recorded.
struct Reading {
    /// Wall time spent inside [`Probe::time`], in seconds (never zero).
    elapsed_secs: f64,
    /// Every metric in the registry at the end of the measurement.
    snapshot: Snapshot,
}

impl Reading {
    /// Summary of histogram `name` (all zero if nothing was recorded).
    fn histogram(&self, name: &str) -> HistSummary {
        self.snapshot
            .histograms
            .get(name)
            .copied()
            .unwrap_or_default()
    }
}

/// The columns every `BENCH_*.json` record has — the ones `diff` reads.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Record name, e.g. `campaign/threads=4`.
    pub name: String,
    /// Worker threads used, the calling thread included (1 = no helper
    /// threads).
    pub threads: usize,
    /// Pairs processed (or covered by the timed operations).
    pub pairs: u64,
    /// Wall-clock duration of the timed work in seconds.
    pub elapsed_secs: f64,
    /// Throughput: `pairs / elapsed_secs`.
    pub pairs_per_sec: f64,
    /// Median latency in microseconds, from the record's histogram.
    pub p50_us: u64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: u64,
}

impl BenchRecord {
    /// `pairs` over `reading`'s elapsed time, with the latency
    /// quantiles of its `histogram`.
    fn measured(
        name: impl Into<String>,
        threads: usize,
        pairs: u64,
        reading: &Reading,
        histogram: &str,
    ) -> BenchRecord {
        let h = reading.histogram(histogram);
        BenchRecord {
            name: name.into(),
            threads,
            pairs,
            elapsed_secs: reading.elapsed_secs,
            pairs_per_sec: pairs as f64 / reading.elapsed_secs,
            p50_us: h.p50,
            p95_us: h.p95,
        }
    }
}

/// One object of a document's `records` array.
pub trait Row {
    /// The shared columns.
    fn record(&self) -> &BenchRecord;

    /// Columns a sweep adds to the shared ones.
    fn extra_columns(&self) -> Vec<(&'static str, Json)> {
        Vec::new()
    }
}

impl Row for BenchRecord {
    fn record(&self) -> &BenchRecord {
        self
    }
}

/// A finished sweep: everything its `BENCH_*.json` document holds.
#[derive(Clone, Debug)]
pub struct Sweep<R = BenchRecord> {
    /// The document's `bench` name, e.g. `campaign_throughput`.
    pub bench: &'static str,
    /// The `workload` object: the workload's size, vantages, pairs,
    /// repeats and seed, plus the sweep's own keys.
    pub workload: Json,
    /// One row per measured configuration.
    pub records: Vec<R>,
}

impl<R: Row> Sweep<R> {
    /// The document: `bench`, `schema` ([`BENCH_SCHEMA_VERSION`]),
    /// `workload` and `records`.
    pub fn document(&self) -> Json {
        let records = self.records.iter().map(|row| {
            let r = row.record();
            let shared = [
                ("name", Json::str(r.name.clone())),
                ("threads", Json::int(r.threads as i64)),
                ("pairs", Json::int(r.pairs as i64)),
                ("elapsed_secs", Json::Number(r.elapsed_secs)),
                ("pairs_per_sec", Json::Number(r.pairs_per_sec)),
                ("p50_us", Json::int(r.p50_us as i64)),
                ("p95_us", Json::int(r.p95_us as i64)),
            ];
            object(shared.into_iter().chain(row.extra_columns()))
        });
        object([
            ("bench", Json::str(self.bench)),
            ("schema", Json::int(BENCH_SCHEMA_VERSION)),
            ("workload", self.workload.clone()),
            ("records", Json::array(records)),
        ])
    }
}

/// Overhead in percent of every record relative to the `…=off` one:
/// `(off - on) / off * 100` pairs/sec.
pub fn overhead_pct(records: &[BenchRecord]) -> Vec<(String, f64)> {
    let is_off = |r: &&BenchRecord| r.name.ends_with("=off");
    let Some(off) = records.iter().find(is_off).map(|r| r.pairs_per_sec) else {
        return Vec::new();
    };
    records
        .iter()
        .filter(|r| !is_off(r))
        .map(|r| {
            (
                r.name.clone(),
                (off - r.pairs_per_sec) / off.max(1e-12) * 100.0,
            )
        })
        .collect()
}

/// `BENCH_campaign.json`: the campaign executor at every thread count of
/// the workload, under `profile` (recorded as `chaos`). Panics if any
/// thread count exports different `CampaignState` bytes than the first.
pub fn campaign(w: &Workload, profile: FaultProfile, chaos: &str) -> Sweep {
    let meter = Meter::acquire();
    let mut fixture = w.build();
    fixture.config.fault_profile = profile;
    // One untimed warm-up so the first timed configuration does not
    // additionally pay for allocator growth and cold caches.
    let baseline = fixture.state(w.first_threads()).export();
    let records = w
        .threads
        .iter()
        .map(|&threads| {
            let what = format!("at {threads} threads");
            let reading =
                meter.measure(|p| fixture.timed_campaigns(p, threads, &baseline, &what, |_| {}));
            let name = format!("campaign/threads={threads}");
            let pairs = fixture.pairs() * w.reps();
            BenchRecord::measured(name, threads, pairs, &reading, "campaign.pair")
        })
        .collect();
    let workload = w.describe([("chaos", Json::str(chaos))]);
    Sweep {
        bench: "campaign_throughput",
        workload,
        records,
    }
}

/// `BENCH_checkpoint.json`: the store's write / open / salvage
/// operations, then delta-vs-full cut cost at 10/50/90% progress, over
/// one crawled state.
pub fn checkpoint(w: &Workload) -> Sweep {
    let meter = Meter::acquire();
    let fixture = w.build();
    let mut records = checkpoint_ops(&fixture, &meter);
    records.extend(checkpoint_progress(&fixture, &meter));
    Sweep {
        bench: "checkpoint_durability",
        workload: w.describe([]),
        records,
    }
}

/// Write / open / salvage throughput of the crash-safe
/// [`CheckpointStore`] over the fixture's crawled state:
///
/// * `checkpoint_write` — [`CheckpointStore::save`] of the five-section
///   snapshot (serialize + CRC + fsync + rename + prune);
/// * `checkpoint_open` — [`recover_state`] of an intact store;
/// * `checkpoint_salvage` — [`recover_state`] of a store whose newest
///   generation has a flipped byte in its `meta` section: quarantine,
///   per-section salvage and meta rebuild. Writing and corrupting the
///   doomed generation is not timed.
///
/// Panics if an opened or salvaged state does not export the saved
/// bytes.
fn checkpoint_ops(fixture: &Fixture<'_>, meter: &Meter) -> Vec<BenchRecord> {
    let state = fixture.state(fixture.workload.first_threads());
    let baseline = state.export();
    let sections = state_sections(&state, "");
    let reps = fixture.workload.reps();
    let dir = Scratch::new();
    let store = CheckpointStore::open(&dir.0).expect("open checkpoint store");
    let check = |back: CampaignState, what: &str| {
        assert!(
            back.export() == baseline,
            "{what} state diverged from the saved one — refusing to record"
        );
    };

    let write = meter.measure(|p| {
        p.time(|| {
            for _ in 0..reps {
                store.save(&sections).expect("checkpoint save");
            }
        })
    });
    let open = meter.measure(|p| {
        p.time(|| {
            for _ in 0..reps {
                let (back, _, report) = recover_state(&store).expect("recover intact store");
                assert!(report.is_clean(), "intact store produced salvage actions");
                check(back, "recovered");
            }
        })
    });
    let salvage = meter.measure(|p| {
        for _ in 0..reps {
            let g = store.save(&sections).expect("checkpoint save");
            corrupt_meta_byte(&store.path_for(g));
            let (back, _, report) = p
                .time(|| recover_state(&store))
                .expect("salvage corrupt store");
            assert!(!report.is_clean(), "corrupt generation went unnoticed");
            check(back, "salvaged");
        }
    });
    let pairs = state.pairs_done * reps;
    vec![
        BenchRecord::measured("checkpoint_write", 1, pairs, &write, "checkpoint.write"),
        BenchRecord::measured("checkpoint_open", 1, pairs, &open, "checkpoint.open"),
        BenchRecord::measured("checkpoint_salvage", 1, pairs, &salvage, "checkpoint.open"),
    ]
}

/// Delta-vs-full cut cost as the campaign grows. At 10/50/90% of the
/// fixture's pairs two checkpoint writes are timed:
///
/// * `checkpoint_full/progress=P` — a full five-section snapshot of the
///   whole state; its cost grows with the campaign;
/// * `checkpoint_delta/progress=P` — the delta sections covering only
///   the last checkpoint interval (10% of the pairs), the exact payload
///   the durable driver writes under `CheckpointMode::Delta`; its cost
///   tracks the interval, not the campaign.
///
/// The acceptance bar (BENCHMARKS.md): the delta record at 90% stays
/// within 2× of the one at 10%. Panics unless each progress point's
/// delta, applied onto the prior snapshot, reproduces the grown store.
fn checkpoint_progress(fixture: &Fixture<'_>, meter: &Meter) -> Vec<BenchRecord> {
    let total = fixture.pairs();
    let interval = (total / 10).max(1);
    let reps = fixture.workload.reps();
    let mut records = Vec::with_capacity(6);
    let mut state = CampaignState::new();
    for pct in [10u64, 50, 90] {
        let upto = (total * pct / 100).max(interval);
        // Advance to the previous cut, mark, then cover one interval.
        state = fixture.advance(state, upto - interval);
        let prior_db = export_db(&state.db);
        let marks = DeltaMarks::capture(&state);
        state = fixture.advance(state, upto);

        let dir = Scratch::new();
        let store = CheckpointStore::open(&dir.0).expect("open checkpoint store");
        let full = meter.measure(|p| {
            p.time(|| {
                for _ in 0..reps {
                    store
                        .save(&state_sections(&state, ""))
                        .expect("full checkpoint save");
                }
            })
        });
        let delta = meter.measure(|p| {
            p.time(|| {
                for _ in 0..reps {
                    let sections = delta_state_sections(&state, &marks, 1, 1, "");
                    store
                        .save_with_min_retained(&sections, 1)
                        .expect("delta checkpoint save");
                }
            })
        });
        let name = |kind: &str| format!("checkpoint_{kind}/progress={pct}");
        records.push(BenchRecord::measured(
            name("full"),
            1,
            upto * reps,
            &full,
            "checkpoint.write",
        ));
        records.push(BenchRecord::measured(
            name("delta"),
            1,
            interval * reps,
            &delta,
            "checkpoint.write",
        ));

        // Correctness: the delta applied onto the prior snapshot must
        // reproduce the grown store exactly.
        let delta_body = delta_state_sections(&state, &marks, 1, 1, "")
            .into_iter()
            .find(|s| s.name == SECTION_DB_DELTA)
            .expect("delta sections carry a capture-db delta")
            .body;
        let mut check = import_db(&prior_db).expect("prior snapshot imports");
        apply_delta(&mut check, &delta_body).expect("delta applies");
        assert!(
            export_db(&check) == export_db(&state.db),
            "base+delta diverged from the grown store at progress={pct} — refusing to record"
        );
    }
    records
}

/// `BENCH_obs.json`: the campaign with the flight recorder off, in
/// deterministic logical-tick mode, and on its wall-clock thread
/// (`obs/sampler=off|logical|wall`). The acceptance bar
/// (BENCHMARKS.md): sampler on vs off within 2% pairs/sec. Panics if a
/// mode changes the state export or a sampler records nothing.
pub fn obs(w: &Workload) -> Sweep {
    use consent_obs::{ObsConfig, SampleMode, Sampler};

    let meter = Meter::acquire();
    let fixture = w.build();
    let threads = w.first_threads();
    let baseline = fixture.state(threads).export();
    let records = ["off", "logical", "wall"]
        .into_iter()
        .map(|mode| {
            let reading = meter.measure(|p| {
                let config = match mode {
                    "logical" => ObsConfig::deterministic(),
                    _ => ObsConfig {
                        mode: SampleMode::WallClock {
                            interval: WALL_INTERVAL,
                        },
                        ..ObsConfig::default()
                    },
                };
                let sampler = (mode != "off").then(|| Sampler::attach(p.registry, config));
                let handle = sampler.as_ref().map(Sampler::start);
                // Logical mode samples at chunk boundaries in the durable
                // driver; here one repeat is the chunk.
                let what = format!("with sampler={mode}");
                fixture.timed_campaigns(p, threads, &baseline, &what, |done| {
                    sampler.iter().for_each(|s| s.tick_at(done))
                });
                if let Some(h) = handle {
                    h.stop();
                }
                if let Some(s) = &sampler {
                    assert!(!s.is_empty(), "sampler={mode} recorded no samples");
                }
            });
            let name = format!("obs/sampler={mode}");
            let pairs = fixture.pairs() * w.reps();
            BenchRecord::measured(name, threads, pairs, &reading, "campaign.pair")
        })
        .collect();
    let interval = Json::int(WALL_INTERVAL.as_millis() as i64);
    let workload = w.describe([
        ("threads", Json::int(threads as i64)),
        ("wall_interval_ms", interval),
    ]);
    Sweep {
        bench: "obs_overhead",
        workload,
        records,
    }
}

/// `BENCH_watch.json`: the campaign with the watchdog rule engine
/// detached and attached with the default rules
/// (`watch/detectors=off|on`). The acceptance bar (BENCHMARKS.md):
/// detectors on vs off within 5% pairs/sec. Panics if the watchdog
/// changes the state export.
pub fn watch(w: &Workload) -> Sweep {
    use consent_watch::{rules::WatchConfig, Watch};

    let meter = Meter::acquire();
    let fixture = w.build();
    let threads = w.first_threads();
    let baseline = fixture.state(threads).export();
    let records = ["off", "on"]
        .into_iter()
        .map(|mode| {
            let reading = meter.measure(|p| {
                let watch =
                    (mode == "on").then(|| Watch::attach(p.registry, WatchConfig::default_rules()));
                // The durable driver stages a window per checkpoint cut;
                // here one repeat is the window, always committed.
                let what = format!("with watch={mode}");
                fixture.timed_campaigns(p, threads, &baseline, &what, |done| {
                    if let Some(w) = &watch {
                        w.stage(done);
                        w.commit();
                    }
                });
            });
            let name = format!("watch/detectors={mode}");
            let pairs = fixture.pairs() * w.reps();
            BenchRecord::measured(name, threads, pairs, &reading, "campaign.pair")
        })
        .collect();
    let workload = w.describe([("threads", Json::int(threads as i64))]);
    Sweep {
        bench: "watch_overhead",
        workload,
        records,
    }
}

/// `BENCH_bundle.json`: pack / verify / replay throughput of the
/// content-addressed campaign bundle over every day of the workload.
///
/// * `bundle_pack` — [`pack_campaign_bundle`] (checkpoint sections,
///   split capture artifacts, analysis exports) into a fresh directory,
///   including the post-pack fsck;
/// * `bundle_verify` — [`consent_bundle::verify`] of the packed store;
/// * `bundle_replay` — [`replay_campaign_bundle`] with the
///   [`standard_exports`] provider, byte-comparing every document.
///
/// Before any number is recorded it packs the campaign crawled at every
/// thread count and asserts the manifests are byte-identical and the
/// dedup ratio exceeds 1.0; the ratio and byte counts are recorded under
/// `workload.dedup`. `keep_dir` keeps the verified bundle there instead
/// of in a deleted scratch directory.
pub fn bundle(w: &Workload, keep_dir: Option<&Path>) -> Sweep {
    let meter = Meter::acquire();
    let fixture = w.build();
    let provider: &ExportFn = &standard_exports;
    let last_day = *w.days.last().expect("a workload has a day");
    let ctx = ArchiveContext::from_campaign(last_day, &fixture.list, &w.vantages, &fixture.seed);
    let pack_to = |dir: &Path, runs: &[CampaignRun]| {
        let artifacts = CampaignArtifacts {
            results: runs.iter().map(|r| &r.result).collect(),
            ..CampaignArtifacts::default()
        };
        let state = &runs[runs.len() - 1].state;
        pack_campaign_bundle(dir, state, &ctx, &artifacts, Some(provider)).expect("bundle pack")
    };

    // Identity precheck: every thread count's campaign packs to the
    // exact same manifest (addresses, order, stats — everything).
    let mut first = None;
    let mut runs = Vec::new();
    for &threads in &w.threads {
        runs = fixture.crawl(threads);
        let (report, fsck) = pack_to(&Scratch::new().0, &runs);
        assert!(fsck.clean(), "fresh pack failed fsck: {}", fsck.render());
        assert!(
            report.dedup_ratio() > 1.0,
            "bundle workload produced no dedup — refusing to record: {}",
            report.summary()
        );
        let manifest = report.manifest.serialize();
        match &first {
            None => first = Some((manifest, report.manifest.stats)),
            Some((m, _)) => assert!(
                *m == manifest,
                "bundle manifest diverged at {threads} threads — refusing to record"
            ),
        }
    }
    let (_, stats) = first.expect("the bundle sweep needs a thread count");

    let reps = w.reps();
    let pack = meter.measure(|p| {
        p.time(|| {
            for _ in 0..reps {
                pack_to(&Scratch::new().0, &runs);
            }
        })
    });
    let scratch = Scratch::new();
    let dir = keep_dir.unwrap_or(&scratch.0);
    let (_, fsck) = pack_to(dir, &runs);
    assert!(fsck.clean(), "{}", fsck.render());
    let store = consent_bundle::open_chaos_bundle(dir).expect("open bundle");
    let verify = meter.measure(|p| {
        p.time(|| {
            for _ in 0..reps {
                let report = consent_bundle::verify(&store).expect("bundle verify");
                assert!(
                    report.clean(),
                    "packed bundle failed fsck: {}",
                    report.render()
                );
            }
        })
    });
    let replay = meter.measure(|p| {
        p.time(|| {
            for _ in 0..reps {
                let replay = replay_campaign_bundle(dir, Some(provider)).expect("bundle replay");
                assert!(
                    replay.ok(),
                    "replay diverged — refusing to record: {}",
                    replay.summary()
                );
            }
        })
    });

    let pairs = w.pairs() * reps;
    let dedup = object([
        ("ratio", Json::Number(stats.dedup_ratio())),
        ("logical_bytes", Json::int(stats.logical_bytes as i64)),
        ("stored_bytes", Json::int(stats.stored_bytes as i64)),
    ]);
    let threads = Json::array(w.threads.iter().map(|&t| Json::int(t as i64)));
    let days = Json::int(w.days.len() as i64);
    Sweep {
        bench: "bundle_archive",
        workload: w.describe([("days", days), ("threads", threads), ("dedup", dedup)]),
        records: vec![
            BenchRecord::measured("bundle_pack", 1, pairs, &pack, "bundle.pack"),
            BenchRecord::measured("bundle_verify", 1, pairs, &verify, "bundle.verify"),
            BenchRecord::measured("bundle_replay", 1, pairs, &replay, "bundle.replay"),
        ],
    }
}

/// A JSON object from `&str` keys.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::object(fields.into_iter().map(|(k, v)| (k.to_string(), v)))
}

/// A fresh scratch directory under the system temp dir, removed (with
/// everything in it) on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let name = format!("consent-bench-{}-{n}", std::process::id());
        Scratch(std::env::temp_dir().join(name))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Flip one byte inside the first section body (`meta`) of a checkpoint
/// file, so that recovery has to quarantine it and rebuild the cursor
/// from the intact `capture-db` section.
fn corrupt_meta_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read checkpoint");
    let marker = b"#end-header\n";
    let start = bytes
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("checkpoint has a header terminator")
        + marker.len();
    bytes[start + 1] ^= 0x01;
    std::fs::write(path, &bytes).expect("write corrupted checkpoint");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(domains: usize) -> Workload {
        Workload {
            sites: 400,
            domains,
            vantages: vec![Vantage::eu_cloud()],
            repeats: 2,
            threads: vec![1, 2],
            ..Workload::default()
        }
    }

    fn names<R: Row>(records: &[R]) -> Vec<&str> {
        records.iter().map(|r| r.record().name.as_str()).collect()
    }

    #[test]
    fn record_serializes_every_schema_key() {
        let r = BenchRecord {
            name: "campaign/threads=2".into(),
            threads: 2,
            pairs: 240,
            elapsed_secs: 1.5,
            pairs_per_sec: 160.0,
            p50_us: 900,
            p95_us: 2_400,
        };
        let sweep = Sweep {
            bench: "campaign_throughput",
            workload: object([]),
            records: vec![r],
        };
        let doc = sweep.document();
        let json = &doc.get("records").and_then(Json::as_array).unwrap()[0];
        for key in [
            "name",
            "threads",
            "pairs",
            "elapsed_secs",
            "pairs_per_sec",
            "p50_us",
            "p95_us",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert_eq!(json.get("threads").and_then(Json::as_u32), Some(2));
        assert_eq!(
            json.get("pairs_per_sec").and_then(Json::as_f64),
            Some(160.0)
        );
    }

    #[test]
    fn document_roundtrips_through_the_parser() {
        let w = Workload {
            vantages: vec![Vantage::us_cloud()],
            ..small(8)
        };
        let sweep = campaign(&w, FaultProfile::none(), "none");
        assert_eq!(sweep.records.len(), 2);
        for r in &sweep.records {
            assert_eq!(r.pairs, w.pairs() * 2);
            assert!(r.pairs_per_sec > 0.0);
            assert!(r.p50_us <= r.p95_us);
        }
        let parsed = Json::parse(&sweep.document().to_pretty()).expect("document parses");
        assert_eq!(
            parsed.get("bench").and_then(Json::as_str),
            Some("campaign_throughput")
        );
        assert_eq!(parsed.get("schema").and_then(Json::as_u32), Some(1));
        let workload = parsed.get("workload").expect("workload");
        assert_eq!(workload.get("pairs").and_then(Json::as_u32), Some(8));
        let recs = parsed.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(
            recs[0].get("name").and_then(Json::as_str),
            Some("campaign/threads=1")
        );
    }

    #[test]
    fn progress_sweep_pairs_full_and_delta_records() {
        let w = small(20);
        let records = checkpoint_progress(&w.build(), &Meter::acquire());
        assert_eq!(
            names(&records),
            vec![
                "checkpoint_full/progress=10",
                "checkpoint_delta/progress=10",
                "checkpoint_full/progress=50",
                "checkpoint_delta/progress=50",
                "checkpoint_full/progress=90",
                "checkpoint_delta/progress=90",
            ],
        );
        for r in &records {
            assert!(r.pairs > 0);
            assert!(r.elapsed_secs > 0.0);
            assert!(r.p50_us <= r.p95_us);
        }
        // Delta cuts cover one interval regardless of progress; full
        // cuts cover the growing campaign.
        let pairs_of = |name: &str| records.iter().find(|r| r.name == name).unwrap().pairs;
        assert_eq!(
            pairs_of("checkpoint_delta/progress=10"),
            pairs_of("checkpoint_delta/progress=90"),
        );
        assert!(pairs_of("checkpoint_full/progress=90") > pairs_of("checkpoint_full/progress=10"));
    }

    #[test]
    fn bundle_sweep_covers_pack_verify_and_replay() {
        let w = Workload {
            threads: vec![1, 2],
            repeats: 2,
            ..Workload::bundle()
        };
        let sweep = bundle(&w, None);
        assert_eq!(
            names(&sweep.records),
            vec!["bundle_pack", "bundle_verify", "bundle_replay"],
        );
        for r in &sweep.records {
            assert_eq!(r.pairs, w.pairs() * 2);
            assert!(r.pairs_per_sec > 0.0);
            assert!(r.p50_us <= r.p95_us);
        }
        let parsed = Json::parse(&sweep.document().to_pretty()).expect("document parses");
        assert_eq!(
            parsed.get("bench").and_then(Json::as_str),
            Some("bundle_archive")
        );
        let workload = parsed.get("workload").expect("workload");
        assert_eq!(workload.get("days").and_then(Json::as_u32), Some(2));
        let dedup = workload.get("dedup").expect("document records dedup");
        let field = |key: &str| dedup.get(key).and_then(Json::as_f64).unwrap();
        assert!(
            field("ratio") > 1.0,
            "recorded dedup ratio {}",
            field("ratio")
        );
        assert!(field("stored_bytes") < field("logical_bytes"));
    }

    #[test]
    fn checkpoint_sweep_covers_write_open_and_salvage() {
        let w = small(8);
        let records = checkpoint_ops(&w.build(), &Meter::acquire());
        assert_eq!(
            names(&records),
            vec!["checkpoint_write", "checkpoint_open", "checkpoint_salvage"],
        );
        for r in &records {
            assert_eq!(r.pairs, w.pairs() * 2);
            assert!(r.pairs_per_sec > 0.0);
            assert!(r.p50_us <= r.p95_us);
        }
        let sweep = Sweep {
            bench: "checkpoint_durability",
            workload: w.describe([]),
            records,
        };
        let parsed = Json::parse(&sweep.document().to_pretty()).expect("document parses");
        assert_eq!(parsed.get("schema").and_then(Json::as_u32), Some(1));
        assert_eq!(
            parsed
                .get("workload")
                .and_then(|w| w.get("pairs"))
                .and_then(Json::as_u32),
            Some(8)
        );
    }

    #[test]
    fn overhead_is_relative_to_the_off_row() {
        let row = |name: &str, pps: f64| BenchRecord {
            name: name.into(),
            threads: 4,
            pairs: 1,
            elapsed_secs: 1.0,
            pairs_per_sec: pps,
            p50_us: 0,
            p95_us: 0,
        };
        let rows = [
            row("obs/sampler=off", 200.0),
            row("obs/sampler=wall", 150.0),
        ];
        assert_eq!(
            overhead_pct(&rows),
            vec![("obs/sampler=wall".to_string(), 25.0)]
        );
        assert!(overhead_pct(&rows[1..]).is_empty());
    }
}
