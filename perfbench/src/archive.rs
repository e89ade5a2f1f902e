//! The storage workloads.
//!
//! `durable_archive` is the write path of `checkpoint` and `bundle`:
//! `run_durable_campaign` on fresh stores in `CheckpointMode::Delta`
//! for two campaign days, then a bundle pack of the result with the
//! `standard_exports` provider. Two days give the content/dynamics
//! split the cross-day dedup it exists for.
//!
//! `archive_replay` uses the same two storage layers for reading
//! instead of writing: `recover_state` over each store's delta chain,
//! then `consent_bundle::verify`, then `replay_campaign_bundle` on a
//! bundle packed during set-up. A bundle rewrite that makes pack much
//! faster but slows verify or replay would be hidden under
//! `durable_archive`'s fsyncs; it shows here. No crawl layer runs.

use crate::campaign::THREADS;
use crate::expect::{digest, Expect};
use crate::harness::{Metric, Pass, Scale, SetupReport, Workload};
use crate::instruments::{TimingVfs, UnsyncedVfs};
use crate::stats::{median, ratio, unattributed_share};
use crate::workdir;
use consent_analysis::standard_exports;
use consent_bundle::{pack_verified, verify, BlobStore, PackReport, VerifyReport};
use consent_checkpoint::{CheckpointStore, RealVfs, Vfs, DEFAULT_KEEP};
use consent_core::{Study, StudyConfig};
use consent_crawler::archive::SCRUB_ROUNDS;
use consent_crawler::{
    build_bundle_input, build_toplist, delta_state_sections, recover_state, replay_campaign_bundle,
    resume_campaign_parallel, run_durable_campaign, state_sections, ArchiveContext, BreakerConfig,
    CampaignArtifacts, CampaignConfig, CampaignState, CheckpointMode, DeltaMarks, DurableOpts,
    DurableOutcome, DurableRun, ParallelOpts, RetryPolicy,
};
use consent_faultsim::FaultProfile;
use consent_httpsim::Vantage;
use consent_util::{Day, SeedTree};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The archive both storage workloads build: one toplist crawled from
/// every Table 1 vantage on two consecutive days, checkpointed in delta
/// mode, then packed into one bundle.
pub struct ArchiveSpec {
    config: StudyConfig,
    domains: usize,
    days: [Day; 2],
    campaign: CampaignConfig,
    checkpoint_every: u64,
    rebase_every: u64,
}

impl ArchiveSpec {
    pub fn new(scale: Scale, seed: u64) -> ArchiveSpec {
        ArchiveSpec {
            config: StudyConfig {
                seed,
                ..match scale {
                    Scale::Full => StudyConfig::default(),
                    Scale::Smoke => StudyConfig {
                        n_sites: 20_000,
                        ..StudyConfig::quick()
                    },
                }
            },
            domains: match scale {
                Scale::Full => 250,
                Scale::Smoke => 20,
            },
            days: [Day::from_ymd(2020, 5, 15), Day::from_ymd(2020, 5, 16)],
            campaign: CampaignConfig {
                fault_profile: FaultProfile::none(),
                retry: RetryPolicy::paper(),
                breaker: BreakerConfig::default(),
            },
            checkpoint_every: 100,
            rebase_every: 8,
        }
    }

    fn opts(&self) -> DurableOpts {
        DurableOpts {
            threads: THREADS,
            config: self.campaign,
            checkpoint_every: self.checkpoint_every,
            mode: CheckpointMode::Delta {
                rebase_every: self.rebase_every,
            },
            ..DurableOpts::default()
        }
    }

    fn inputs(&self) -> Inputs {
        let study = Study::new(self.config.clone());
        let list = build_toplist(
            study.world(),
            self.domains,
            study.seed().child("archive-toplist"),
        );
        let seed = study.seed().child("archive-campaign");
        Inputs { study, list, seed }
    }
}

pub struct Inputs {
    study: Study,
    list: Vec<String>,
    seed: SeedTree,
}

impl Inputs {
    fn context(&self, spec: &ArchiveSpec) -> ArchiveContext {
        ArchiveContext::from_campaign(
            spec.days[1],
            &self.list,
            &Vantage::table1_columns(),
            &self.seed,
        )
    }
}

/// Where one archive lives: a checkpoint store per day and a bundle.
#[derive(Clone, Debug)]
pub struct ArchiveDirs {
    root: PathBuf,
}

impl ArchiveDirs {
    fn fresh(tag: &str) -> ArchiveDirs {
        ArchiveDirs {
            root: workdir::unique(tag),
        }
    }

    fn store(&self, day: usize) -> PathBuf {
        self.root.join(format!("checkpoints-day{day}"))
    }

    fn bundle(&self) -> PathBuf {
        self.root.join("bundle")
    }

    fn bytes(&self) -> u64 {
        workdir::disk_bytes(&self.root).unwrap_or(0)
    }
}

/// One archive written by [`write_archive`], with the time of each step.
struct Written {
    runs: Vec<DurableRun>,
    report: PackReport,
    fsck: VerifyReport,
    docs: u64,
    durable_s: f64,
    build_input_s: f64,
    pack_s: f64,
}

impl Written {
    fn seconds(&self) -> f64 {
        self.durable_s + self.build_input_s + self.pack_s
    }

    fn pairs(&self) -> u64 {
        self.runs.iter().map(|r| r.state.pairs_done).sum()
    }
}

/// The write path: a durable campaign per day into its own fresh store,
/// then one bundle of both days' captures and the final state.
fn write_archive(
    spec: &ArchiveSpec,
    inputs: &Inputs,
    dirs: &ArchiveDirs,
    checkpoint_vfs: Arc<dyn Vfs>,
    bundle_vfs: Arc<dyn Vfs>,
) -> io::Result<Written> {
    let opts = spec.opts();
    let vantages = Vantage::table1_columns();
    let start = Instant::now();
    let mut runs = Vec::new();
    for (k, &day) in spec.days.iter().enumerate() {
        let store =
            CheckpointStore::with_vfs(dirs.store(k), DEFAULT_KEEP, Arc::clone(&checkpoint_vfs))?;
        runs.push(run_durable_campaign(
            inputs.study.world(),
            &inputs.list,
            day,
            &vantages,
            inputs.seed,
            &store,
            &opts,
        )?);
    }
    let durable_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let artifacts = CampaignArtifacts {
        results: runs.iter().map(|r| &r.result).collect(),
        ..CampaignArtifacts::default()
    };
    let last = &runs[runs.len() - 1].state;
    let input = build_bundle_input(
        last,
        &inputs.context(spec),
        &artifacts,
        Some(&standard_exports),
    );
    let build_input_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let store = BlobStore::with_vfs(dirs.bundle(), bundle_vfs)?;
    let (report, fsck) = pack_verified(&store, &input, SCRUB_ROUNDS)?;
    let pack_s = start.elapsed().as_secs_f64();
    let docs = input.sections.iter().map(|s| s.docs.len() as u64).sum();
    Ok(Written {
        runs,
        report,
        fsck,
        docs,
        durable_s,
        build_input_s,
        pack_s,
    })
}

/// What reading an archive back found, and how long each step took.
struct ReadBack {
    exports: Vec<String>,
    recover_s: f64,
    verify: VerifyReport,
    verify_s: f64,
}

/// Recover every day's store, then fsck the bundle.
fn read_archive(dirs: &ArchiveDirs, days: usize, vfs: Arc<dyn Vfs>) -> io::Result<ReadBack> {
    let mut exports = Vec::new();
    let mut recover_s = 0.0;
    for k in 0..days {
        let start = Instant::now();
        let store = CheckpointStore::with_vfs(dirs.store(k), DEFAULT_KEEP, Arc::clone(&vfs))?;
        let (state, _trace, _report) = recover_state(&store)?;
        recover_s += start.elapsed().as_secs_f64();
        exports.push(state.export());
    }
    let start = Instant::now();
    let verify = verify(&BlobStore::with_vfs(dirs.bundle(), vfs)?)?;
    let verify_s = start.elapsed().as_secs_f64();
    Ok(ReadBack {
        exports,
        recover_s,
        verify,
        verify_s,
    })
}

/// Every check a freshly written archive must pass: each day
/// `Complete`, each store recovering to the in-memory state, a clean
/// fsck, and state and manifest bytes equal to the reference.
fn check_written(w: &Written, read: &ReadBack, expect: &Expect, failures: &mut Vec<String>) {
    for (k, (run, recovered)) in w.runs.iter().zip(&read.exports).enumerate() {
        if run.outcome != DurableOutcome::Complete {
            failures.push(format!("day {k}: durable outcome {:?}", run.outcome));
        }
        let state = run.state.export();
        if *recovered != state {
            failures.push(format!(
                "day {k}: recover_state export differs from the in-memory state"
            ));
        }
        expect.check(&format!("state-day{k}"), &state, failures);
    }
    if !w.fsck.clean() {
        failures.push(format!("pack fsck: {}", w.fsck.render()));
    }
    if !read.verify.clean() {
        failures.push(format!("bundle verify: {}", read.verify.render()));
    }
    expect.check("manifest", &w.report.manifest.serialize(), failures);
}

/// Adopt the digests of a reference archive as expectations.
fn adopt_reference(w: &Written, expect: &mut Expect) {
    for (k, run) in w.runs.iter().enumerate() {
        expect.adopt(&format!("state-day{k}"), digest(&run.state.export()));
    }
    expect.adopt("manifest", digest(&w.report.manifest.serialize()));
}

fn real() -> Arc<dyn Vfs> {
    Arc::new(RealVfs)
}

fn unsynced() -> Arc<dyn Vfs> {
    Arc::new(UnsyncedVfs)
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub struct DurableArchive {
    spec: ArchiveSpec,
}

impl DurableArchive {
    pub fn new(scale: Scale, seed: u64) -> DurableArchive {
        DurableArchive {
            spec: ArchiveSpec::new(scale, seed),
        }
    }
}

/// Archives written by set-up and passes stay on disk until the run
/// ends (see [`workdir::cleanup`]).
pub struct DurableState {
    inputs: Inputs,
    pairs: u64,
    disk_bytes: u64,
}

impl Workload for DurableArchive {
    type State = DurableState;

    fn name(&self) -> &'static str {
        "durable_archive"
    }

    fn setup(&self, expect: &mut Expect) -> Result<(DurableState, SetupReport), String> {
        let inputs = self.spec.inputs();
        let dirs = ArchiveDirs::fresh("durable-reference");
        let w = write_archive(&self.spec, &inputs, &dirs, unsynced(), unsynced())
            .map_err(io_err("reference archive"))?;
        let read =
            read_archive(&dirs, self.spec.days.len(), real()).map_err(io_err("reference read"))?;
        adopt_reference(&w, expect);
        let mut failures = Vec::new();
        check_written(&w, &read, expect, &mut failures);
        let state = DurableState {
            pairs: w.pairs(),
            disk_bytes: dirs.bytes(),
            inputs,
        };
        Ok((
            state,
            SetupReport {
                cold_pass_s: w.seconds(),
                failures,
            },
        ))
    }

    fn pass(&self, state: &mut DurableState, expect: &Expect) -> Pass {
        let dirs = ArchiveDirs::fresh("durable");
        let mut failures = Vec::new();
        let mut pass = Pass::default();
        match write_archive(&self.spec, &state.inputs, &dirs, real(), real()) {
            Ok(w) => {
                pass.seconds = w.seconds();
                pass.captures = w.pairs();
                match read_archive(&dirs, self.spec.days.len(), real()) {
                    Ok(read) => check_written(&w, &read, expect, &mut failures),
                    Err(e) => failures.push(format!("read back: {e}")),
                }
                let bytes = dirs.bytes();
                if bytes != state.disk_bytes {
                    failures.push(format!(
                        "archive is {bytes} bytes, reference {}",
                        state.disk_bytes
                    ));
                }
            }
            Err(e) => failures.push(format!("write: {e}")),
        }
        pass.failures = failures;
        pass
    }

    fn disk_bytes_per_capture(&self, state: &DurableState) -> f64 {
        ratio(state.disk_bytes as f64, state.pairs as f64)
    }

    fn trace(
        &self,
        state: &mut DurableState,
        expect: &Expect,
        setup: &SetupReport,
        warm_s: &[f64],
        failures: &mut Vec<String>,
    ) -> Vec<Metric> {
        let warm = median(warm_s).unwrap_or(f64::NAN);
        // Set-up's reference write skipped fsyncs, so the world-cache
        // fill is its time less a warm write made the same way.
        let dirs = ArchiveDirs::fresh("durable-warm-unsynced");
        let warm_unsynced = write_archive(&self.spec, &state.inputs, &dirs, unsynced(), unsynced())
            .map_or(f64::NAN, |w| w.seconds());
        let dirs = ArchiveDirs::fresh("durable-traced");
        let traced = traced_write(&self.spec, &state.inputs, &dirs, expect, failures);
        let Some(t) = traced else {
            return Vec::new();
        };
        let mut m = vec![
            Metric::new(
                "webgraph.profiles_cached",
                state.inputs.study.world().cached_sites() as f64,
                "count",
            ),
            Metric::new("webgraph.fill_s", setup.cold_pass_s - warm_unsynced, "s"),
            Metric::new("trace.pass_s", t.wall_s, "s"),
            Metric::new(
                "trace.overhead_share",
                ratio(t.wall_s - warm, warm),
                "ratio",
            ),
            Metric::new("trace.unattributed_share", t.unattributed_share, "ratio"),
            Metric::new("trace.passes", 1.0, "count"),
            Metric::new("trace.untraced_passes", warm_s.len() as f64, "count"),
        ];
        m.extend(t.metrics);
        m.extend(state_subcalls(
            &t.final_state,
            &state.inputs.context(&self.spec),
        ));
        m
    }
}

/// The write path's per-layer metrics from one traced write.
struct TracedWrite {
    metrics: Vec<Metric>,
    wall_s: f64,
    unattributed_share: f64,
    final_state: CampaignState,
}

/// Write an archive through timing `Vfs` wrappers (one for the
/// checkpoint stores, one for the bundle), check it like a timed pass,
/// and re-make `run_durable_campaign`'s checkpoint encoding from
/// outside. The crawl, encode, save, input-building and pack times
/// account for the write.
fn traced_write(
    spec: &ArchiveSpec,
    inputs: &Inputs,
    dirs: &ArchiveDirs,
    expect: &Expect,
    failures: &mut Vec<String>,
) -> Option<TracedWrite> {
    let ckpt = Arc::new(TimingVfs::new(real()));
    let blobs = Arc::new(TimingVfs::new(real()));
    let mut w = match write_archive(spec, inputs, dirs, ckpt.clone(), blobs.clone()) {
        Ok(w) => w,
        Err(e) => {
            failures.push(format!("traced write: {e}"));
            return None;
        }
    };
    let ckpt_t = ckpt.totals();
    let blob_t = blobs.totals();
    match read_archive(dirs, spec.days.len(), real()) {
        Ok(read) => check_written(&w, &read, expect, failures),
        Err(e) => failures.push(format!("traced read back: {e}")),
    }
    let enc = encode_cuts(spec, inputs);
    for (k, run) in w.runs.iter().enumerate() {
        if enc.exports[k] != run.state.export() {
            failures.push(format!(
                "day {k}: chunked re-crawl differs from the durable state"
            ));
        }
    }
    let parts = [
        enc.crawl_s,
        enc.encode_s,
        ckpt_t.total_s(),
        w.build_input_s,
        w.pack_s,
    ];
    let wall_s = w.seconds();
    let metrics = vec![
        Metric::new("campaign.crawl_s", enc.crawl_s, "s"),
        Metric::new("checkpoint.cuts", enc.cuts as f64, "count"),
        Metric::new("checkpoint.encode_s", enc.encode_s, "s"),
        Metric::new("checkpoint.save_s", ckpt_t.total_s(), "s"),
        Metric::new("checkpoint.sync_s", ckpt_t.sync_s, "s"),
        Metric::new("checkpoint.fsyncs", ckpt_t.fsyncs as f64, "count"),
        Metric::new(
            "checkpoint.bytes_written",
            ckpt_t.bytes_written as f64,
            "bytes",
        ),
        Metric::new("bundle.docs", w.docs as f64, "count"),
        Metric::new("bundle.blobs_written", w.report.new_blobs as f64, "count"),
        Metric::new("bundle.dedup_ratio", w.report.dedup_ratio(), "ratio"),
        Metric::new("bundle.build_input_s", w.build_input_s, "s"),
        Metric::new("bundle.pack_s", w.pack_s, "s"),
        Metric::new("bundle.fsyncs", blob_t.fsyncs as f64, "count"),
        Metric::new("bundle.bytes_written", blob_t.bytes_written as f64, "bytes"),
        Metric::new("bundle.pack_sync_s", blob_t.sync_s, "s"),
        Metric::new("bundle.pack_cpu_s", w.pack_s - blob_t.total_s(), "s"),
    ];
    let final_state = w.runs.pop().expect("two campaign days").state;
    Some(TracedWrite {
        metrics,
        wall_s,
        unattributed_share: unattributed_share(wall_s, &parts),
        final_state,
    })
}

/// Time the state export, its import, and the `standard_exports`
/// analysis over a final campaign state — the calls inside pack's
/// input building and inside replay, re-made from outside.
fn state_subcalls(state: &CampaignState, ctx: &ArchiveContext) -> Vec<Metric> {
    let start = Instant::now();
    let export = state.export();
    let export_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let imported = CampaignState::import(&export).map(|s| s.pairs_done);
    let import_s = start.elapsed().as_secs_f64();
    assert_eq!(
        imported.ok(),
        Some(state.pairs_done),
        "exported state re-imports"
    );
    let start = Instant::now();
    std::hint::black_box(standard_exports(state, ctx));
    let exports_s = start.elapsed().as_secs_f64();
    vec![
        Metric::new("export.state_s", export_s, "s"),
        Metric::new("export.state_bytes", export.len() as f64, "bytes"),
        Metric::new("export.import_s", import_s, "s"),
        Metric::new("analysis.exports_s", exports_s, "s"),
    ]
}

/// `run_durable_campaign`'s checkpoint encoding, re-made from outside:
/// the same chunked campaign, with the sections of every cut built by
/// the public encoders in its full/delta cadence.
struct Encoded {
    cuts: u64,
    crawl_s: f64,
    encode_s: f64,
    exports: Vec<String>,
}

fn encode_cuts(spec: &ArchiveSpec, inputs: &Inputs) -> Encoded {
    let mut enc = Encoded {
        cuts: 0,
        crawl_s: 0.0,
        encode_s: 0.0,
        exports: Vec::new(),
    };
    let popts = ParallelOpts {
        threads: THREADS,
        config: spec.campaign,
        max_pairs: Some(spec.checkpoint_every),
    };
    for &day in &spec.days {
        let mut state = CampaignState::new();
        // (head generation, base generation, deltas since base, marks)
        let mut chain: Option<(u64, u64, u64, DeltaMarks)> = None;
        loop {
            let start = Instant::now();
            let run = resume_campaign_parallel(
                inputs.study.world(),
                &inputs.list,
                day,
                &Vantage::table1_columns(),
                inputs.seed,
                &popts,
                state,
            );
            enc.crawl_s += start.elapsed().as_secs_f64();
            state = run.state;
            let generation = enc.cuts;
            let start = Instant::now();
            let delta = match &chain {
                Some((head, base, deltas, marks)) if *deltas < spec.rebase_every => {
                    std::hint::black_box(delta_state_sections(&state, marks, *head, *base, ""));
                    true
                }
                _ => {
                    std::hint::black_box(state_sections(&state, ""));
                    false
                }
            };
            let marks = DeltaMarks::capture(&state);
            enc.encode_s += start.elapsed().as_secs_f64();
            enc.cuts += 1;
            chain = Some(match chain {
                Some((_, base, deltas, _)) if delta => (generation, base, deltas + 1, marks),
                _ => (generation, generation, 0, marks),
            });
            if run.complete {
                break;
            }
        }
        enc.exports.push(state.export());
    }
    enc
}

pub struct ArchiveReplay {
    spec: ArchiveSpec,
}

impl ArchiveReplay {
    pub fn new(scale: Scale, seed: u64) -> ArchiveReplay {
        ArchiveReplay {
            spec: ArchiveSpec::new(scale, seed),
        }
    }

    fn read(&self, state: &ReplayState, vfs: Arc<dyn Vfs>, expect: &Expect) -> (Pass, Replayed) {
        let mut failures = Vec::new();
        let start = Instant::now();
        let read = read_archive(&state.dirs, self.spec.days.len(), vfs);
        let replay_start = Instant::now();
        let replay = replay_campaign_bundle(&state.dirs.bundle(), Some(&standard_exports));
        let replay_s = replay_start.elapsed().as_secs_f64();
        let seconds = start.elapsed().as_secs_f64();
        let mut timing = Replayed::default();
        match read {
            Ok(read) => {
                for (k, export) in read.exports.iter().enumerate() {
                    expect.check(&format!("state-day{k}"), export, &mut failures);
                }
                if !read.verify.clean() {
                    failures.push(format!("bundle verify: {}", read.verify.render()));
                }
                timing.recover_s = read.recover_s;
                timing.verify_s = read.verify_s;
            }
            Err(e) => failures.push(format!("read: {e}")),
        }
        match replay {
            Ok(r) if r.ok() => {}
            Ok(r) => failures.push(r.summary()),
            Err(e) => failures.push(format!("replay: {e}")),
        }
        timing.replay_s = replay_s;
        let pass = Pass {
            captures: state.pairs,
            seconds,
            failures,
        };
        (pass, timing)
    }
}

#[derive(Debug, Default)]
struct Replayed {
    recover_s: f64,
    verify_s: f64,
    replay_s: f64,
}

pub struct ReplayState {
    inputs: Inputs,
    dirs: ArchiveDirs,
    pairs: u64,
    disk_bytes: u64,
}

impl Workload for ArchiveReplay {
    type State = ReplayState;

    fn name(&self) -> &'static str {
        "archive_replay"
    }

    fn setup(&self, expect: &mut Expect) -> Result<(ReplayState, SetupReport), String> {
        let inputs = self.spec.inputs();
        let dirs = ArchiveDirs::fresh("replay-archive");
        let w = write_archive(&self.spec, &inputs, &dirs, unsynced(), unsynced())
            .map_err(io_err("archive"))?;
        adopt_reference(&w, expect);
        let read =
            read_archive(&dirs, self.spec.days.len(), real()).map_err(io_err("archive read"))?;
        let mut failures = Vec::new();
        check_written(&w, &read, expect, &mut failures);
        let state = ReplayState {
            pairs: w.pairs(),
            disk_bytes: dirs.bytes(),
            inputs,
            dirs,
        };
        drop(w);
        // The first read-back, against cold caches, is the warm-up.
        let (pass, _) = self.read(&state, real(), expect);
        failures.extend(pass.failures);
        Ok((
            state,
            SetupReport {
                cold_pass_s: pass.seconds,
                failures,
            },
        ))
    }

    fn pass(&self, state: &mut ReplayState, expect: &Expect) -> Pass {
        self.read(state, real(), expect).0
    }

    fn disk_bytes_per_capture(&self, state: &ReplayState) -> f64 {
        ratio(state.disk_bytes as f64, state.pairs as f64)
    }

    fn trace(
        &self,
        state: &mut ReplayState,
        expect: &Expect,
        setup: &SetupReport,
        warm_s: &[f64],
        failures: &mut Vec<String>,
    ) -> Vec<Metric> {
        let warm = median(warm_s).unwrap_or(f64::NAN);
        let (pass, t) = self.read(state, real(), expect);
        failures.extend(pass.failures);
        // The archive this workload reads was written in set-up; write
        // one more, durably and traced, so the write path's layers are
        // measured here too.
        let dirs = ArchiveDirs::fresh("replay-traced-write");
        let write = traced_write(&self.spec, &state.inputs, &dirs, expect, failures);
        // Replay's own internals, re-made over the recovered final state.
        let recovered = match recover_final(&state.dirs, self.spec.days.len()) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("recover for subcalls: {e}"));
                CampaignState::new()
            }
        };
        let mut m = vec![
            Metric::new(
                "webgraph.profiles_cached",
                state.inputs.study.world().cached_sites() as f64,
                "count",
            ),
            Metric::new("webgraph.fill_s", setup.cold_pass_s - warm, "s"),
            Metric::new("checkpoint.recover_s", t.recover_s, "s"),
            Metric::new("bundle.verify_s", t.verify_s, "s"),
            Metric::new("bundle.replay_s", t.replay_s, "s"),
            Metric::new("trace.pass_s", pass.seconds, "s"),
            Metric::new(
                "trace.overhead_share",
                ratio(pass.seconds - warm, warm),
                "ratio",
            ),
            Metric::new(
                "trace.unattributed_share",
                unattributed_share(pass.seconds, &[t.recover_s, t.verify_s, t.replay_s]),
                "ratio",
            ),
            Metric::new("trace.passes", 1.0, "count"),
            Metric::new("trace.untraced_passes", warm_s.len() as f64, "count"),
        ];
        m.extend(state_subcalls(
            &recovered,
            &state.inputs.context(&self.spec),
        ));
        if let Some(w) = write {
            m.push(Metric::new("trace.write_pass_s", w.wall_s, "s"));
            m.push(Metric::new(
                "trace.write_unattributed_share",
                w.unattributed_share,
                "ratio",
            ));
            m.extend(w.metrics);
        }
        m
    }
}

/// The newest day's state, recovered from its store.
fn recover_final(dirs: &ArchiveDirs, days: usize) -> io::Result<CampaignState> {
    let store = CheckpointStore::with_vfs(dirs.store(days - 1), DEFAULT_KEEP, real())?;
    Ok(recover_state(&store)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expect::DEFAULT_SEED;
    use crate::harness::GLOBALS;
    use std::collections::BTreeMap;
    use std::path::Path;

    /// Every file under `dir`, by path relative to it.
    fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    walk(root, &path, out);
                } else {
                    let rel = path.strip_prefix(root).unwrap().to_path_buf();
                    out.insert(rel, std::fs::read(&path).unwrap());
                }
            }
        }
        let mut out = BTreeMap::new();
        walk(dir, dir, &mut out);
        out
    }

    #[test]
    fn wrapped_vfs_leaves_byte_identical_checkpoints_and_manifest() {
        let _guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let spec = ArchiveSpec::new(Scale::Smoke, DEFAULT_SEED);
        let inputs = spec.inputs();
        let plain = ArchiveDirs::fresh("identity-plain");
        write_archive(&spec, &inputs, &plain, real(), real()).unwrap();
        let timing = Arc::new(TimingVfs::new(real()));
        let wrapped = ArchiveDirs::fresh("identity-wrapped");
        write_archive(&spec, &inputs, &wrapped, timing.clone(), timing.clone()).unwrap();
        let bare = ArchiveDirs::fresh("identity-unsynced");
        write_archive(&spec, &inputs, &bare, unsynced(), unsynced()).unwrap();

        let t = timing.totals();
        assert!(t.fsyncs > 0 && t.bytes_written > 0, "{t:?}");
        for k in 0..spec.days.len() {
            let want = files(&plain.store(k));
            assert!(
                want.keys().any(|p| p.to_string_lossy().contains("ckpt")),
                "{:?}",
                want.keys()
            );
            assert_eq!(files(&wrapped.store(k)), want, "day {k} checkpoint files");
            assert_eq!(files(&bare.store(k)), want, "day {k} checkpoint files");
        }
        let want = files(&plain.bundle());
        assert!(
            want.contains_key(Path::new("MANIFEST")),
            "{:?}",
            want.keys().take(3).collect::<Vec<_>>()
        );
        assert_eq!(files(&wrapped.bundle()), want, "bundle");
        assert_eq!(files(&bare.bundle()), want, "bundle");
        for dirs in [plain, wrapped, bare] {
            std::fs::remove_dir_all(&dirs.root).unwrap();
        }
    }
}
