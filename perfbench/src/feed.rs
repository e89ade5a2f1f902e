//! `feed_longitudinal`: what `adoption_report --full` runs — Figure 6
//! (with the Figure 4 switching flows), Figure 5 and the methodology
//! statistics from one social-feed study — on the paper-scale world and
//! window, at a quarter of the default daily feed volume (250 URLs/day).
//!
//! The paper's main workload, single-threaded. Almost all its time goes
//! to feed → dedup queue → `httpsim` capture → `fingerprint` detect →
//! `CaptureDb::ingest`, plus the `analysis` functions. It bypasses
//! toplist resolve, the parallel executor, `apply_pair`/provenance,
//! `faultsim` and all storage.
//!
//! It runs by hand but is not gated: on a shared 2-vCPU machine its
//! run-to-run spread exceeded every bound the benchmark may set (see
//! `README.md`). [`feed_only_layers`] keeps its layers measured inside
//! the gated `toplist_campaign` traced run.

use crate::expect::{digest, Expect};
use crate::harness::{Metric, Pass, Scale, SetupReport, Workload};
use crate::instruments::LayerClock;
use crate::stats::{median, ratio, unattributed_share};
use consent_analysis::{adoption_series, build_timelines, switch_matrix};
use consent_core::experiments::fig6::Fig6Result;
use consent_core::experiments::{fig5, fig6, methodology};
use consent_core::{Study, StudyConfig};
use consent_crawler::{
    build_toplist, export_db, Admission, CaptureDb, CmpSet, DedupQueue, Feed, FeedConfig,
    FeedSource, RunStats,
};
use consent_faultsim::{FaultProfile, FaultyEngine};
use consent_fingerprint::Detector;
use consent_httpsim::{CaptureOptions, Vantage};
use consent_psl::PublicSuffixList;
use consent_util::Day;
use rand::Rng;
use std::collections::HashSet;
use std::time::Instant;

/// The Figure 6 sampling step `fig6()` uses.
const STEP_DAYS: i32 = 30;

pub struct FeedLongitudinal {
    pub config: StudyConfig,
}

impl FeedLongitudinal {
    pub fn new(scale: Scale, seed: u64) -> FeedLongitudinal {
        let config = match scale {
            Scale::Full => StudyConfig {
                seed,
                feed_urls_per_day: 250,
                ..StudyConfig::default()
            },
            Scale::Smoke => StudyConfig {
                seed,
                n_sites: 20_000,
                toplist_size: 500,
                feed_urls_per_day: 150,
                window_start: Day::from_ymd(2020, 3, 1),
                window_end: Day::from_ymd(2020, 5, 1),
                fig5_stratum_sample: 100,
            },
        };
        FeedLongitudinal { config }
    }
}

pub struct FeedState {
    study: Study,
    captures: u64,
    export_bytes: u64,
}

/// Everything `adoption_report` prints, in its order.
fn render(f6: &Fig6Result, f5: &fig5::Fig5Result, m: &methodology::MethodologyResult) -> String {
    format!(
        "{}\n{}\n{}\n{}\n",
        f6.render(),
        f6.render_switching(),
        f5.render(),
        m.render()
    )
}

/// The three experiment calls of `adoption_report --full`.
fn report(study: &Study) -> (Fig6Result, String) {
    let f6 = fig6::fig6(study);
    let f5 = fig5::fig5(study);
    let m = methodology::methodology(study, &f6);
    let text = render(&f6, &f5, &m);
    (f6, text)
}

impl Workload for FeedLongitudinal {
    type State = FeedState;

    fn name(&self) -> &'static str {
        "feed_longitudinal"
    }

    fn setup(&self, expect: &mut Expect) -> Result<(FeedState, SetupReport), String> {
        let study = Study::new(self.config.clone());
        let start = Instant::now();
        let (f6, text) = report(&study);
        let cold_pass_s = start.elapsed().as_secs_f64();
        let export = export_db(&f6.db);
        expect.adopt("report", digest(&text));
        expect.adopt("capture_db", digest(&export));
        let mut failures = Vec::new();
        expect.check("report", &text, &mut failures);
        expect.check("capture_db", &export, &mut failures);
        let state = FeedState {
            study,
            captures: f6.stats.captured,
            export_bytes: export.len() as u64,
        };
        Ok((
            state,
            SetupReport {
                cold_pass_s,
                failures,
            },
        ))
    }

    fn pass(&self, state: &mut FeedState, expect: &Expect) -> Pass {
        let start = Instant::now();
        let (f6, text) = report(&state.study);
        let seconds = start.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        expect.check("report", &text, &mut failures);
        if f6.stats.captured != state.captures {
            failures.push(format!(
                "captured {} != reference {}",
                f6.stats.captured, state.captures
            ));
        }
        Pass {
            captures: f6.stats.captured,
            seconds,
            failures,
        }
    }

    /// The study persists nothing; this is its capture database in the
    /// export format, the bytes an archive of the run would hold.
    fn disk_bytes_per_capture(&self, state: &FeedState) -> f64 {
        ratio(state.export_bytes as f64, state.captures as f64)
    }

    fn trace(
        &self,
        state: &mut FeedState,
        expect: &Expect,
        setup: &SetupReport,
        warm_s: &[f64],
        failures: &mut Vec<String>,
    ) -> Vec<Metric> {
        let mut t = traced_pass(&state.study);
        expect.check("report", &t.text, failures);
        expect.check("capture_db", &export_db(&t.f6.db), failures);
        let warm = median(warm_s).unwrap_or(f64::NAN);
        let mut m = vec![
            Metric::new(
                "webgraph.profiles_cached",
                state.study.world().cached_sites() as f64,
                "count",
            ),
            Metric::new("webgraph.fill_s", setup.cold_pass_s - warm, "s"),
            Metric::new("trace.pass_s", t.wall_s, "s"),
            Metric::new(
                "trace.overhead_share",
                ratio(t.wall_s - warm, warm),
                "ratio",
            ),
            Metric::new("trace.unattributed_share", t.unattributed_share(), "ratio"),
            Metric::new("trace.passes", 1.0, "count"),
            Metric::new("trace.untraced_passes", warm_s.len() as f64, "count"),
        ];
        m.extend(t.shared_layer_metrics());
        m.extend(t.feed_layer_metrics());
        m
    }
}

/// The layers only the feed study exercises (feed, dedup queue, capture
/// database, analysis), measured over one traced study on `study` and
/// checked byte for byte against `adoption_report`'s own calls. The
/// `toplist_campaign` traced run reports these, so they stay measured
/// on a workload `BENCHMARK.json` gates.
pub fn feed_only_layers(study: &Study, failures: &mut Vec<String>) -> Vec<Metric> {
    let (reference, text) = report(study);
    let t = traced_pass(study);
    if t.text != text {
        failures.push("traced feed study renders differently from adoption_report".into());
    }
    if export_db(&t.f6.db) != export_db(&reference.db) {
        failures.push("traced feed study's capture database differs from Platform::run's".into());
    }
    drop(reference);
    let mut m = t.feed_layer_metrics();
    m.push(Metric::new("trace.feed_pass_s", t.wall_s, "s"));
    m.push(Metric::new(
        "trace.feed_unattributed_share",
        t.unattributed_share(),
        "ratio",
    ));
    m
}

#[derive(Default)]
struct FeedClocks {
    day_items: LayerClock,
    offer: LayerClock,
    capture: LayerClock,
    detect: LayerClock,
    ingest: LayerClock,
    toplist: LayerClock,
    timelines: LayerClock,
    series: LayerClock,
    marketshare: LayerClock,
    methodology: LayerClock,
    exports: LayerClock,
}

struct TracedFeed {
    f6: Fig6Result,
    text: String,
    clocks: FeedClocks,
    wall_s: f64,
    usable: u64,
    hits: u64,
}

impl TracedFeed {
    /// Time not covered by any timed call, over the pass time.
    fn unattributed_share(&self) -> f64 {
        let c = &self.clocks;
        let layers = [
            &c.day_items,
            &c.offer,
            &c.capture,
            &c.detect,
            &c.ingest,
            &c.toplist,
            &c.timelines,
            &c.series,
            &c.marketshare,
            &c.methodology,
            &c.exports,
        ];
        unattributed_share(self.wall_s, &layers.map(LayerClock::secs))
    }

    /// Layers the campaign workload exercises too.
    fn shared_layer_metrics(&mut self) -> Vec<Metric> {
        let c = &mut self.clocks;
        vec![
            Metric::new("toplist.build_s", c.toplist.secs(), "s"),
            Metric::new("httpsim.captures", c.capture.calls as f64, "count"),
            Metric::new("httpsim.capture_s", c.capture.secs(), "s"),
            Metric::new("httpsim.capture_us_p50", c.capture.percentile_us(0.5), "us"),
            Metric::new(
                "httpsim.capture_us_p99",
                c.capture.percentile_us(0.99),
                "us",
            ),
            Metric::new(
                "httpsim.usable_ratio",
                ratio(self.usable as f64, c.capture.calls as f64),
                "ratio",
            ),
            Metric::new("fingerprint.detect_s", c.detect.secs(), "s"),
            Metric::new(
                "fingerprint.detect_us_p50",
                c.detect.percentile_us(0.5),
                "us",
            ),
            Metric::new(
                "fingerprint.hit_ratio",
                ratio(self.hits as f64, c.detect.calls as f64),
                "ratio",
            ),
        ]
    }

    /// Layers only the feed study exercises.
    fn feed_layer_metrics(&self) -> Vec<Metric> {
        let c = &self.clocks;
        let stats = self.f6.stats;
        let db = &self.f6.db;
        vec![
            Metric::new("feed.items", stats.submitted as f64, "count"),
            Metric::new("feed.day_items_s", c.day_items.secs(), "s"),
            Metric::new("queue.offer_s", c.offer.secs(), "s"),
            Metric::new(
                "queue.skip_ratio",
                ratio(stats.skipped as f64, stats.submitted as f64),
                "ratio",
            ),
            Metric::new("capture_db.ingest_s", c.ingest.secs(), "s"),
            Metric::new("capture_db.rows", db.len() as f64, "count"),
            Metric::new("capture_db.hosts", db.domain_count() as f64, "count"),
            Metric::new("capture_db.segments", db.sealed_segments() as f64, "count"),
            Metric::new("analysis.timelines_s", c.timelines.secs(), "s"),
            Metric::new("analysis.series_s", c.series.secs(), "s"),
            Metric::new("analysis.marketshare_s", c.marketshare.secs(), "s"),
            Metric::new("analysis.methodology_s", c.methodology.secs(), "s"),
            Metric::new("analysis.exports_s", c.exports.secs(), "s"),
        ]
    }
}

/// `adoption_report`'s work decomposed into its public calls: the
/// steps of `Platform::run` (same seeds, same order, so the capture
/// database is byte-identical), then `fig6`'s analysis, `fig5` and
/// `methodology`, each call timed from outside.
fn traced_pass(study: &Study) -> TracedFeed {
    let mut c = FeedClocks::default();
    let config = study.config();
    let world = study.world();
    let start = Instant::now();

    // Platform::new(world, feed_config, seed) with an explicit no-fault
    // profile (the benchmark refuses CONSENT_CHAOS, so this is what
    // `fig6` builds too).
    let seed = study.seed().child("fig6-platform");
    let engine = FaultyEngine::from_world(world, FaultProfile::none(), seed);
    let feed = Feed::new(
        world,
        FeedConfig {
            urls_per_day: config.feed_urls_per_day,
            ..FeedConfig::default()
        },
        seed.child("feed"),
    );
    let detector = Detector::hostname_only();
    let psl = PublicSuffixList::embedded();
    let mut assign_rng = seed.child("platform").child("assign").rng();

    // Platform::run(start, end)
    let mut db = CaptureDb::new();
    let mut stats = RunStats::default();
    let mut queue = DedupQueue::new();
    let (mut usable, mut hits) = (0u64, 0u64);
    for day in config.window_start.days_until(config.window_end) {
        for item in c.day_items.time(|| feed.day_items(day)) {
            stats.submitted += 1;
            if item.source == FeedSource::Twitter {
                stats.twitter_items += 1;
            }
            let ts = i64::from(day.0) * 86_400 + i64::from(item.seconds);
            if c.offer.time(|| queue.offer(&item.url, ts)) != Admission::Accepted {
                stats.skipped += 1;
                continue;
            }
            let vantage = if assign_rng.gen::<bool>() {
                stats.eu_captures += 1;
                Vantage::eu_cloud()
            } else {
                stats.us_captures += 1;
                Vantage::us_cloud()
            };
            let capture = c
                .capture
                .time(|| engine.capture(&item.url, item.day, vantage, CaptureOptions::default()));
            usable += u64::from(capture.usable());
            let cmps = c
                .detect
                .time(|| CmpSet::from_iter(detector.detect(&capture)));
            hits += u64::from(!cmps.is_empty());
            c.ingest.time(|| db.ingest(&capture, cmps, &psl));
            stats.captured += 1;
        }
        c.offer
            .time(|| queue.compact(i64::from(day.0 + 1) * 86_400));
    }

    // The rest of fig6_with_step(study, 30).
    let toplist = c
        .toplist
        .time(|| build_toplist(world, config.toplist_size, study.seed().child("toplist")));
    let membership: HashSet<String> = toplist.iter().cloned().collect();
    let timelines = c.timelines.time(|| build_timelines(&db, Some(&membership)));
    let series = c.series.time(|| {
        adoption_series(
            &timelines,
            config.window_start,
            config.window_end - 1,
            STEP_DAYS,
        )
    });
    let all_timelines = c.timelines.time(|| build_timelines(&db, None));
    let switching = c.series.time(|| switch_matrix(&all_timelines));
    let f6 = Fig6Result {
        series,
        switching,
        stats,
        db,
        toplist,
    };
    let f5 = c.marketshare.time(|| fig5::fig5(study));
    let m = c.methodology.time(|| methodology::methodology(study, &f6));
    let text = c.exports.time(|| render(&f6, &f5, &m));
    let wall_s = start.elapsed().as_secs_f64();
    TracedFeed {
        f6,
        text,
        clocks: c,
        wall_s,
        usable,
        hits,
    }
}
