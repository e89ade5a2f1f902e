//! End-to-end telemetry reconciliation.
//!
//! The reconciliation test uses the process-global telemetry registry,
//! so it lives in its own integration-test binary and must stay the
//! only test fn that touches the global: nothing else may enable
//! recording or the deltas would mix. The sampler-race test below is
//! safe to share the binary because it runs against its own leaked
//! local registry.

use consent_core::{experiments, Study};
use consent_crawler::{FeedConfig, Platform};
use consent_telemetry::{global, Registry, RunReport};
use consent_util::Day;

#[test]
fn run_reports_reconcile_with_capture_db() {
    consent_telemetry::enable();
    let study = Study::quick();

    // Social-feed pipeline: every insert into the CaptureDb increments
    // the capture_db.insert{location,status} family, so the report's
    // totals must equal the database row count exactly.
    let platform = Platform::new(
        study.world(),
        FeedConfig {
            urls_per_day: 150,
            ..FeedConfig::default()
        },
        study.seed().child("it-telemetry"),
    );
    let ((db, stats), report) = RunReport::collect(global(), "platform", || {
        platform.run(Day::from_ymd(2020, 5, 1), Day::from_ymd(2020, 5, 3))
    });
    assert!(!db.is_empty(), "pipeline produced no captures");
    assert_eq!(report.captures_total(), db.len());
    assert_eq!(report.captures_total(), stats.captured);

    let by_location = report.captures_by_location();
    assert_eq!(by_location.values().sum::<u64>(), db.len());
    // The social feed assigns US and EU cloud vantages only.
    assert_eq!(by_location.len(), 2);
    assert!(by_location.contains_key("US cloud"));
    assert!(by_location.contains_key("EU cloud"));
    let by_status = report.captures_by_status();
    assert_eq!(by_status.values().sum::<u64>(), db.len());

    // Every platform capture either ran through the engine or was
    // preempted by a connection-level injected fault (brownout, reset,
    // anti-bot escalation never reach the origin; injected timeouts and
    // truncations degrade a real engine capture). With chaos off (no
    // CONSENT_CHAOS) the fault terms are zero and this reduces to
    // engine outcomes == captures.
    let outcomes: u64 = report
        .delta
        .counters_with_prefix("engine.capture.outcome")
        .map(|(_, n)| n)
        .sum();
    let preempting: u64 = ["brownout", "reset", "antibot_escalation"]
        .iter()
        .map(|f| {
            report
                .delta
                .counter(&format!("faultsim.injected{{fault={f}}}"))
        })
        .sum();
    assert_eq!(outcomes + preempting, stats.captured);
    let skips = report.delta.counter("queue.offer{decision=SkippedUrl}")
        + report.delta.counter("queue.offer{decision=SkippedDomain}");
    assert_eq!(skips, stats.skipped);
    assert_eq!(
        report.delta.counter("queue.offer{decision=Accepted}"),
        stats.captured
    );

    // Campaign retry accounting: retries are attempts minus one, summed
    // over pairs, and permanent failures short-circuit after their first
    // attempt — a geo-blocked 451 must never burn retry budget, so the
    // retries counter reconciles exactly with the per-capture attempt
    // numbers.
    let toplist = consent_crawler::build_toplist(study.world(), 120, study.seed().child("it-top"));
    let (run, campaign_report) = RunReport::collect(global(), "campaign", || {
        consent_crawler::run_campaign_with(
            study.world(),
            &toplist,
            Day::from_ymd(2020, 5, 15),
            &[consent_httpsim::Vantage::eu_cloud()],
            study.seed().child("it-campaign"),
            &consent_crawler::CampaignConfig {
                fault_profile: consent_faultsim::FaultProfile::none(),
                ..consent_crawler::CampaignConfig::default()
            },
        )
    });
    let captures = run
        .result
        .column(consent_httpsim::Vantage::eu_cloud())
        .unwrap();
    let expected_retries: u64 = captures.iter().map(|c| u64::from(c.attempts) - 1).sum();
    assert_eq!(
        campaign_report.delta.counter("campaign.retries"),
        expected_retries
    );
    let permanents = captures
        .iter()
        .filter(|c| c.outcome == consent_crawler::Outcome::Permanent)
        .count() as u64;
    assert!(permanents > 0, "no permanent failures in 120 EU domains");
    for c in captures {
        if c.outcome == consent_crawler::Outcome::Permanent {
            assert_eq!(c.attempts, 1, "{} retried a permanent failure", c.domain);
        }
    }
    assert_eq!(
        campaign_report
            .delta
            .counter("campaign.outcome{outcome=permanent}"),
        permanents
    );
    // One db row per (domain, vantage) pair, reconciled via the insert
    // family like the platform above.
    assert_eq!(campaign_report.captures_total(), run.state.db.len());
    assert_eq!(run.state.db.len(), toplist.len() as u64);
    // Dead letters cover exactly the pairs without a usable capture.
    assert_eq!(
        run.state.dead_letters.len() as u64,
        captures.iter().filter(|c| !c.capture.usable()).count() as u64
    );
    assert_eq!(
        campaign_report
            .delta
            .counters_with_prefix("campaign.dead_letter{")
            .map(|(_, n)| n)
            .sum::<u64>(),
        run.state.dead_letters.len() as u64
    );

    // Provenance: one record per pair, counted into the
    // campaign.provenance{outcome=…} family, and the dead-letter queue
    // is exactly the dead_lettered subset of the provenance log — three
    // views of the same campaign that must agree record for record.
    let provenance = &run.state.provenance;
    assert_eq!(provenance.len() as u64, run.state.pairs_done);
    assert_eq!(
        campaign_report
            .delta
            .counters_with_prefix("campaign.provenance{")
            .map(|(_, n)| n)
            .sum::<u64>(),
        provenance.len() as u64
    );
    let dead: Vec<&consent_trace::Provenance> = provenance
        .records()
        .iter()
        .filter(|p| p.dead_lettered)
        .collect();
    assert_eq!(dead.len(), run.state.dead_letters.len());
    for dl in run.state.dead_letters.records() {
        let p = provenance
            .find(&dl.domain, &consent_crawler::vantage_code(dl.vantage))
            .expect("dead letter without a provenance record");
        assert!(p.dead_lettered);
        assert_eq!(p.rank as usize, dl.rank);
        assert_eq!(p.attempts.len(), dl.attempts.len());
        assert_eq!(p.outcome, dl.outcome.name());
        assert_eq!(p.breaker_opened, dl.breaker_opened);
    }
    // No chaos profile ⇒ no recorded faults, and per-pair attempt counts
    // reconcile with the capture column.
    for (p, c) in provenance.records().iter().zip(captures.iter()) {
        assert_eq!(p.injected_faults().count(), 0);
        assert_eq!(p.attempts.len(), usize::from(c.attempts));
        assert_eq!(p.domain, c.domain);
    }

    // A reported experiment records onto the study, and a second report
    // only contains its own delta (snapshots isolate runs).
    let before_reports = study.reports().len();
    let _f9 = experiments::run_reported(&study, "fig9", || experiments::fig9::fig9(&study));
    let reports = study.reports();
    assert_eq!(reports.len(), before_reports + 1);
    let f9_report = reports.last().unwrap();
    assert_eq!(f9_report.name, "fig9");
    // fig9 is a dialog-interaction experiment: no captures are stored.
    assert_eq!(f9_report.captures_total(), 0);

    // Breaker-opened pairs belong to the run that opened them: a
    // campaign's count must not reappear in a later report.
    let _t1 = experiments::run_reported(&study, "table1", || experiments::table1::table1(&study));
    let _f6 = experiments::run_reported(&study, "fig6", || experiments::fig6::fig6(&study));
    let reports = study.reports();
    let [.., t1_report, f6_report] = reports.as_slice() else {
        unreachable!("two reports were just recorded")
    };
    let open_pairs = |r: &RunReport| r.delta.counter("campaign.breaker.open_pairs");
    assert!(open_pairs(t1_report) > 0, "table1 opened no breakers");
    assert_eq!(open_pairs(f6_report), 0);
    assert!(!f6_report.render().contains("Breaker-opened pairs"));

    // Instrumentation is observational only: a re-run of the same
    // pipeline yields byte-identical capture sets.
    let platform2 = Platform::new(
        study.world(),
        FeedConfig {
            urls_per_day: 150,
            ..FeedConfig::default()
        },
        study.seed().child("it-telemetry"),
    );
    consent_telemetry::disable();
    let (db2, stats2) = platform2.run(Day::from_ymd(2020, 5, 1), Day::from_ymd(2020, 5, 3));
    assert_eq!(stats2, stats);
    assert_eq!(db2.len(), db.len());
    let d1: Vec<&str> = db.iter().map(|(d, _)| d).collect();
    let d2: Vec<&str> = db2.iter().map(|(d, _)| d).collect();
    assert_eq!(d1, d2);
}

/// `Registry::reset` racing a live flight-recorder sampler: writers,
/// a resetter, and the sampler's background thread all hit the same
/// registry concurrently. Resets may drop in-window traffic (they wipe
/// it by design) but must never corrupt a sample — deltas saturate
/// instead of wrapping, exports stay parseable, and nothing panics.
///
/// Runs against a leaked *local* registry, not the process-global one,
/// so it can share this binary with the reconciliation test above.
#[test]
fn reset_racing_a_live_sampler_is_lossy_never_corrupt() {
    use consent_obs::{ObsConfig, Sampler};
    use consent_util::Json;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let registry: &'static Registry = Box::leak(Box::new(Registry::new()));
    let sampler = Sampler::attach(registry, ObsConfig::wall(Duration::from_micros(200)));
    let handle = sampler.start();

    let stop = Arc::new(AtomicBool::new(false));
    let written = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let written = Arc::clone(&written);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    registry.counter("race.counter").inc();
                    written.fetch_add(1, Ordering::Relaxed);
                    registry.histogram("race.lat").record(i % 89 + w);
                    registry.gauge("race.gauge").set(i as i64);
                    i += 1;
                }
            })
        })
        .collect();
    let resetter = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                registry.reset();
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    resetter.join().unwrap();
    handle.stop();

    assert!(!sampler.is_empty(), "sampler recorded nothing");
    let total_written = written.load(Ordering::Relaxed);
    let mut seen = 0u64;
    for line in sampler.export_jsonl().lines() {
        let j = Json::parse(line).expect("raced OBS line must stay parseable");
        let n = j
            .get("counters")
            .and_then(|c| c.get("race.counter"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        assert!(n <= total_written, "window delta wrapped: {n}");
        seen += n;
    }
    // Resets lose traffic; they never invent it.
    assert!(seen <= total_written, "{seen} > {total_written}");
    // The scrape endpoint stays serviceable mid-race (empty is fine if
    // the last reset won the race; malformed or panicking is not).
    let prom = sampler.prometheus();
    assert!(prom.is_empty() || prom.ends_with('\n'));
}
