//! Toplist crawl campaigns (the Table 1 methodology).
//!
//! §3.2: the Tranco 10k is converted to seed URLs (TLS-validated ladder,
//! three rounds over a week), then every URL is crawled six times — US
//! cloud, EU cloud, and the EU university with default timing, extended
//! timing, and two language variants — with unsuccessful captures retried
//! three times over a week. DOM snapshots are stored for the university
//! crawls.
//!
//! This module is also where the robustness layer comes together: every
//! capture runs through the [`FaultyEngine`] chaos wrapper, attempt
//! scheduling follows an explicit [`RetryPolicy`], permanent failures
//! short-circuit, a [`CircuitBreaker`]
//! stops hammering escalating anti-bot domains, abandoned pairs land in
//! the [`DeadLetterQueue`], and the whole campaign checkpoints into a
//! [`CampaignState`] that can be exported, re-imported, and resumed
//! without re-crawling completed `(domain, vantage)` pairs.
//!
//! Observability: each `(domain, vantage)` pair opens one
//! `consent_trace` trace (id from [`consent_trace::stable_id`], so
//! replays and resumes agree), with a child span per attempt and
//! instant events for injected faults, attempt outcomes, retry
//! decisions, breaker transitions, and dead-lettering. Independently of
//! tracing, every pair appends a [`Provenance`] record to the state's
//! [`ProvenanceLog`] — built unconditionally from the attempt history
//! and the pure fault plan, so checkpoints are byte-identical whether
//! tracing was on or off.

use crate::capture_db::{CaptureDb, CmpSet};
use crate::dead_letter::{vantage_code, AttemptRecord, DeadLetter, DeadLetterQueue};
use crate::export::{export as export_db, import as import_db, status_code, ImportError};
use crate::resilience::{BreakerConfig, CircuitBreaker, Outcome, RetryPolicy};
use consent_faultsim::{FaultProfile, FaultyEngine};
use consent_fingerprint::Detector;
use consent_httpsim::{split_url, CaptureOptions, CaptureStatus, Location, Vantage, WorldProber};
use consent_psl::PublicSuffixList;
use consent_toplist::{default_providers, resolve_all, AggregationRule, SeedUrl, Toplist};
use consent_trace::{stable_id, AttemptProvenance, Provenance, ProvenanceLog};
use consent_util::{Day, SeedTree};
use consent_webgraph::World;

/// One crawled toplist entry at one vantage.
#[derive(Clone, Debug)]
pub struct CampaignCapture {
    /// Tranco rank of the entry (1-based position in the aggregated list).
    pub rank: usize,
    /// Toplist domain.
    pub domain: String,
    /// The capture (retried per §3.2 if unsuccessful).
    pub capture: consent_httpsim::Capture,
    /// How many attempts were needed (1 = first try).
    pub attempts: u8,
    /// Classification of the final attempt.
    pub outcome: Outcome,
}

/// Results of a full campaign: one capture list per vantage column.
#[derive(Debug, Default)]
pub struct CampaignResult {
    /// `(vantage, captures)` in the same order as the input vantages.
    pub columns: Vec<(Vantage, Vec<CampaignCapture>)>,
    /// The resolved seed URLs, including speculative ones.
    pub seeds: Vec<SeedUrl>,
}

impl CampaignResult {
    /// The captures for one location/timing column, if present.
    pub fn column(&self, vantage: Vantage) -> Option<&[CampaignCapture]> {
        self.columns
            .iter()
            .find(|(v, _)| *v == vantage)
            .map(|(_, c)| c.as_slice())
    }

    /// Append another partial result's captures column-wise. Both halves
    /// must come from the same campaign (same seeds, same vantage order);
    /// since pairs are processed in a deterministic vantage-major order,
    /// concatenation reconstructs the uninterrupted result.
    pub fn merge(mut self, other: CampaignResult) -> CampaignResult {
        for (vantage, captures) in other.columns {
            match self.columns.iter_mut().find(|(v, _)| *v == vantage) {
                Some((_, mine)) => mine.extend(captures),
                None => self.columns.push((vantage, captures)),
            }
        }
        self
    }
}

/// How a campaign schedules, retries, and abandons captures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CampaignConfig {
    /// The chaos layer. [`FaultProfile::none`] (the default without
    /// `CONSENT_CHAOS` in the environment) is byte-identical to running
    /// the unwrapped engine.
    pub fault_profile: FaultProfile,
    /// Attempt schedule and retry classification (§3.2).
    pub retry: RetryPolicy,
    /// Anti-bot circuit breaker.
    pub breaker: BreakerConfig,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            fault_profile: FaultProfile::from_env(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// The checkpointable campaign state: everything a resumed run needs.
///
/// A campaign interrupted at any pair boundary round-trips through the
/// text checkpoint and resumes to the same bytes an uninterrupted run
/// produces:
///
/// ```
/// use consent_crawler::{
///     build_toplist, resume_campaign, run_campaign_with, CampaignConfig, CampaignState,
/// };
/// use consent_httpsim::Vantage;
/// use consent_util::{Day, SeedTree};
/// use consent_webgraph::{AdoptionConfig, World, WorldConfig};
///
/// let world = World::new(WorldConfig {
///     n_sites: 300,
///     seed: 42,
///     adoption: AdoptionConfig::default(),
/// });
/// let list = build_toplist(&world, 6, SeedTree::new(7));
/// let day = Day::from_ymd(2020, 5, 15);
/// let vantages = [Vantage::us_cloud()];
/// let config = CampaignConfig::default();
///
/// // Process three pairs, then "crash": only the checkpoint text survives.
/// let partial = resume_campaign(
///     &world, &list, day, &vantages, SeedTree::new(9),
///     &config, CampaignState::new(), Some(3),
/// );
/// assert!(!partial.complete);
/// let checkpoint = partial.state.export();
///
/// // A fresh process imports the checkpoint and runs to completion.
/// let restored = CampaignState::import(&checkpoint).unwrap();
/// let resumed = resume_campaign(
///     &world, &list, day, &vantages, SeedTree::new(9), &config, restored, None,
/// );
/// assert!(resumed.complete);
///
/// // Same bytes as never having been interrupted.
/// let full = run_campaign_with(&world, &list, day, &vantages, SeedTree::new(9), &config);
/// assert_eq!(resumed.state.export(), full.state.export());
/// ```
#[derive(Debug, Default)]
pub struct CampaignState {
    /// Capture summaries, one per processed `(domain, vantage)` pair.
    pub db: CaptureDb,
    /// Pairs abandoned without a usable capture.
    pub dead_letters: DeadLetterQueue,
    /// One acquisition record per processed pair, in processing order —
    /// the audit trail joining every [`CaptureDb`] row back to its
    /// attempt history, injected faults, and trace id.
    pub provenance: ProvenanceLog,
    /// Cursor into the deterministic vantage-major, rank-minor pair
    /// order: the number of pairs already processed. Each processed pair
    /// inserts exactly one [`CaptureDb`] row and one [`ProvenanceLog`]
    /// record, so `pairs_done` always equals [`CaptureDb::len`].
    pub pairs_done: u64,
}

pub(crate) const STATE_HEADER: &str = "#consent-campaign-state v3";

impl CampaignState {
    /// Fresh state (nothing crawled).
    pub fn new() -> CampaignState {
        CampaignState::default()
    }

    /// Serialize the checkpoint: a cursor line, then the capture-db,
    /// dead-letter, and provenance sections (each with its own header).
    pub fn export(&self) -> String {
        format!(
            "{STATE_HEADER}\npairs_done={}\n{}{}{}",
            self.pairs_done,
            export_db(&self.db),
            self.dead_letters.export(),
            self.provenance.export(),
        )
    }

    /// Parse a checkpoint produced by [`export`](Self::export).
    pub fn import(text: &str) -> Result<CampaignState, ImportError> {
        let mut lines = text.lines();
        let bad = |line: usize, message: String| ImportError { line, message };
        match lines.next() {
            Some(STATE_HEADER) => {}
            other => {
                return Err(bad(0, format!("unsupported state header {other:?}")));
            }
        }
        let pairs_done: u64 = lines
            .next()
            .and_then(|l| l.strip_prefix("pairs_done="))
            .ok_or_else(|| bad(2, "missing pairs_done line".into()))?
            .parse()
            .map_err(|e| bad(2, format!("bad pairs_done: {e}")))?;
        let rest: Vec<&str> = lines.collect();
        let split = rest
            .iter()
            .position(|l| l.starts_with("#consent-dead-letters"))
            .ok_or_else(|| bad(2 + rest.len(), "missing dead-letter section".into()))?;
        let prov_split = rest
            .iter()
            .position(|l| l.starts_with("#consent-provenance"))
            .ok_or_else(|| bad(2 + rest.len(), "missing provenance section".into()))?;
        if prov_split < split {
            return Err(bad(
                3 + prov_split,
                "provenance section before dead letters".into(),
            ));
        }
        // Section importers report line numbers relative to their own
        // header (0 for header problems, N for the section's Nth line).
        // Offset them so an `ImportError` names the offending line of
        // the *whole* checkpoint, which is what a human debugging a
        // corrupt file greps for. rest[0] is global line 3.
        let offset = |base: usize, local: usize| {
            if local == 0 {
                base
            } else {
                base + local - 1
            }
        };
        let db_text = rest[..split].join("\n");
        let dl_text = rest[split..prov_split].join("\n");
        let prov_text = rest[prov_split..].join("\n");
        let db = import_db(&db_text).map_err(|e| {
            bad(
                offset(3, e.line),
                format!("capture-db section: {}", e.message),
            )
        })?;
        let dead_letters = DeadLetterQueue::import(&dl_text).map_err(|e| {
            bad(
                offset(3 + split, e.line),
                format!("dead-letter section: {}", e.message),
            )
        })?;
        let provenance = ProvenanceLog::import(&prov_text).map_err(|e| {
            bad(
                offset(3 + prov_split, e.line),
                format!("provenance section: {}", e.message),
            )
        })?;
        let state = CampaignState {
            db,
            dead_letters,
            provenance,
            pairs_done,
        };
        if state.pairs_done != state.db.len() {
            return Err(bad(
                2,
                format!(
                    "cursor {} disagrees with {} stored captures",
                    state.pairs_done,
                    state.db.len()
                ),
            ));
        }
        if state.provenance.len() as u64 != state.pairs_done {
            return Err(bad(
                2,
                format!(
                    "cursor {} disagrees with {} provenance records",
                    state.pairs_done,
                    state.provenance.len()
                ),
            ));
        }
        Ok(state)
    }
}

/// A (possibly partial) campaign run: the in-memory result of the pairs
/// processed by this invocation plus the cumulative checkpoint state.
pub struct CampaignRun {
    /// Captures processed by this invocation only. After a resume,
    /// [`CampaignResult::merge`] the halves to reconstruct the whole.
    pub result: CampaignResult,
    /// Cumulative state across this and any prior resumed-from runs.
    pub state: CampaignState,
    /// True once every `(domain, vantage)` pair has been processed.
    pub complete: bool,
}

/// Build the study's Tranco-style toplist over the synthetic world:
/// four noisy provider observations of the ground-truth ranking,
/// aggregated with the Dowdall rule, truncated to `n`.
pub fn build_toplist(world: &World, n: usize, seed: SeedTree) -> Vec<String> {
    // Providers observe slightly more of the world than we keep, so
    // entries can fall in and out across the cut like in real lists.
    let m = ((n as f64 * 1.2) as u32).min(world.n_sites());
    let ground_truth: Vec<String> = (1..=m).map(|r| world.profile(r).domain.clone()).collect();
    let providers = default_providers(&ground_truth, seed.child("providers"));
    let toplist = Toplist::aggregate(&providers, AggregationRule::Dowdall);
    toplist.top(n).map(str::to_owned).collect()
}

/// Run a toplist campaign on `day` for the given vantage columns with
/// the default [`CampaignConfig`] (chaos profile from `CONSENT_CHAOS`,
/// §3.2 retries, anti-bot breaker).
pub fn run_campaign(
    world: &World,
    domains: &[String],
    day: Day,
    vantages: &[Vantage],
    seed: SeedTree,
) -> CampaignResult {
    run_campaign_with(
        world,
        domains,
        day,
        vantages,
        seed,
        &CampaignConfig::default(),
    )
    .result
}

/// Run a full campaign under an explicit config.
pub fn run_campaign_with(
    world: &World,
    domains: &[String],
    day: Day,
    vantages: &[Vantage],
    seed: SeedTree,
    config: &CampaignConfig,
) -> CampaignRun {
    resume_campaign(
        world,
        domains,
        day,
        vantages,
        seed,
        config,
        CampaignState::new(),
        None,
    )
}

/// Run (or continue) a campaign from a checkpoint.
///
/// Pairs are processed in a deterministic vantage-major, rank-minor
/// order; the first `state.pairs_done` pairs are skipped without
/// re-crawling. `max_pairs` caps how many pairs this invocation
/// processes (useful for incremental checkpointing); `None` runs to
/// completion. Because every random draw is keyed by `(host, day,
/// vantage, attempt)` rather than by call order, an interrupted and
/// resumed campaign is indistinguishable from an uninterrupted one.
#[allow(clippy::too_many_arguments)]
pub fn resume_campaign(
    world: &World,
    domains: &[String],
    day: Day,
    vantages: &[Vantage],
    seed: SeedTree,
    config: &CampaignConfig,
    mut state: CampaignState,
    max_pairs: Option<u64>,
) -> CampaignRun {
    let _span = consent_telemetry::span("campaign.run");
    let engine = FaultyEngine::from_world(world, config.fault_profile, seed);
    let prober = WorldProber::new(world, seed.child("prober"));
    // Three resolution rounds over a week (§3.2). Resolution is a pure
    // function of the seed, so a resumed run re-derives identical URLs.
    let attempt_days = [day - 7, day - 4, day - 1];
    let seeds = resolve_all(domains.iter().cloned(), &prober, &attempt_days);
    let schedule = config.retry.schedule(day);
    let detector = Detector::hostname_only();
    let psl = PublicSuffixList::embedded();

    let total_pairs = (vantages.len() * seeds.len()) as u64;
    let budget = max_pairs.unwrap_or(u64::MAX);
    let mut processed = 0u64;
    let mut skipped = 0u64;
    let mut pair_index = 0u64;
    let mut columns: Vec<(Vantage, Vec<CampaignCapture>)> =
        vantages.iter().map(|&v| (v, Vec::new())).collect();
    'all: for (col, &vantage) in vantages.iter().enumerate() {
        for (i, s) in seeds.iter().enumerate() {
            if pair_index < state.pairs_done {
                pair_index += 1;
                skipped += 1;
                continue;
            }
            if processed >= budget {
                break 'all;
            }
            pair_index += 1;
            processed += 1;
            let out = process_pair_contained(
                &engine,
                s,
                i + 1,
                col,
                vantage,
                day,
                &schedule,
                config,
                &detector,
            );
            apply_pair(&mut state, &mut columns, day, out, &psl);
        }
    }
    consent_telemetry::count("campaign.pairs_skipped", skipped);
    let complete = state.pairs_done == total_pairs;
    CampaignRun {
        result: CampaignResult { columns, seeds },
        state,
        complete,
    }
}

/// Everything one processed `(domain, vantage)` pair contributes to the
/// campaign, produced by [`process_pair`] and folded into the cumulative
/// state by [`apply_pair`].
///
/// The split is what makes the parallel executor
/// ([`run_campaign_parallel`](crate::parallel::run_campaign_parallel))
/// deterministic: production is a pure function of the pair identity
/// (every random draw is keyed by `(host, day, vantage, attempt)` and
/// trace ids come from [`stable_id`]), so any number of workers can
/// produce outputs in any order, and the order-restoring merge applies
/// them in pair order — reproducing the sequential run byte for byte.
#[derive(Clone, Debug)]
pub(crate) struct PairOutput {
    /// Index into the campaign's vantage columns.
    pub(crate) col: usize,
    /// 1-based toplist rank.
    pub(crate) rank: usize,
    pub(crate) domain: String,
    pub(crate) vcode: String,
    pub(crate) trace_id: u64,
    pub(crate) capture: consent_httpsim::Capture,
    pub(crate) history: Vec<AttemptRecord>,
    /// Injected fault per attempt, re-derived from the pure plan.
    pub(crate) faults: Vec<Option<String>>,
    pub(crate) outcome: Outcome,
    pub(crate) breaker_opened: bool,
    /// CMPs detected on the final capture.
    pub(crate) cmps: CmpSet,
}

/// Crawl one `(domain, vantage)` pair: open its trace, walk the retry
/// schedule through the fault-injecting engine with a per-pair circuit
/// breaker, run CMP detection, and return everything the merge step
/// needs. Thread-safe: touches only shared immutable inputs, the
/// per-thread trace context, and the commutative telemetry registry.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_pair(
    engine: &FaultyEngine<'_>,
    s: &SeedUrl,
    rank: usize,
    col: usize,
    vantage: Vantage,
    day: Day,
    schedule: &[Day],
    config: &CampaignConfig,
    detector: &Detector,
) -> PairOutput {
    let _pair_span = consent_telemetry::span("campaign.pair");
    let collect_dom = vantage.location == Location::EuUniversity;
    // One trace per pair. The id is a pure function of the pair
    // identity, so a resumed replay assigns the same ids an
    // uninterrupted one would.
    let vcode = vantage_code(vantage);
    let trace_id = stable_id(&["pair", &s.domain, &vcode, &day.to_string()]);
    let _trace = consent_trace::start_trace("pair", trace_id, |a| {
        a.push("domain", s.domain.clone());
        a.push("rank", rank.to_string());
        a.push("vantage", vcode.clone());
        a.push("day", day.to_string());
    });
    let (host, _) = split_url(&s.url);

    let mut breaker = CircuitBreaker::new(config.breaker);
    let mut history = Vec::new();
    let mut faults: Vec<Option<String>> = Vec::new();
    let mut capture = None;
    let mut outcome = Outcome::Permanent;
    let mut breaker_opened = false;
    for (attempt, &attempt_day) in schedule.iter().enumerate() {
        let attempt_no = attempt as u8 + 1;
        let _span = consent_trace::span("attempt", |a| {
            a.push("attempt", attempt_no.to_string());
            a.push("day", attempt_day.to_string());
        });
        let c = engine.capture_attempt(
            &s.url,
            attempt_day,
            vantage,
            CaptureOptions { collect_dom },
            attempt_no,
        );
        outcome = Outcome::classify(c.status);
        breaker_opened = breaker.record(c.status);
        consent_trace::event("attempt.outcome", |a| {
            a.push("status", status_code(c.status));
            a.push("outcome", outcome.name());
        });
        history.push(AttemptRecord {
            day: attempt_day,
            status: c.status,
        });
        // Re-derive the decided fault from the pure plan so the
        // provenance record is identical with tracing on or off
        // (and matches the in-trace `fault.injected` event).
        faults.push(
            engine
                .plan()
                .decide(&host, attempt_day, vantage, attempt_no)
                .map(|f| f.name().to_string()),
        );
        capture = Some(c);
        if breaker_opened {
            consent_telemetry::count("campaign.breaker.open", 1);
            consent_telemetry::count("campaign.breaker.open_pairs", 1);
            consent_trace::event("breaker.open", |a| {
                a.push("attempt", attempt_no.to_string());
            });
            break;
        }
        let retry = config.retry.should_retry(outcome);
        consent_trace::event("retry.decision", |a| {
            a.push("retry", if retry { "yes" } else { "no" });
            a.push("outcome", outcome.name());
        });
        if !retry {
            break;
        }
    }
    let capture = capture.expect("schedule has at least one attempt");
    // Detection runs here — on the worker, while the pair's trace is
    // still open — so its trace events land inside the pair trace with
    // the same sequence numbers the sequential runner assigns.
    let cmps = CmpSet::from_iter(detector.detect(&capture));
    if !capture.usable() {
        consent_trace::event("dead_letter", |a| {
            a.push("outcome", outcome.name());
            a.push("attempts", history.len().to_string());
        });
    }
    PairOutput {
        col,
        rank,
        domain: s.domain.clone(),
        vcode,
        trace_id,
        capture,
        history,
        faults,
        outcome,
        breaker_opened,
        cmps,
    }
}

/// [`process_pair`] with panic containment: a panic anywhere inside the
/// capture path (an injected [`Fault::Panic`](consent_faultsim::Fault),
/// or a genuine bug) unwinds to here and becomes a classified
/// [`Outcome::Panic`] output instead of poisoning the executor — the
/// sequential loop survives, and a parallel worker thread keeps draining
/// pairs. The synthetic output is a pure function of the pair identity,
/// so exports stay byte-identical at any thread count, and its capture
/// is unusable, so [`apply_pair`] dead-letters the pair with provenance
/// like any other abandoned pair.
///
/// Both executors route every pair through this wrapper.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_pair_contained(
    engine: &FaultyEngine<'_>,
    s: &SeedUrl,
    rank: usize,
    col: usize,
    vantage: Vantage,
    day: Day,
    schedule: &[Day],
    config: &CampaignConfig,
    detector: &Detector,
) -> PairOutput {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        process_pair(
            engine, s, rank, col, vantage, day, schedule, config, detector,
        )
    }));
    let payload = match attempt {
        Ok(out) => return out,
        Err(payload) => payload,
    };
    // The unwind already closed the pair's own trace (armed guards emit
    // their End events during the unwind), so the containment marker
    // goes in a sibling trace keyed by the same pair identity — reusing
    // the pair's trace id would restart its sequence numbers.
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
        .to_string();
    consent_telemetry::count("campaign.panic", 1);
    let vcode = vantage_code(vantage);
    let panic_trace = stable_id(&["pair.panic", &s.domain, &vcode, &day.to_string()]);
    {
        let _t = consent_trace::start_trace("pair.panic", panic_trace, |a| {
            a.push("domain", s.domain.clone());
            a.push("vantage", vcode.clone());
            a.push("day", day.to_string());
            a.push("message", message.clone());
        });
    }
    let (host, _) = split_url(&s.url);
    // One synthetic connection-failed attempt on the first scheduled
    // day: the real history died with the stack, but downstream
    // invariants (≥1 attempt per pair, `pairs_done == db.len()`,
    // unusable ⇒ dead-lettered) must hold regardless.
    let first_day = schedule.first().copied().unwrap_or(day);
    let capture = consent_httpsim::Capture {
        seed_url: s.url.clone(),
        final_url: s.url.clone(),
        final_host: host,
        day: first_day,
        vantage,
        status: CaptureStatus::ConnectionFailed,
        requests: Vec::new(),
        cookies: Vec::new(),
        dialog_visible: false,
        dom: None,
    };
    let trace_id = stable_id(&["pair", &s.domain, &vcode, &day.to_string()]);
    PairOutput {
        col,
        rank,
        domain: s.domain.clone(),
        vcode,
        trace_id,
        capture,
        history: vec![AttemptRecord {
            day: first_day,
            status: CaptureStatus::ConnectionFailed,
        }],
        faults: vec![Some("panic".to_string())],
        outcome: Outcome::Panic,
        breaker_opened: false,
        cmps: CmpSet::empty(),
    }
}

/// Fold one [`PairOutput`] into the cumulative campaign state and the
/// per-vantage result columns. Single-threaded by construction: the
/// sequential runner calls it right after [`process_pair`], the parallel
/// runner calls it from the merge loop in ascending pair order, so the
/// [`CaptureDb`] insertion order — and with it the checkpoint export —
/// is identical on both paths.
pub(crate) fn apply_pair(
    state: &mut CampaignState,
    columns: &mut [(Vantage, Vec<CampaignCapture>)],
    day: Day,
    out: PairOutput,
    psl: &PublicSuffixList,
) {
    let PairOutput {
        col,
        rank,
        domain,
        vcode,
        trace_id,
        capture,
        history,
        faults,
        outcome,
        breaker_opened,
        cmps,
    } = out;
    let attempts = history.len() as u8;
    if consent_telemetry::enabled() {
        consent_telemetry::observe("campaign.attempts", u64::from(attempts));
        consent_telemetry::count("campaign.retries", u64::from(attempts).saturating_sub(1));
        consent_telemetry::count_labeled("campaign.outcome", &[("outcome", outcome.name())], 1);
    }
    state.db.ingest(&capture, cmps, psl);
    state.pairs_done += 1;
    let dead_lettered = !capture.usable();
    state.provenance.push(Provenance {
        domain: domain.clone(),
        rank: rank as u64,
        vantage: vcode,
        day: day.to_string(),
        trace_id,
        attempts: history
            .iter()
            .zip(&faults)
            .map(|(a, fault)| AttemptProvenance {
                day: a.day.to_string(),
                status: status_code(a.status).to_string(),
                fault: fault.clone(),
            })
            .collect(),
        outcome: outcome.name().to_string(),
        final_status: status_code(capture.status).to_string(),
        breaker_opened,
        dead_lettered,
    });
    if dead_lettered {
        state.dead_letters.push(DeadLetter {
            domain: domain.clone(),
            rank,
            vantage: columns[col].0,
            attempts: history,
            outcome,
            breaker_opened,
        });
    }
    columns[col].1.push(CampaignCapture {
        rank,
        domain,
        capture,
        attempts,
        outcome,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_httpsim::Timing;
    use consent_webgraph::{AdoptionConfig, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            n_sites: 5_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    fn quiet() -> CampaignConfig {
        CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        }
    }

    #[test]
    fn toplist_roughly_tracks_ground_truth() {
        let w = world();
        let list = build_toplist(&w, 1_000, SeedTree::new(7));
        assert_eq!(list.len(), 1_000);
        // The true top 20 should mostly make the aggregated top 60.
        let head: Vec<&String> = list.iter().take(60).collect();
        let mut recovered = 0;
        for rank in 1..=20u32 {
            let d = w.profile(rank).domain.clone();
            if head.contains(&&d) {
                recovered += 1;
            }
        }
        assert!(recovered >= 14, "recovered {recovered}/20");
        // No duplicates.
        let mut dedup = list.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 1_000);
    }

    #[test]
    fn campaign_covers_all_columns() {
        let w = world();
        let list = build_toplist(&w, 150, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = Vantage::table1_columns();
        let run = run_campaign_with(&w, &list, day, &vantages, SeedTree::new(9), &quiet());
        let result = run.result;
        assert!(run.complete);
        assert_eq!(run.state.pairs_done, 6 * 150);
        assert_eq!(run.state.db.len(), 6 * 150);
        assert_eq!(run.state.provenance.len(), 6 * 150);
        // Under FaultProfile::none no attempt carries an injected fault.
        for p in run.state.provenance.records() {
            assert!(p.injected_faults().next().is_none(), "{}", p.domain);
            assert_eq!(
                p.dead_lettered,
                run.state
                    .dead_letters
                    .records()
                    .iter()
                    .any(|dl| dl.domain == p.domain && vantage_code(dl.vantage) == p.vantage),
            );
        }
        assert_eq!(result.columns.len(), 6);
        assert_eq!(result.seeds.len(), 150);
        for (_, captures) in &result.columns {
            assert_eq!(captures.len(), 150);
        }
        // University columns carry DOM; cloud columns don't.
        let uni = result.column(vantages[3]).unwrap();
        let usable_with_dom = uni
            .iter()
            .filter(|c| c.capture.usable() && c.capture.dom.is_some())
            .count();
        assert!(usable_with_dom > 100);
        let cloud = result.column(vantages[0]).unwrap();
        assert!(cloud.iter().all(|c| c.capture.dom.is_none()));
    }

    #[test]
    fn eu_university_sees_at_least_as_many_cmps_as_us_cloud() {
        let w = world();
        let list = build_toplist(&w, 400, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = Vantage::table1_columns();
        let result = run_campaign(&w, &list, day, &vantages, SeedTree::new(9));
        let det = consent_fingerprint::Detector::hostname_only();
        let count = |vantage: Vantage| {
            result
                .column(vantage)
                .unwrap()
                .iter()
                .filter(|c| !det.detect(&c.capture).is_empty())
                .count()
        };
        let us = count(vantages[0]);
        let eu_cloud = count(vantages[1]);
        let uni_ext = count(vantages[3]);
        assert!(us <= eu_cloud, "us {us} > eu cloud {eu_cloud}");
        assert!(eu_cloud <= uni_ext, "eu cloud {eu_cloud} > uni {uni_ext}");
        assert!(uni_ext > 0);
    }

    #[test]
    fn retries_bounded_and_permanent_failures_short_circuit() {
        let w = world();
        let list = build_toplist(&w, 100, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let run = run_campaign_with(
            &w,
            &list,
            day,
            &[Vantage {
                location: Location::EuUniversity,
                timing: Timing::Extended,
                language: consent_httpsim::Language::EnUs,
            }],
            SeedTree::new(9),
            &quiet(),
        );
        for c in run.result.column(run.result.columns[0].0).unwrap() {
            assert!((1..=4).contains(&c.attempts));
            if c.outcome == Outcome::Permanent {
                // The §3.2 schedule is for *transient* failures; a 451
                // geo-block or dead host must not burn retry budget.
                assert_eq!(c.attempts, 1, "{} retried a permanent failure", c.domain);
                assert_eq!(c.capture.day, day);
            }
            if c.outcome == Outcome::Success && c.attempts == 1 {
                assert_eq!(c.capture.day, day);
            }
        }
    }

    #[test]
    fn legally_blocked_eu_sites_are_dead_lettered_once() {
        let w = world();
        let list = build_toplist(&w, 300, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let run = run_campaign_with(
            &w,
            &list,
            day,
            &[Vantage::eu_cloud()],
            SeedTree::new(9),
            &quiet(),
        );
        let blocked: Vec<&DeadLetter> = run
            .state
            .dead_letters
            .records()
            .iter()
            .filter(|r| {
                r.attempts
                    .iter()
                    .any(|a| a.status == CaptureStatus::LegallyBlocked)
            })
            .collect();
        assert!(!blocked.is_empty(), "no 451 sites in a 300-domain EU crawl");
        for dl in blocked {
            assert_eq!(dl.outcome, Outcome::Permanent);
            assert_eq!(dl.attempts.len(), 1, "{} retried", dl.domain);
            assert!(!dl.breaker_opened);
        }
    }

    #[test]
    fn state_roundtrips_through_export() {
        let w = world();
        let list = build_toplist(&w, 80, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let run = run_campaign_with(
            &w,
            &list,
            day,
            &[Vantage::us_cloud(), Vantage::eu_cloud()],
            SeedTree::new(9),
            &quiet(),
        );
        let text = run.state.export();
        let back = CampaignState::import(&text).unwrap();
        assert_eq!(back.pairs_done, run.state.pairs_done);
        assert_eq!(back.db.len(), run.state.db.len());
        assert_eq!(back.dead_letters, run.state.dead_letters);
        assert_eq!(back.provenance, run.state.provenance);
        assert_eq!(back.export(), text);
        // Every db row has a provenance record and vice versa.
        assert_eq!(back.provenance.len() as u64, back.db.len());
    }

    #[test]
    fn state_import_rejects_corruption() {
        assert!(CampaignState::import("").is_err());
        assert!(CampaignState::import("#wrong\n").is_err());
        // v1 checkpoints (no provenance section) are not importable.
        assert!(CampaignState::import(
            "#consent-campaign-state v1\npairs_done=0\n#consent-capture-db v2\n#consent-dead-letters v1\n"
        )
        .is_err());
        assert!(CampaignState::import(STATE_HEADER).is_err());
        let no_dl = format!("{STATE_HEADER}\npairs_done=0\n#consent-capture-db v2\n");
        assert!(CampaignState::import(&no_dl).is_err());
        let no_prov = format!(
            "{STATE_HEADER}\npairs_done=0\n#consent-capture-db v2\n#consent-dead-letters v2\n"
        );
        assert!(CampaignState::import(&no_prov).is_err());
        // Sections out of order are corruption.
        let swapped = format!(
            "{STATE_HEADER}\npairs_done=0\n#consent-capture-db v2\n#consent-provenance v1\n#consent-dead-letters v2\n"
        );
        assert!(CampaignState::import(&swapped).is_err());
        // A cursor that disagrees with the stored rows is corruption.
        let bad_cursor = format!(
            "{STATE_HEADER}\npairs_done=5\n#consent-capture-db v2\n#consent-dead-letters v2\n#consent-provenance v1\n"
        );
        assert!(CampaignState::import(&bad_cursor).is_err());
        // v2 state checkpoints (unescaped dead-letter section) are a
        // different format and must not be silently reinterpreted.
        assert!(CampaignState::import(
            "#consent-campaign-state v2\npairs_done=0\n#consent-capture-db v2\n#consent-dead-letters v1\n#consent-provenance v1\n"
        )
        .is_err());
        // A provenance section shorter than the cursor is corruption
        // even when the capture-db agrees.
        let run = {
            let w = world();
            let list = build_toplist(&w, 3, SeedTree::new(7));
            run_campaign_with(
                &w,
                &list,
                Day::from_ymd(2020, 5, 15),
                &[Vantage::us_cloud()],
                SeedTree::new(9),
                &quiet(),
            )
        };
        let text = run.state.export();
        let prov_header = "#consent-provenance v1\n";
        let pos = text.find(prov_header).unwrap();
        let truncated = format!("{}{}", &text[..pos], prov_header);
        assert!(CampaignState::import(&truncated).is_err());
        let empty = CampaignState::new().export();
        assert_eq!(CampaignState::import(&empty).unwrap().pairs_done, 0);
    }

    #[test]
    fn state_import_reports_whole_file_line_numbers() {
        // Layout: line 1 state header, 2 pairs_done, 3 db header,
        // 4 dl header, 5 prov header. A garbage row injected into a
        // section must be reported at its line number in the whole
        // checkpoint, not relative to the section header.
        let garbage_in = |section: &str| -> String {
            let mut lines = vec![
                STATE_HEADER.to_string(),
                "pairs_done=0".into(),
                "#consent-capture-db v2".into(),
                "#consent-dead-letters v2".into(),
                "#consent-provenance v1".into(),
            ];
            let at = match section {
                "db" => 3,
                "dl" => 4,
                _ => 5,
            };
            lines.insert(at, "garbage row".into());
            lines.join("\n") + "\n"
        };
        for (section, want_line, want_msg) in [
            ("db", 4, "capture-db section"),
            ("dl", 5, "dead-letter section"),
            ("prov", 6, "provenance section"),
        ] {
            let e = CampaignState::import(&garbage_in(section)).unwrap_err();
            assert_eq!(e.line, want_line, "{section}: {}", e.message);
            assert!(e.message.contains(want_msg), "{section}: {}", e.message);
        }
        // Missing sections point past the end of what's there.
        let e = CampaignState::import(&format!(
            "{STATE_HEADER}\npairs_done=0\n#consent-capture-db v2\n"
        ))
        .unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("missing dead-letter section"));
    }
}
