//! Campaign bundles: packing a campaign into a content-addressed
//! archive and replaying analyses from the archive alone.
//!
//! `consent-bundle` provides the container (blobs, manifest, fsck);
//! this module decides *what* a campaign bundle contains and proves the
//! Hantke-et-al. reproducibility property: every `experiments::*`
//! export can be recomputed byte-for-byte from the bundle without
//! re-crawling ([`replay_campaign_bundle`]).
//!
//! # Sections
//!
//! | section         | documents                                        |
//! |-----------------|--------------------------------------------------|
//! | `config`        | `config` — day, seed, ranked domains, vantages   |
//! | `state`         | `meta`, `capture-db`, `dead-letters`, `provenance` (the exact checkpoint section bodies) |
//! | `trace`         | `trace-jsonl` — the causal trace export          |
//! | `observability` | `obs-jsonl`, `alerts-jsonl` when a sampler/watch ran |
//! | `gvl`           | `vendor-list` when a GVL snapshot was supplied   |
//! | `analysis`      | the live run's `experiments::*` exports (provider-supplied) |
//! | `artifacts`     | per-capture request/cookie logs (see below)      |
//!
//! # The content/dynamics split
//!
//! Raw request logs carry RNG-jittered *dynamics* — transfer sizes and
//! timings differ per `(url, day, vantage)` even when the page is
//! structurally unchanged. Archiving each log as one document would
//! make every blob unique and dedup worthless. Instead each capture
//! splits into a **skeleton** (`req/…`: URLs, hosts, statuses,
//! third-party flags) and a **dynamics** document (`req-dyn/…`: sizes
//! and start offsets); cookies split the same way (`cookies/…`
//! names/hosts vs `cookie-values/…` values). The payoff is in the
//! jitter-free capture classes: connection failures, HTTP-451 blocks,
//! and anti-bot interstitials produce byte-identical skeleton *and*
//! dynamics documents every time the same domain is hit — across
//! vantages and across days — and every cookieless capture shares one
//! empty cookie document. On a multi-day × multi-vantage workload those
//! classes collapse into single blobs, which is where the manifest's
//! dedup ratio comes from.

use std::io;
use std::path::Path;

use consent_bundle::{
    first_divergence, pack_verified, read_section, BundleDoc, BundleInput, DivergenceReport,
    Manifest, PackReport, SectionInput, VerifyReport,
};
use consent_httpsim::Capture;
use consent_util::{Day, SeedTree};

use crate::campaign::{CampaignResult, CampaignState, STATE_HEADER};
use crate::dead_letter::vantage_code;
use crate::export::{export as export_db, status_code};

/// First line of the bundle's `config` document.
pub const CONFIG_HEADER: &str = "#consent-bundle-config v1";

/// How many fsck-and-repair rounds a durable pack may take before
/// giving up on the disk.
pub const SCRUB_ROUNDS: u32 = 8;

/// The campaign identity a bundle carries: everything replay needs to
/// re-parameterize the analyses (and a future re-crawl) without the
/// original process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchiveContext {
    /// Campaign day.
    pub day: Day,
    /// Root seed of the campaign's [`SeedTree`].
    pub seed: u64,
    /// Crawled domains in toplist rank order (rank = index + 1) — the
    /// rank strata the market-share analysis is computed over.
    pub domains: Vec<String>,
    /// Vantage codes (see [`vantage_code`]) in campaign column order.
    pub vantages: Vec<String>,
}

impl ArchiveContext {
    /// Build from the arguments a campaign driver already has in hand.
    pub fn from_campaign(
        day: Day,
        domains: &[String],
        vantages: &[consent_httpsim::Vantage],
        seed: &SeedTree,
    ) -> ArchiveContext {
        ArchiveContext {
            day,
            seed: seed.seed(),
            domains: domains.to_vec(),
            vantages: vantages.iter().map(|v| vantage_code(*v)).collect(),
        }
    }

    /// Serialize as the `config` document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(CONFIG_HEADER);
        out.push('\n');
        out.push_str(&format!("day={}\n", self.day));
        out.push_str(&format!("seed={}\n", self.seed));
        for v in &self.vantages {
            out.push_str(&format!("vantage={v}\n"));
        }
        for d in &self.domains {
            out.push_str(&format!("domain={d}\n"));
        }
        out
    }

    /// Parse a `config` document (inverse of [`ArchiveContext::render`]).
    pub fn parse(text: &str) -> Result<ArchiveContext, String> {
        let mut lines = text.lines();
        if lines.next() != Some(CONFIG_HEADER) {
            return Err(format!("bad config header (want {CONFIG_HEADER:?})"));
        }
        let mut day = None;
        let mut seed = None;
        let mut domains = Vec::new();
        let mut vantages = Vec::new();
        for line in lines {
            if let Some(v) = line.strip_prefix("day=") {
                day = Some(v.parse::<Day>().map_err(|e| format!("bad day: {e:?}"))?);
            } else if let Some(v) = line.strip_prefix("seed=") {
                seed = Some(v.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?);
            } else if let Some(v) = line.strip_prefix("vantage=") {
                vantages.push(v.to_string());
            } else if let Some(v) = line.strip_prefix("domain=") {
                domains.push(v.to_string());
            } else {
                return Err(format!("unrecognized config line: {line:?}"));
            }
        }
        Ok(ArchiveContext {
            day: day.ok_or("config missing day")?,
            seed: seed.ok_or("config missing seed")?,
            domains,
            vantages,
        })
    }
}

/// The derived-exports provider: given the re-imported campaign state
/// and the bundle's context, produce `(label, document)` pairs for the
/// `analysis` section. Supplied by `consent-analysis` (the crawler
/// cannot depend on it — the dependency points the other way), wired
/// through here so pack and replay are guaranteed to run the *same*
/// code over the live and the re-imported state.
pub type ExportFn = dyn Fn(&CampaignState, &ArchiveContext) -> Vec<(String, String)> + Send + Sync;

/// The per-invocation artifacts that accompany the campaign state into
/// a bundle. All optional: a bundle of a bare state is still a valid
/// (and replayable) archive.
#[derive(Default)]
pub struct CampaignArtifacts<'a> {
    /// Full captures (request/cookie logs), one result per archived
    /// campaign day — each capture names its own day and vantage, so a
    /// multi-day bundle just appends results. On a resumed campaign the
    /// last incarnation's result covers its own pairs only — analyses
    /// replay from the complete capture-db regardless.
    pub results: Vec<&'a CampaignResult>,
    /// The global trace log's JSONL export.
    pub trace_jsonl: String,
    /// The flight-recorder `OBS` export.
    pub obs_jsonl: Option<String>,
    /// The watchdog `ALERTS` export.
    pub alerts_jsonl: Option<String>,
    /// A GVL snapshot (compact JSON).
    pub gvl_json: Option<String>,
}

fn capture_skeleton(c: &Capture) -> String {
    let mut out = String::from("#consent-requests v1\n");
    out.push_str(&format!(
        "status={} final={} dialog={}\n",
        status_code(c.status),
        c.final_url,
        u8::from(c.dialog_visible)
    ));
    for r in &c.requests {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            r.url,
            r.host,
            r.status,
            u8::from(r.third_party)
        ));
    }
    out
}

fn capture_dynamics(c: &Capture) -> String {
    let mut out = String::from("#consent-request-dynamics v1\n");
    for r in &c.requests {
        out.push_str(&format!("{}\t{}\n", r.bytes, r.started.as_millis()));
    }
    out
}

fn cookie_names(c: &Capture) -> String {
    let mut out = String::from("#consent-cookies v1\n");
    for k in &c.cookies {
        out.push_str(&format!(
            "{}\t{}\t{}\n",
            k.name,
            k.host,
            u8::from(k.third_party)
        ));
    }
    out
}

fn cookie_values(c: &Capture) -> String {
    let mut out = String::from("#consent-cookie-values v1\n");
    for k in &c.cookies {
        out.push_str(&format!("{}\n", k.value));
    }
    out
}

/// Build the full [`BundleInput`] for one campaign: context, checkpoint
/// section bodies, artifacts (content/dynamics split), and the
/// provider's analysis exports. Pure — the same state and artifacts
/// build the same input, which is what makes packs byte-comparable
/// across thread counts.
pub fn build_bundle_input(
    state: &CampaignState,
    ctx: &ArchiveContext,
    artifacts: &CampaignArtifacts<'_>,
    provider: Option<&ExportFn>,
) -> BundleInput {
    let mut sections = vec![
        SectionInput {
            name: "config".into(),
            docs: vec![BundleDoc::new("config", ctx.render())],
        },
        SectionInput {
            name: "state".into(),
            docs: vec![
                BundleDoc::new(
                    "meta",
                    format!("{STATE_HEADER}\npairs_done={}\n", state.pairs_done),
                ),
                BundleDoc::new("capture-db", export_db(&state.db)),
                BundleDoc::new("dead-letters", state.dead_letters.export()),
                BundleDoc::new("provenance", state.provenance.export()),
            ],
        },
        SectionInput {
            name: "trace".into(),
            docs: vec![BundleDoc::new("trace-jsonl", artifacts.trace_jsonl.clone())],
        },
    ];
    let mut obs_docs = Vec::new();
    if let Some(obs) = &artifacts.obs_jsonl {
        obs_docs.push(BundleDoc::new("obs-jsonl", obs.clone()));
    }
    if let Some(alerts) = &artifacts.alerts_jsonl {
        obs_docs.push(BundleDoc::new("alerts-jsonl", alerts.clone()));
    }
    if !obs_docs.is_empty() {
        sections.push(SectionInput {
            name: "observability".into(),
            docs: obs_docs,
        });
    }
    if let Some(gvl) = &artifacts.gvl_json {
        sections.push(SectionInput {
            name: "gvl".into(),
            docs: vec![BundleDoc::new("vendor-list", gvl.clone())],
        });
    }
    if let Some(provider) = provider {
        sections.push(SectionInput {
            name: "analysis".into(),
            docs: provider(state, ctx)
                .into_iter()
                .map(|(label, body)| BundleDoc::new(label, body))
                .collect(),
        });
    }
    if !artifacts.results.is_empty() {
        let mut docs = Vec::new();
        for result in &artifacts.results {
            for (_, captures) in &result.columns {
                for cc in captures {
                    let c = &cc.capture;
                    let at = format!("{}/{}/{}", c.day, vantage_code(c.vantage), cc.domain);
                    docs.push(BundleDoc::new(format!("req/{at}"), capture_skeleton(c)));
                    docs.push(BundleDoc::new(format!("req-dyn/{at}"), capture_dynamics(c)));
                    docs.push(BundleDoc::new(format!("cookies/{at}"), cookie_names(c)));
                    docs.push(BundleDoc::new(
                        format!("cookie-values/{at}"),
                        cookie_values(c),
                    ));
                }
            }
        }
        sections.push(SectionInput {
            name: "artifacts".into(),
            docs,
        });
    }
    BundleInput {
        meta: vec![
            ("day".into(), ctx.day.to_string()),
            ("seed".into(), ctx.seed.to_string()),
            ("pairs".into(), state.pairs_done.to_string()),
        ],
        sections,
    }
}

/// Pack a campaign into the bundle directory at `dir`, honoring
/// `CONSENT_IO_CHAOS`, with fsck-and-repair scrubbing
/// ([`pack_verified`]): the returned report's fsck is clean or the pack
/// failed.
pub fn pack_campaign_bundle(
    dir: &Path,
    state: &CampaignState,
    ctx: &ArchiveContext,
    artifacts: &CampaignArtifacts<'_>,
    provider: Option<&ExportFn>,
) -> io::Result<(PackReport, VerifyReport)> {
    let store = consent_bundle::open_chaos_bundle(dir)?;
    let input = build_bundle_input(state, ctx, artifacts, provider);
    pack_verified(&store, &input, SCRUB_ROUNDS)
}

/// What a replay proved (or disproved).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayReport {
    /// Pairs in the re-imported state.
    pub pairs: u64,
    /// Documents byte-compared (state re-exports + analysis exports).
    pub docs_compared: u64,
    /// The first divergence, if any. `None` is the reproducibility
    /// proof: every compared export is byte-identical.
    pub divergence: Option<DivergenceReport>,
}

impl ReplayReport {
    /// True when every compared document was byte-identical.
    pub fn ok(&self) -> bool {
        self.divergence.is_none()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        match &self.divergence {
            None => format!(
                "replay ok: {} pairs, {} documents byte-identical",
                self.pairs, self.docs_compared
            ),
            Some(d) => format!("replay FAILED: {d}"),
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Re-run the campaign analyses from the bundle alone and byte-compare
/// against the archived exports.
///
/// Steps: parse the manifest, re-import the `state` section through
/// [`CampaignState::import`] (the same importer checkpoint recovery
/// uses), re-*export* it and compare against the archived section
/// bodies (proving the state round-trips), then run `provider` over the
/// re-imported state and compare each produced document against the
/// archived `analysis` section. The first mismatch is returned as a
/// [`DivergenceReport`] naming section, document, and line.
pub fn replay_campaign_bundle(dir: &Path, provider: Option<&ExportFn>) -> io::Result<ReplayReport> {
    let _span = consent_telemetry::span("bundle.replay");
    let store = consent_bundle::open_chaos_bundle(dir)?;
    let text = store.read_manifest()?;
    let manifest = Manifest::parse(&text).map_err(|e| invalid(format!("bundle manifest: {e}")))?;

    let config_docs = read_section(&store, &manifest, "config")?;
    let config = config_docs
        .iter()
        .find(|d| d.label == "config")
        .ok_or_else(|| invalid("bundle has no config document".into()))?;
    let ctx =
        ArchiveContext::parse(&config.body).map_err(|e| invalid(format!("bundle config: {e}")))?;

    let state_docs = read_section(&store, &manifest, "state")?;
    let doc = |label: &str| -> io::Result<&str> {
        state_docs
            .iter()
            .find(|d| d.label == label)
            .map(|d| d.body.as_str())
            .ok_or_else(|| invalid(format!("bundle state section missing {label:?}")))
    };
    let archived = [
        ("meta", doc("meta")?),
        ("capture-db", doc("capture-db")?),
        ("dead-letters", doc("dead-letters")?),
        ("provenance", doc("provenance")?),
    ];
    let concatenated: String = archived.iter().map(|(_, body)| *body).collect();
    let state = CampaignState::import(&concatenated).map_err(|e| {
        invalid(format!(
            "bundle state unimportable: line {}: {}",
            e.line, e.message
        ))
    })?;

    let mut report = ReplayReport {
        pairs: state.pairs_done,
        docs_compared: 0,
        divergence: None,
    };
    // Round-trip proof: the re-imported state re-exports to the exact
    // archived section bodies.
    let reexported = [
        (
            "meta",
            format!("{STATE_HEADER}\npairs_done={}\n", state.pairs_done),
        ),
        ("capture-db", export_db(&state.db)),
        ("dead-letters", state.dead_letters.export()),
        ("provenance", state.provenance.export()),
    ];
    'compare: {
        for ((label, want), (_, got)) in archived.iter().zip(reexported.iter()) {
            report.docs_compared += 1;
            if let Some(d) = first_divergence("state", label, want, got) {
                report.divergence = Some(d);
                break 'compare;
            }
        }
        // Analysis proof: the provider over the re-imported state
        // reproduces the archived exports.
        if let Some(provider) = provider {
            let archived_docs = read_section(&store, &manifest, "analysis")?;
            let recomputed = provider(&state, &ctx);
            for doc in &archived_docs {
                report.docs_compared += 1;
                let Some((_, body)) = recomputed.iter().find(|(l, _)| *l == doc.label) else {
                    report.divergence = Some(DivergenceReport {
                        section: "analysis".into(),
                        label: doc.label.clone(),
                        line: 1,
                        expected: doc.body.lines().next().map(str::to_string),
                        actual: None,
                    });
                    break 'compare;
                };
                if let Some(d) = first_divergence("analysis", &doc.label, &doc.body, body) {
                    report.divergence = Some(d);
                    break 'compare;
                }
            }
            if let Some((label, body)) = recomputed
                .iter()
                .find(|(l, _)| !archived_docs.iter().any(|d| d.label == *l))
            {
                report.divergence = Some(DivergenceReport {
                    section: "analysis".into(),
                    label: label.clone(),
                    line: 1,
                    expected: None,
                    actual: body.lines().next().map(str::to_string),
                });
            }
        }
    }
    consent_telemetry::count("bundle.replayed", 1);
    if report.divergence.is_some() {
        consent_telemetry::count("bundle.replay.divergence", 1);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{build_toplist, run_campaign_with, CampaignConfig};
    use crate::resilience::{BreakerConfig, RetryPolicy};
    use consent_bundle::BlobStore;
    use consent_faultsim::FaultProfile;
    use consent_httpsim::Vantage;
    use consent_webgraph::{AdoptionConfig, World, WorldConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "consent-archive-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn quiet() -> CampaignConfig {
        CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        }
    }

    fn small_campaign() -> (CampaignState, CampaignResult, ArchiveContext) {
        let world = World::new(WorldConfig {
            n_sites: 400,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
        let list = build_toplist(&world, 8, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::us_cloud(), Vantage::eu_cloud()];
        let seed = SeedTree::new(9);
        let run = run_campaign_with(&world, &list, day, &vantages, seed, &quiet());
        let ctx = ArchiveContext::from_campaign(day, &list, &vantages, &seed);
        (run.state, run.result, ctx)
    }

    #[test]
    fn context_round_trips() {
        let (_, _, ctx) = small_campaign();
        let back = ArchiveContext::parse(&ctx.render()).unwrap();
        assert_eq!(back, ctx);
        assert_eq!(back.vantages, vec!["us-fast-enus", "eu-fast-enus"]);
        assert!(ArchiveContext::parse("#wrong\n").is_err());
        assert!(ArchiveContext::parse(CONFIG_HEADER).is_err(), "missing day");
    }

    #[test]
    fn artifact_split_dedups_across_days_and_vantages() {
        // A workload wide enough to include unreachable, 451-blocked,
        // and anti-bot domains — the capture classes whose request and
        // cookie documents are invariant across days and vantages and
        // therefore collapse into shared blobs.
        let world = World::new(WorldConfig {
            n_sites: 800,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
        let list = build_toplist(&world, 48, SeedTree::new(7));
        let vantages = [Vantage::us_cloud(), Vantage::eu_cloud()];
        let seed = SeedTree::new(9);
        let days = [Day::from_ymd(2020, 5, 15), Day::from_ymd(2020, 5, 16)];
        let runs: Vec<_> = days
            .iter()
            .map(|&day| run_campaign_with(&world, &list, day, &vantages, seed, &quiet()))
            .collect();
        let ctx = ArchiveContext::from_campaign(days[1], &list, &vantages, &seed);
        let artifacts = CampaignArtifacts {
            results: runs.iter().map(|r| &r.result).collect(),
            ..CampaignArtifacts::default()
        };
        let input = build_bundle_input(&runs[1].state, &ctx, &artifacts, None);
        let dir = tmp_dir();
        let store = BlobStore::open(&dir).unwrap();
        let report = consent_bundle::pack(&store, &input).unwrap();
        let stats = report.manifest.stats;
        assert!(
            stats.unique_blobs < stats.total_blobs,
            "repeated capture documents must share blobs: {stats:?}"
        );
        assert!(report.dedup_ratio() > 1.0, "{}", report.summary());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pack_then_replay_round_trips_state() {
        let (state, result, ctx) = small_campaign();
        let artifacts = CampaignArtifacts {
            results: vec![&result],
            trace_jsonl: String::new(),
            obs_jsonl: Some("{\"kind\":\"obs\"}\n".into()),
            alerts_jsonl: None,
            gvl_json: Some("{}".into()),
        };
        let dir = tmp_dir();
        let (pack, fsck) = pack_campaign_bundle(&dir, &state, &ctx, &artifacts, None).unwrap();
        assert!(fsck.clean(), "{}", fsck.render());
        assert!(pack.manifest.section("gvl").is_some());
        let replay = replay_campaign_bundle(&dir, None).unwrap();
        assert!(replay.ok(), "{}", replay.summary());
        assert_eq!(replay.pairs, state.pairs_done);
        assert_eq!(replay.docs_compared, 4, "four state documents");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_runs_the_provider_and_detects_divergence() {
        let (state, _, ctx) = small_campaign();
        // A deterministic stand-in provider (the real one lives in
        // consent-analysis, above this crate in the dependency DAG).
        let provider: Box<ExportFn> = Box::new(|state: &CampaignState, ctx: &ArchiveContext| {
            vec![(
                "summary".to_string(),
                format!(
                    "pairs={}\ndomains={}\n",
                    state.pairs_done,
                    ctx.domains.len()
                ),
            )]
        });
        let dir = tmp_dir();
        pack_campaign_bundle(
            &dir,
            &state,
            &ctx,
            &CampaignArtifacts::default(),
            Some(&*provider),
        )
        .unwrap();
        let replay = replay_campaign_bundle(&dir, Some(&*provider)).unwrap();
        assert!(replay.ok(), "{}", replay.summary());
        assert_eq!(replay.docs_compared, 5);

        // A drifted provider (simulating an analysis-code change) is
        // caught and localized.
        let drifted: Box<ExportFn> = Box::new(|state: &CampaignState, _| {
            vec![(
                "summary".to_string(),
                format!("pairs={}\ndomains=DRIFT\n", state.pairs_done),
            )]
        });
        let replay = replay_campaign_bundle(&dir, Some(&*drifted)).unwrap();
        let d = replay.divergence.expect("divergence detected");
        assert_eq!(
            (d.section.as_str(), d.label.as_str()),
            ("analysis", "summary")
        );
        assert_eq!(d.line, 2);
        assert!(d.expected.unwrap().starts_with("domains="));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_rejects_a_tampered_state_section() {
        let (state, _, ctx) = small_campaign();
        let dir = tmp_dir();
        pack_campaign_bundle(&dir, &state, &ctx, &CampaignArtifacts::default(), None).unwrap();
        // A state whose cursor lies fails the semantic import loudly.
        let store = BlobStore::open(&dir).unwrap();
        let manifest = Manifest::parse(&store.read_manifest().unwrap()).unwrap();
        let meta = &manifest.section("state").unwrap().blobs[0];
        assert_eq!(meta.label, "meta");
        // Rewrite the meta blob in place (bit-rot with a fixed-up CRC
        // is indistinguishable from an honest blob to the container, so
        // this models a *semantic* attack the import layer must catch).
        let forged = format!("{STATE_HEADER}\npairs_done=999\n");
        let addr = consent_bundle::BlobAddr::of(forged.as_bytes());
        store.put(forged.as_bytes()).unwrap();
        let mut m = manifest.clone();
        for s in &mut m.sections {
            for b in &mut s.blobs {
                if b.label == "meta" {
                    b.addr = addr;
                    b.len = forged.len() as u64;
                }
            }
        }
        m.compute_stats();
        store.write_manifest(&m.serialize()).unwrap();
        let err = replay_campaign_bundle(&dir, None).unwrap_err();
        assert!(err.to_string().contains("unimportable"), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
