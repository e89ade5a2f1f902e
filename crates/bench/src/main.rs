//! The `BENCH_*.json` entry point and trajectory tooling.
//!
//! ```text
//! cargo run -p consent-bench --release
//! cargo run -p consent-bench --release -- bundle
//! cargo run -p consent-bench --release -- soak
//! cargo run -p consent-bench --release -- diff OLD.json NEW.json \
//!     [--threshold PCT] [--threshold-p95 PCT]
//! ```
//!
//! The default invocation runs the campaign, checkpoint, obs, watch and
//! bundle sweeps, prints a table per sweep and writes
//! `BENCH_campaign.json`, `BENCH_checkpoint.json`, `BENCH_obs.json`,
//! `BENCH_watch.json` and `BENCH_bundle.json` (schema in
//! `BENCHMARKS.md`). `bundle` runs only the bundle sweep, so CI's
//! pack / verify / replay gate doesn't pay for the campaign sweeps;
//! `soak` runs only the storage-fault soak sweep (`BENCH_soak.json`).
//!
//! `diff` compares two trajectory points record-by-record and exits
//! non-zero when any record's pairs/sec regressed by more than the
//! throughput threshold (default 10%) **or** its p95 latency grew by
//! more than the p95 threshold (default 25% — deliberately looser, tail
//! latency on shared runners is noisier). CI uses looser gates still to
//! absorb shared-runner noise.
//!
//! Environment knobs (all optional):
//!
//! * `BENCH_SITES`, `BENCH_DOMAINS` — world size and toplist length of
//!   the campaign, obs and watch sweeps (default 4000 and 600)
//! * `BENCH_THREADS` — the campaign sweep's thread counts, e.g. `1,2,4,8`
//!   (default)
//! * `BENCH_REPEATS` — timed repeats of the campaign, obs, watch and
//!   bundle sweeps (default 5)
//! * `BENCH_OUT`, `BENCH_CHECKPOINT_OUT`, `BENCH_OBS_OUT`,
//!   `BENCH_WATCH_OUT`, `BENCH_BUNDLE_OUT`, `BENCH_SOAK_OUT` — output
//!   paths (default `BENCH_campaign.json`, `BENCH_checkpoint.json`, …)
//! * `BENCH_BUNDLE_DIR` — keep the verify/replay bundle at this path
//!   instead of a deleted temp dir (CI fscks the kept `MANIFEST`)
//! * `SOAK_RATES` — the soak sweep's IO-fault rates in per-mille
//!   (default `0,5,10,50`); `SOAK_REPEATS` — campaigns per rate
//!   (default 3)
//! * `CONSENT_CHAOS` — the campaign sweep's chaos profile
//!   (`none`/`mild`/`heavy`), as everywhere

use consent_bench::{
    diff_documents, overhead_pct, BenchRecord, Row, Sweep, Workload, DEFAULT_THRESHOLD_P95_PCT,
    DEFAULT_THRESHOLD_PCT, OVERHEAD_THREADS,
};
use consent_faultsim::FaultProfile;
use consent_util::Json;
use std::env;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

fn env_parse<T: FromStr>(key: &str, default: T) -> T {
    env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A comma-separated list; `default` when unset or nothing parses.
fn env_list<T: FromStr>(key: &str, default: Vec<T>) -> Vec<T> {
    let list: Vec<T> = env::var(key)
        .unwrap_or_default()
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    if list.is_empty() {
        default
    } else {
        list
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().collect();
    let command = args.get(1).map(String::as_str);
    if command == Some("diff") {
        return run_diff(&args[2..]);
    }
    let repeats = env_parse("BENCH_REPEATS", 5);
    let bundle = Workload {
        repeats,
        ..Workload::bundle()
    };
    let bundle_dir = env::var("BENCH_BUNDLE_DIR").ok().map(PathBuf::from);
    match command {
        Some("soak") => run_soak(),
        Some("bundle") => run_bundle(&bundle, bundle_dir),
        _ => {
            let defaults = Workload::default();
            let campaign = Workload {
                sites: env_parse("BENCH_SITES", defaults.sites),
                domains: env_parse("BENCH_DOMAINS", defaults.domains),
                threads: env_list("BENCH_THREADS", defaults.threads.clone()),
                repeats,
                ..defaults
            };
            run_sweeps(campaign);
            run_bundle(&bundle, bundle_dir);
        }
    }
    ExitCode::SUCCESS
}

/// `consent-bench diff <old.json> <new.json> [--threshold PCT]
/// [--threshold-p95 PCT]`
fn run_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD_PCT;
    let mut threshold_p95 = DEFAULT_THRESHOLD_P95_PCT;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--threshold" | "--threshold-p95") => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("{flag} needs a numeric percentage");
                    return ExitCode::from(2);
                };
                if flag == "--threshold" {
                    threshold = v;
                } else {
                    threshold_p95 = v;
                }
                i += 2;
            }
            p => {
                paths.push(p.to_string());
                i += 1;
            }
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!(
            "usage: consent-bench diff <old.json> <new.json> \
             [--threshold PCT] [--threshold-p95 PCT]"
        );
        return ExitCode::from(2);
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let diff = match load(old_path).and_then(|old| diff_documents(&old, &load(new_path)?)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", diff.render(threshold, threshold_p95));
    if diff.regressions(threshold).is_empty() && diff.p95_regressions(threshold_p95).is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The campaign, checkpoint, obs and watch sweeps; obs and watch share
/// the campaign's world, toplist and repeats at a fixed thread count.
fn run_sweeps(campaign: Workload) {
    let chaos = env::var("CONSENT_CHAOS").unwrap_or_else(|_| "none".to_string());
    announce("campaign_throughput", &campaign);
    let sweep = consent_bench::campaign(&campaign, FaultProfile::from_env(), &chaos);
    print_table(&sweep.records, true);
    write_doc("BENCH_OUT", "BENCH_campaign.json", &sweep);

    let checkpoint = Workload::checkpoint();
    announce("checkpoint_durability", &checkpoint);
    let sweep = consent_bench::checkpoint(&checkpoint);
    print_table(&sweep.records, false);
    write_doc("BENCH_CHECKPOINT_OUT", "BENCH_checkpoint.json", &sweep);

    let overhead = Workload {
        threads: vec![OVERHEAD_THREADS],
        ..campaign
    };
    announce("obs_overhead", &overhead);
    let sweep = consent_bench::obs(&overhead);
    print_overhead(&sweep);
    write_doc("BENCH_OBS_OUT", "BENCH_obs.json", &sweep);
    announce("watch_overhead", &overhead);
    let sweep = consent_bench::watch(&overhead);
    print_overhead(&sweep);
    write_doc("BENCH_WATCH_OUT", "BENCH_watch.json", &sweep);
}

fn print_overhead(sweep: &Sweep) {
    print_table(&sweep.records, false);
    for (name, pct) in overhead_pct(&sweep.records) {
        println!("{name:<28} overhead vs off: {pct:+.2}%");
    }
}

/// The bundle archival sweep — the tail of the default invocation and
/// the whole of `consent-bench bundle`.
fn run_bundle(bundle: &Workload, keep_dir: Option<PathBuf>) {
    announce("bundle_archive", bundle);
    let sweep = consent_bench::bundle(bundle, keep_dir.as_deref());
    print_table(&sweep.records, false);
    let dedup = sweep
        .workload
        .get("dedup")
        .expect("bundle sweep records dedup");
    let field = |key: &str| dedup.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "bundle dedup ratio: {:.3} ({} logical / {} stored bytes)",
        field("ratio"),
        field("logical_bytes"),
        field("stored_bytes")
    );
    if let Some(dir) = &keep_dir {
        eprintln!("kept bundle at {}", dir.display());
    }
    write_doc("BENCH_BUNDLE_OUT", "BENCH_bundle.json", &sweep);
}

/// `consent-bench soak` — the storage-fault soak sweep.
fn run_soak() {
    let soak = Workload {
        repeats: env_parse("SOAK_REPEATS", 3),
        ..Workload::soak()
    };
    let rates = env_list("SOAK_RATES", vec![0, 5, 10, 50]);
    announce(&format!("storage_soak at {rates:?}\u{2030}"), &soak);
    let sweep = consent_bench::soak(&soak, &rates);
    println!(
        "{:<28} {:>12} {:>10} {:>9} {:>9} {:>12} {:>12}",
        "bench", "pairs/sec", "faults", "retries", "complete", "mttr µs", "mttr p95"
    );
    for r in &sweep.records {
        println!(
            "{:<28} {:>12.1} {:>10} {:>9} {:>8.0}% {:>12.0} {:>12}",
            r.record.name,
            r.record.pairs_per_sec,
            r.io_faults,
            r.retries,
            r.completion_rate * 100.0,
            r.mttr_us_mean,
            r.mttr_us_p95
        );
    }
    write_doc("BENCH_SOAK_OUT", "BENCH_soak.json", &sweep);
}

fn announce(name: &str, w: &Workload) {
    eprintln!(
        "{name}: {} domains x {} vantages x {} days = {} pairs, threads {:?}, {} repeats",
        w.domains,
        w.vantages.len(),
        w.days.len(),
        w.pairs(),
        w.threads,
        w.reps()
    );
}

/// One line per record; `speedup` adds each row's throughput relative
/// to the 1-thread row (the campaign sweep).
fn print_table(records: &[BenchRecord], speedup: bool) {
    let base = speedup
        .then(|| records.iter().find(|r| r.threads == 1))
        .flatten()
        .map(|r| r.pairs_per_sec);
    println!(
        "{:<28} {:>12} {:>10} {:>10} {:>9}",
        "bench", "pairs/sec", "p50 µs", "p95 µs", "speedup"
    );
    for r in records {
        let speedup = base.map_or("-".to_string(), |b| format!("{:.2}x", r.pairs_per_sec / b));
        println!(
            "{:<28} {:>12.1} {:>10} {:>10} {:>9}",
            r.name, r.pairs_per_sec, r.p50_us, r.p95_us, speedup
        );
    }
}

/// Write `sweep`'s document to the path in `var`, or to `default`.
fn write_doc<R: Row>(var: &str, default: &str, sweep: &Sweep<R>) {
    let out = env::var(var).unwrap_or_else(|_| default.to_string());
    std::fs::write(&out, format!("{}\n", sweep.document().to_pretty()))
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");
}
