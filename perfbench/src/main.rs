//! perfbench — the consent observatory's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload toplist_campaign --seed 2020 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable report on standard error and, as the last
//! line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod archive;
mod campaign;
mod expect;
mod feed;
mod harness;
mod instruments;
mod metrics;
mod sample;
mod stats;
mod workdir;

use expect::{Expect, DEFAULT_SEED};
use harness::{Outcome, RunOpts, Scale, Workload};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "feed_longitudinal",
    "toplist_campaign",
    "durable_archive",
    "archive_replay",
];

const USAGE: &str = "usage: perfbench --workload <feed_longitudinal|toplist_campaign|\
durable_archive|archive_replay> [--seed N] [--seconds S] [--trace 0|1] \
[--worker 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        worker: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--worker" => args.worker = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Worker processes an untraced run is split across (see `sample`).
const WORKERS: usize = 5;

/// Run the named workload in this process; `None` when the name is
/// unknown.
pub fn run_named(
    name: &str,
    scale: Scale,
    seed: u64,
    expect: Option<Expect>,
    opts: &RunOpts,
) -> Option<Outcome> {
    fn go<W: Workload>(w: W, scale: Scale, seed: u64, e: Option<Expect>, o: &RunOpts) -> Outcome {
        let expect = e.unwrap_or_else(|| Expect::pinned(w.name(), scale.name(), seed));
        let mut out = harness::run(&w, expect, o);
        if o.trace {
            out.metrics = metrics::complete_per_layer(out.metrics);
        }
        out
    }
    Some(match name {
        "feed_longitudinal" => go(
            feed::FeedLongitudinal::new(scale, seed),
            scale,
            seed,
            expect,
            opts,
        ),
        "toplist_campaign" => go(
            campaign::ToplistCampaign::new(scale, seed),
            scale,
            seed,
            expect,
            opts,
        ),
        "durable_archive" => go(
            archive::DurableArchive::new(scale, seed),
            scale,
            seed,
            expect,
            opts,
        ),
        "archive_replay" => go(
            archive::ArchiveReplay::new(scale, seed),
            scale,
            seed,
            expect,
            opts,
        ),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = harness::env_violations();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures the \
             unperturbed program — unset them and retry",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    let out = if args.trace || args.worker {
        // One process: a traced run, or one worker's share of a run.
        let opts = RunOpts {
            seconds: args.seconds,
            trace: args.trace,
            setups: 1,
            min_passes: 1,
        };
        let out = run_named(&args.workload, Scale::Full, args.seed, None, &opts)
            .expect("workload name checked above");
        eprint!("{}", harness::describe(&args.workload, args.seed, &out));
        if args.worker {
            // The parent removes the scratch directories once every
            // worker is done.
            println!("{}", sample::Sample::of(&out).render());
            return if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        workdir::cleanup();
        out
    } else {
        let share = format!("{}", args.seconds / WORKERS as f64);
        let worker_args = [
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &share,
        ]
        .map(String::from);
        let out = sample::combine(&sample::run_workers(&worker_args, WORKERS));
        workdir::cleanup();
        eprint!("{}", harness::describe(&args.workload, args.seed, &out));
        out
    };
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::GLOBALS;

    fn smoke(name: &str, expect: Option<Expect>, trace: bool) -> Outcome {
        let _guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let opts = RunOpts {
            seconds: 0.05,
            trace,
            setups: 2,
            min_passes: 2,
        };
        let out =
            run_named(name, Scale::Smoke, DEFAULT_SEED, expect, &opts).expect("known workload");
        workdir::remove_process_root();
        out
    }

    #[test]
    fn every_workload_passes_its_smoke_run() {
        for name in WORKLOADS {
            let out = smoke(name, None, false);
            assert!(out.correct(), "{name}: {:?}", out.failures);
            assert_eq!(out.setup_s.len(), 2);
            assert!(out.rates.len() >= 2);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = metrics::END_TO_END.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{name}");
            assert!(
                out.metrics.iter().all(|m| m.value > 0.0),
                "{name}: {:?}",
                out.metrics
            );
        }
    }

    #[test]
    fn every_workload_passes_its_traced_smoke_run() {
        for name in WORKLOADS {
            let out = smoke(name, None, true);
            assert!(out.correct(), "{name}: {:?}", out.failures);
            assert_eq!(out.metrics.len(), metrics::PER_LAYER.len());
            let get = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
            assert!(get("trace.pass_s") > 0.0, "{name}");
            assert!(get("webgraph.profiles_cached") > 0.0, "{name}");
            if name == "feed_longitudinal" || name == "toplist_campaign" {
                // The campaign's traced run measures the feed-only layers too.
                assert!(
                    get("feed.items") > 0.0 && get("analysis.timelines_s") > 0.0,
                    "{name}"
                );
            }
            let unattributed = get("trace.unattributed_share");
            assert!(
                unattributed.abs() < 1.0,
                "{name}: unattributed {unattributed}"
            );
            assert!(!consent_telemetry::enabled() && !consent_trace::enabled());
        }
    }

    #[test]
    fn smoke_outputs_match_the_pinned_digests() {
        for name in WORKLOADS {
            let pinned = Expect::pinned(name, "smoke", DEFAULT_SEED);
            assert!(!pinned.is_empty(), "{name} has no pinned smoke digests");
            let out = smoke(name, None, false);
            assert!(out.correct(), "{name}: {:?}", out.failures);
        }
    }

    #[test]
    fn a_wrong_reference_fails_every_pass_and_records_no_timing() {
        let checks = [
            ("feed_longitudinal", "report"),
            ("toplist_campaign", "state"),
            ("durable_archive", "manifest"),
            ("archive_replay", "state-day0"),
        ];
        for (name, check) in checks {
            let mut wrong = Expect::pinned(name, "smoke", DEFAULT_SEED);
            wrong.set(check, 0x0bad_d16e);
            let out = smoke(name, Some(wrong), false);
            assert!(!out.correct(), "{name}");
            assert!(out.failed_share() > 0.0, "{name}");
            assert!(
                out.rates.is_empty(),
                "{name} recorded a timing: {:?}",
                out.rates
            );
            let rate = &out.metrics[0];
            assert_eq!(rate.name, "captures_per_s");
            assert!(rate.value.is_nan(), "{name}");
            assert!(out.json().contains("\"captures_per_s\": {\"value\": null"));
        }
    }
}
