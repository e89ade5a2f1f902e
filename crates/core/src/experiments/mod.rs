//! One module per paper table/figure; see DESIGN.md's experiment index.
//!
//! Every experiment has one plain entry point. To account for a run,
//! wrap the call in [`run_reported`], e.g.
//! `run_reported(&study, "fig6", || fig6::fig6(&study))`: the run is
//! timed, the global telemetry registry is snapshotted before and after,
//! and the resulting [`consent_telemetry::RunReport`] — capture counts
//! per vantage and `CaptureStatus`, retries, dedup skips — is recorded
//! on the [`Study`] under the given name. With telemetry disabled (the
//! default) that costs two empty snapshots and a clock read. For causal
//! per-capture tracing, [`run_traced`] additionally turns on the global
//! `consent_trace` log around a closure and hands back the byte-stable
//! JSONL export (see `examples/trace_explain.rs`).
//!
//! Campaign-shaped experiments also have a `*_parallel` variant (e.g.
//! [`table1::table1_parallel`]) that runs the same crawl on the
//! worker-pool executor (`consent_crawler::run_campaign_parallel`).
//! Because the parallel merge is byte-deterministic, the variant returns
//! exactly the same result at any thread count — it exists purely for
//! wall-clock speed on multicore hardware.

use crate::Study;

pub mod archive;
pub mod fig1;
pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7_8;
pub mod fig9;
pub mod i3;
pub mod methodology;
pub mod table1;
pub mod tables_a;

/// Run `f` against the global telemetry registry and record the
/// resulting run report on `study`. Returns `f`'s value unchanged.
pub fn run_reported<T>(study: &Study, name: &str, f: impl FnOnce() -> T) -> T {
    let (value, report) =
        consent_telemetry::RunReport::collect(consent_telemetry::global(), name, f);
    study.record_report(report);
    value
}

/// Run `f` with the global trace log recording and return `f`'s value
/// together with the byte-stable JSONL export of every trace it
/// recorded. The log is cleared before the run (so the export contains
/// only this run's traces) and recording is restored to its previous
/// state afterward, making the helper safe to compose with
/// [`run_reported`] and with runs that leave tracing off.
pub fn run_traced<T>(f: impl FnOnce() -> T) -> (T, String) {
    let was_enabled = consent_trace::enabled();
    consent_trace::clear();
    consent_trace::enable();
    let value = f();
    let jsonl = consent_trace::global().export_jsonl();
    consent_trace::global().set_enabled(was_enabled);
    (value, jsonl)
}
