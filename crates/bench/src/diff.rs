//! `consent-bench diff`: compare two `BENCH_*.json` trajectory points.
//!
//! Records are matched by `name`; for each match a delta row reports
//! the throughput change (pairs/sec, percent) and the latency movement
//! (p50/p95 µs). A row whose throughput dropped by more than the
//! throughput threshold — or whose p95 latency *grew* by more than the
//! (looser) p95 threshold — is a **regression**: the CLI exits non-zero
//! so CI can gate on it. Records present in only one document are
//! listed but never gate (a renamed sweep should not hard-fail the
//! build), and a record whose old p95 is zero never p95-gates (there is
//! no baseline to regress from).

use consent_util::table::Table;
use consent_util::Json;

/// Default regression gate: >10% throughput drop fails.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// Default p95 latency gate: >25% growth fails. Deliberately looser
/// than the throughput gate — tail latency on shared runners is far
/// noisier than aggregate throughput.
pub const DEFAULT_THRESHOLD_P95_PCT: f64 = 25.0;

/// One matched record pair (or an unmatched record from either side).
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Record name (`campaign/threads=4`, `checkpoint_write`, …).
    pub name: String,
    /// Old throughput in pairs/sec (`None` if the record is new).
    pub old_pps: Option<f64>,
    /// New throughput in pairs/sec (`None` if the record was removed).
    pub new_pps: Option<f64>,
    /// Throughput change in percent (`None` unless both sides exist).
    pub delta_pct: Option<f64>,
    /// p50 latency µs, old → new.
    pub p50_us: (Option<u64>, Option<u64>),
    /// p95 latency µs, old → new.
    pub p95_us: (Option<u64>, Option<u64>),
}

impl DiffRow {
    /// Does this row regress throughput by more than `threshold_pct`?
    pub fn regresses(&self, threshold_pct: f64) -> bool {
        self.delta_pct.is_some_and(|d| d < -threshold_pct)
    }

    /// p95 latency growth in percent (`None` unless both sides exist
    /// and the old side is non-zero).
    pub fn p95_delta_pct(&self) -> Option<f64> {
        match self.p95_us {
            (Some(old), Some(new)) if old > 0 => {
                Some((new as f64 - old as f64) / old as f64 * 100.0)
            }
            _ => None,
        }
    }

    /// Does this row regress p95 latency by more than
    /// `threshold_p95_pct`? Rows without a usable old-side p95 never
    /// gate.
    pub fn regresses_p95(&self, threshold_p95_pct: f64) -> bool {
        self.p95_delta_pct().is_some_and(|d| d > threshold_p95_pct)
    }
}

/// The outcome of comparing two bench documents.
#[derive(Clone, Debug)]
pub struct BenchDiff {
    /// The `bench` field of the documents (new side wins if they
    /// disagree).
    pub bench: String,
    /// One row per record name seen on either side, in new-document
    /// order with removed records appended.
    pub rows: Vec<DiffRow>,
}

fn parse_records(doc: &Json, side: &str) -> Result<Vec<(String, f64, u64, u64)>, String> {
    let records = doc
        .get("records")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{side}: no `records` array — not a BENCH_*.json document"))?;
    let mut out = Vec::with_capacity(records.len());
    for (i, r) in records.iter().enumerate() {
        let name = r
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{side}: record {i} has no `name`"))?;
        let pps = r
            .get("pairs_per_sec")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{side}: record {name:?} has no `pairs_per_sec`"))?;
        let q = |key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        out.push((name.to_string(), pps, q("p50_us"), q("p95_us")));
    }
    Ok(out)
}

/// Compare two parsed `BENCH_*.json` documents.
pub fn diff_documents(old: &Json, new: &Json) -> Result<BenchDiff, String> {
    let old_records = parse_records(old, "old")?;
    let new_records = parse_records(new, "new")?;
    let bench = new
        .get("bench")
        .or_else(|| old.get("bench"))
        .and_then(Json::as_str)
        .unwrap_or("bench")
        .to_string();

    let mut rows = Vec::new();
    for (name, new_pps, new_p50, new_p95) in &new_records {
        let old = old_records.iter().find(|(n, ..)| n == name);
        rows.push(match old {
            Some((_, old_pps, old_p50, old_p95)) => DiffRow {
                name: name.clone(),
                old_pps: Some(*old_pps),
                new_pps: Some(*new_pps),
                delta_pct: Some((new_pps - old_pps) / old_pps.max(1e-12) * 100.0),
                p50_us: (Some(*old_p50), Some(*new_p50)),
                p95_us: (Some(*old_p95), Some(*new_p95)),
            },
            None => DiffRow {
                name: name.clone(),
                old_pps: None,
                new_pps: Some(*new_pps),
                delta_pct: None,
                p50_us: (None, Some(*new_p50)),
                p95_us: (None, Some(*new_p95)),
            },
        });
    }
    for (name, old_pps, old_p50, old_p95) in &old_records {
        if !new_records.iter().any(|(n, ..)| n == name) {
            rows.push(DiffRow {
                name: name.clone(),
                old_pps: Some(*old_pps),
                new_pps: None,
                delta_pct: None,
                p50_us: (Some(*old_p50), None),
                p95_us: (Some(*old_p95), None),
            });
        }
    }
    Ok(BenchDiff { bench, rows })
}

impl BenchDiff {
    /// Rows regressing throughput by more than `threshold_pct`.
    pub fn regressions(&self, threshold_pct: f64) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.regresses(threshold_pct))
            .collect()
    }

    /// Rows regressing p95 latency by more than `threshold_p95_pct`.
    pub fn p95_regressions(&self, threshold_p95_pct: f64) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.regresses_p95(threshold_p95_pct))
            .collect()
    }

    /// Render the per-row delta table plus a verdict line, gating
    /// throughput at `threshold_pct` and p95 latency at
    /// `threshold_p95_pct`.
    pub fn render(&self, threshold_pct: f64, threshold_p95_pct: f64) -> String {
        let fmt_pps = |v: Option<f64>| v.map_or("-".to_string(), |p| format!("{p:.1}"));
        let fmt_us = |v: Option<u64>| v.map_or("-".to_string(), |u| u.to_string());
        let mut t = Table::with_columns(&[
            "Record", "Old p/s", "New p/s", "Δ%", "p50 µs", "p95 µs", "Verdict",
        ]);
        t.numeric().title(format!("bench diff: {}", self.bench));
        for r in &self.rows {
            let delta = r.delta_pct.map_or("-".to_string(), |d| format!("{d:+.1}%"));
            let verdict = if r.regresses(threshold_pct) {
                "REGRESSION"
            } else if r.regresses_p95(threshold_p95_pct) {
                "P95 REGRESSION"
            } else if r.old_pps.is_none() {
                "new"
            } else if r.new_pps.is_none() {
                "removed"
            } else {
                "ok"
            };
            t.row(vec![
                r.name.clone(),
                fmt_pps(r.old_pps),
                fmt_pps(r.new_pps),
                delta,
                format!("{} → {}", fmt_us(r.p50_us.0), fmt_us(r.p50_us.1)),
                format!("{} → {}", fmt_us(r.p95_us.0), fmt_us(r.p95_us.1)),
                verdict.to_string(),
            ]);
        }
        let mut out = t.to_string();
        let bad = self.regressions(threshold_pct);
        if bad.is_empty() {
            out.push_str(&format!(
                "\nno pairs/sec regression beyond {threshold_pct}%\n"
            ));
        } else {
            out.push_str(&format!(
                "\n{} record(s) regressed pairs/sec by more than {threshold_pct}%:\n",
                bad.len()
            ));
            for r in bad {
                out.push_str(&format!(
                    "  {}: {:.1} → {:.1} ({:+.1}%)\n",
                    r.name,
                    r.old_pps.unwrap_or(0.0),
                    r.new_pps.unwrap_or(0.0),
                    r.delta_pct.unwrap_or(0.0)
                ));
            }
        }
        let bad_p95 = self.p95_regressions(threshold_p95_pct);
        if bad_p95.is_empty() {
            out.push_str(&format!(
                "no p95 latency regression beyond {threshold_p95_pct}%\n"
            ));
        } else {
            out.push_str(&format!(
                "{} record(s) regressed p95 latency by more than {threshold_p95_pct}%:\n",
                bad_p95.len()
            ));
            for r in bad_p95 {
                out.push_str(&format!(
                    "  {}: {} µs → {} µs ({:+.1}%)\n",
                    r.name,
                    r.p95_us.0.unwrap_or(0),
                    r.p95_us.1.unwrap_or(0),
                    r.p95_delta_pct().unwrap_or(0.0)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchRecord, Sweep};

    fn record(name: &str, pps: f64) -> BenchRecord {
        record_p95(name, pps, 900)
    }

    fn record_p95(name: &str, pps: f64, p95_us: u64) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            threads: 1,
            pairs: 100,
            elapsed_secs: 100.0 / pps,
            pairs_per_sec: pps,
            p50_us: 500,
            p95_us,
        }
    }

    fn doc(records: &[BenchRecord]) -> Json {
        Sweep {
            bench: "campaign_throughput",
            workload: Json::object([]),
            records: records.to_vec(),
        }
        .document()
    }

    #[test]
    fn matched_rows_compute_delta_and_gate() {
        let old = doc(&[record("a", 100.0), record("b", 200.0)]);
        let new = doc(&[record("a", 95.0), record("b", 150.0)]);
        let diff = diff_documents(&old, &new).unwrap();
        assert_eq!(diff.rows.len(), 2);
        let a = &diff.rows[0];
        assert!((a.delta_pct.unwrap() + 5.0).abs() < 1e-9);
        assert!(!a.regresses(DEFAULT_THRESHOLD_PCT), "-5% is within 10%");
        let b = &diff.rows[1];
        assert!((b.delta_pct.unwrap() + 25.0).abs() < 1e-9);
        assert!(b.regresses(DEFAULT_THRESHOLD_PCT));
        assert_eq!(diff.regressions(DEFAULT_THRESHOLD_PCT).len(), 1);
        // A looser gate passes the same data.
        assert!(diff.regressions(30.0).is_empty());
        let text = diff.render(DEFAULT_THRESHOLD_PCT, DEFAULT_THRESHOLD_P95_PCT);
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("-25.0%"));
    }

    #[test]
    fn p95_growth_gates_independently_of_throughput() {
        let old = doc(&[
            record_p95("steady", 100.0, 800),
            record_p95("tail", 100.0, 800),
        ]);
        let new = doc(&[
            record_p95("steady", 101.0, 900),
            record_p95("tail", 101.0, 1200),
        ]);
        let diff = diff_documents(&old, &new).unwrap();
        // Throughput is flat on both rows — only the p95 gate can trip.
        assert!(diff.regressions(DEFAULT_THRESHOLD_PCT).is_empty());
        let bad = diff.p95_regressions(DEFAULT_THRESHOLD_P95_PCT);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "tail");
        assert!((bad[0].p95_delta_pct().unwrap() - 50.0).abs() < 1e-9);
        let text = diff.render(DEFAULT_THRESHOLD_PCT, DEFAULT_THRESHOLD_P95_PCT);
        assert!(text.contains("P95 REGRESSION"), "{text}");
        assert!(text.contains("800 µs → 1200 µs (+50.0%)"), "{text}");
        // A looser p95 gate passes the same data.
        assert!(diff.p95_regressions(60.0).is_empty());
    }

    #[test]
    fn zero_or_missing_old_p95_never_gates() {
        let old = doc(&[record_p95("a", 100.0, 0)]);
        let new = doc(&[record_p95("a", 100.0, 500), record_p95("fresh", 10.0, 9999)]);
        let diff = diff_documents(&old, &new).unwrap();
        assert!(diff.p95_regressions(DEFAULT_THRESHOLD_P95_PCT).is_empty());
        // Zero old-side and unmatched rows both produce no delta at all.
        assert!(diff.rows.iter().all(|r| r.p95_delta_pct().is_none()));
    }

    #[test]
    fn improvements_and_new_or_removed_records_never_gate() {
        let old = doc(&[record("kept", 100.0), record("gone", 50.0)]);
        let new = doc(&[record("kept", 140.0), record("added", 10.0)]);
        let diff = diff_documents(&old, &new).unwrap();
        assert_eq!(diff.rows.len(), 3);
        assert!(diff.regressions(DEFAULT_THRESHOLD_PCT).is_empty());
        let text = diff.render(DEFAULT_THRESHOLD_PCT, DEFAULT_THRESHOLD_P95_PCT);
        assert!(text.contains("+40.0%"));
        assert!(text.contains("new"));
        assert!(text.contains("removed"));
        assert!(text.contains("no pairs/sec regression"));
        assert!(text.contains("no p95 latency regression"));
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        let err = diff_documents(&Json::object([]), &Json::object([])).unwrap_err();
        assert!(err.contains("old"), "{err}");
        let ok = doc(&[record("a", 1.0)]);
        let bad = Json::object([(
            "records".to_string(),
            Json::array([Json::object([("name".to_string(), Json::str("x"))])]),
        )]);
        let err = diff_documents(&ok, &bad).unwrap_err();
        assert!(err.contains("pairs_per_sec"), "{err}");
    }
}
