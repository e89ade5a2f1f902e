//! The metric catalogue. `BENCHMARK.json` lists the same names; a test
//! keeps the two in step.

use crate::harness::Metric;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("captures_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_capture", "bytes"),
];

/// The end-to-end metrics from their values, in catalogue order.
pub fn end_to_end(values: [f64; 4]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

/// Per-layer metrics, reported by every traced run. A layer the
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("webgraph.profiles_cached", "count"),
    ("webgraph.fill_s", "s"),
    ("toplist.build_s", "s"),
    ("toplist.resolve_s", "s"),
    ("toplist.probes", "count"),
    ("toplist.resolve_share", "ratio"),
    ("feed.items", "count"),
    ("feed.day_items_s", "s"),
    ("queue.offer_s", "s"),
    ("queue.skip_ratio", "ratio"),
    ("httpsim.captures", "count"),
    ("httpsim.capture_s", "s"),
    ("httpsim.capture_us_p50", "us"),
    ("httpsim.capture_us_p99", "us"),
    ("httpsim.usable_ratio", "ratio"),
    ("faultsim.injected", "count"),
    ("faultsim.decide_s", "s"),
    ("campaign.attempts_per_pair", "attempts"),
    ("campaign.dead_letter_ratio", "ratio"),
    ("fingerprint.detect_s", "s"),
    ("fingerprint.detect_us_p50", "us"),
    ("fingerprint.hit_ratio", "ratio"),
    ("capture_db.ingest_s", "s"),
    ("capture_db.rows", "count"),
    ("capture_db.hosts", "count"),
    ("capture_db.segments", "count"),
    ("campaign.wall_1t_s", "s"),
    ("campaign.wall_2t_s", "s"),
    ("campaign.crawl_s", "s"),
    ("parallel.speedup", "ratio"),
    ("parallel.serial_share", "ratio"),
    ("campaign.apply_residual_us_per_pair", "us"),
    ("export.state_s", "s"),
    ("export.state_bytes", "bytes"),
    ("export.import_s", "s"),
    ("checkpoint.cuts", "count"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.sync_s", "s"),
    ("checkpoint.fsyncs", "count"),
    ("checkpoint.bytes_written", "bytes"),
    ("checkpoint.recover_s", "s"),
    ("bundle.docs", "count"),
    ("bundle.blobs_written", "count"),
    ("bundle.fsyncs", "count"),
    ("bundle.bytes_written", "bytes"),
    ("bundle.dedup_ratio", "ratio"),
    ("bundle.build_input_s", "s"),
    ("bundle.pack_s", "s"),
    ("bundle.pack_sync_s", "s"),
    ("bundle.pack_cpu_s", "s"),
    ("bundle.verify_s", "s"),
    ("bundle.replay_s", "s"),
    ("analysis.timelines_s", "s"),
    ("analysis.series_s", "s"),
    ("analysis.marketshare_s", "s"),
    ("analysis.methodology_s", "s"),
    ("analysis.exports_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.feed_pass_s", "s"),
    ("trace.feed_unattributed_share", "ratio"),
    ("trace.write_pass_s", "s"),
    ("trace.write_unattributed_share", "ratio"),
    ("trace.passes", "count"),
    ("trace.untraced_passes", "count"),
];

/// Put a workload's traced metrics in catalogue order, adding a 0 for
/// every layer it did not touch.
///
/// Panics on a name or unit outside the catalogue — a typo would
/// otherwise report a metric nobody reads.
pub fn complete_per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            PER_LAYER.contains(&(m.name.as_str(), m.unit)),
            "metric {} ({}) is not in the per-layer catalogue",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect(section);
        let body = &json[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(json, "per_layer"), layer);
    }

    #[test]
    fn completion_fills_bypassed_layers_with_zero() {
        let out = complete_per_layer(vec![Metric::new("bundle.pack_s", 1.5, "s")]);
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(
            out.iter()
                .find(|m| m.name == "bundle.pack_s")
                .unwrap()
                .value,
            1.5
        );
        assert_eq!(
            out.iter().find(|m| m.name == "feed.items").unwrap().value,
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "not in the per-layer catalogue")]
    fn unknown_metric_names_are_rejected() {
        complete_per_layer(vec![Metric::new("bundle.pakc_s", 1.5, "s")]);
    }
}
