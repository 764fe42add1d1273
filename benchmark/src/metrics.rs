//! The metric names — the contract later issues cite — with their
//! units, directions, regression bounds and sample floors.
//!
//! `BENCHMARK.json` repeats names, units, directions and bounds (a
//! unit test keeps the two in step); the floors live only here because
//! the benchmark contract fixes `BENCHMARK.json`'s keys.

/// One measured value of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
    /// `false`: the run took fewer samples than the metric's floor, or
    /// measured zero where zero is impossible — printed `UNRESOLVED`.
    pub resolved: bool,
}

impl Cell {
    /// A cell that is resolved only when `samples` reaches the
    /// metric's floor (times `floor_scale`, for shortened windows) and
    /// the value is a positive, finite number.
    pub fn floored(name: &'static str, value: Option<f64>, samples: u64, floor_scale: f64) -> Cell {
        let floor = def(name).map_or(1.0, |d| {
            (d.min_samples as f64 * floor_scale).ceil().max(1.0)
        }) as u64;
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        Cell {
            name,
            value,
            samples,
            resolved: samples >= floor && value > 0.0,
        }
    }

    /// A count or ratio that may legitimately be zero.
    pub fn plain(name: &'static str, value: f64, samples: u64) -> Cell {
        Cell {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
            resolved: true,
        }
    }
}

/// A metric's fixed properties.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Fewest samples a full-length run must take for the value to
    /// count.
    pub min_samples: u64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    min_samples: u64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: Some(bound),
        min_samples,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    min_samples: u64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: None,
        min_samples,
    }
}

/// What a user of the served system sees, as far as it repeats: every
/// workload reports every one of these. Each bound is meant to be three
/// times the widest interquartile spread the metric showed over ten
/// seeds on any workload. On a quiet box that is 15 % for throughput
/// and the median (22 % for set-up); but this repo's 2-core sandbox
/// drifts by a fifth for minutes at a time, the CPU-bound workloads
/// follow it one to one, and ten-seed sessions that cross such a drift
/// spread up to 22 % (throughput), 13 % (median), 28 % (set-up). Three
/// times that is past the benchmark contract's cap of 0.25, so the cap
/// is the bound of all three (see README, "Repeatability").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25, 3),
    e2e("throughput_rps", "req/s", true, 0.25, 200),
    e2e("read_p50_us", "us", false, 0.25, 100),
];

/// Single layers, plus the end-to-end numbers only some workloads can
/// report (per-operation medians, the write path) and the ones too
/// noisy to carry a bound. `0` in a run means the workload does not
/// exercise that layer.
pub const PER_LAYER: &[MetricDef] = &[
    // whole-request numbers too noisy on some workload to carry a bound
    layer("read_p95_us", "us", false, 200),
    layer("read_p99_us", "us", false, 1000),
    layer("sut_cpu_ms_per_req", "ms", false, 200),
    layer("peak_rss_mb", "MiB", false, 1),
    // whole-request numbers that not every workload has
    layer("genes_p50_us", "us", false, 100),
    layer("object_p50_us", "us", false, 100),
    layer("lorel_p50_us", "us", false, 100),
    layer("search_p50_us", "us", false, 100),
    layer("write_visible_p50_ms", "ms", false, 100),
    layer("write_visible_p95_ms", "ms", false, 190),
    layer("absorbed_records_s", "rec/s", true, 100),
    layer("failed_share", "ratio", false, 1),
    // sources
    layer("sources.corpus_gen_ms", "ms", false, 1),
    // wrap
    layer("wrap.export_oml_ms", "ms", false, 1),
    layer("wrap.subquery_locuslink_us", "us", false, 10),
    layer("wrap.subquery_go_us", "us", false, 10),
    layer("wrap.subquery_omim_us", "us", false, 10),
    layer("wrap.rows_shipped_per_ask", "count", false, 10),
    layer("wrap.apply_change_us_per_record", "us", false, 20),
    // matcher
    layer("matcher.mdsm_match_ms", "ms", false, 1),
    // mediator
    layer("mediator.plan_us", "us", false, 10),
    layer("mediator.subqueries_per_ask", "count", false, 10),
    layer("mediator.source_wall_path_us", "us", false, 10),
    layer("mediator.fuse_us", "us", false, 10),
    layer("mediator.ask_total_us", "us", false, 10),
    layer("mediator.ask_unattributed_us", "us", false, 10),
    layer("mediator.materialize_gml_ms", "ms", false, 1),
    layer("mediator.subquery_cache_hit_ratio", "ratio", true, 1),
    layer("mediator.subquery_cache_evictions", "count", false, 1),
    // lorel
    layer("lorel.parse_us", "us", false, 20),
    layer("lorel.eval_point_us", "us", false, 20),
    layer("lorel.eval_join_us", "us", false, 20),
    layer("lorel.eval_example_us", "us", false, 20),
    layer("lorel.probes_per_row", "count", false, 20),
    layer("lorel.workers_used", "count", false, 20),
    // oem
    layer("oem.store_objects", "count", false, 1),
    layer("oem.index_build_ms", "ms", false, 1),
    layer("oem.partition_ms", "ms", false, 1),
    layer("oem.assemble_ms", "ms", false, 1),
    layer("oem.changed_shards_diff_ms", "ms", false, 1),
    layer("oem.store_clones_per_req", "count", false, 1),
    // persist
    layer("persist.encode_store_ms", "ms", false, 1),
    layer("persist.wal_bytes_per_record", "B", false, 1),
    layer("persist.cold_open_ms", "ms", false, 1),
    // search
    layer("search.index_build_ms", "ms", false, 1),
    layer("search.incremental_update_ms", "ms", false, 1),
    layer("search.query_us", "us", false, 20),
    layer("search.postings", "count", false, 1),
    // annoda
    layer("annoda.snapshot_build_ms", "ms", false, 1),
    layer("annoda.snapshot_pin_ns", "ns", false, 20),
    layer("annoda.absorb_apply_us_per_record", "us", false, 5),
    layer("annoda.absorb_commit_ms", "ms", false, 5),
    layer("annoda.absorb_unattributed_ms", "ms", false, 5),
    layer("annoda.changed_shards_per_commit", "count", false, 5),
    layer("annoda.changed_fragments_per_commit", "count", false, 5),
    layer("annoda.txn_conflicts", "count", false, 1),
    // serve
    layer("serve.http_parse_us", "us", false, 20),
    layer("serve.cache_lookup_ns", "ns", false, 20),
    layer("serve.handle_miss_us", "us", false, 20),
    layer("serve.render_text_us", "us", false, 20),
    layer("serve.encode_response_us", "us", false, 20),
    layer("serve.response_bytes_p50", "B", false, 100),
    layer("serve.cache_hit_ratio", "ratio", true, 1),
    layer("serve.not_modified_share", "ratio", false, 1),
    layer("serve.deps_invalidations", "count", false, 1),
    layer("serve.shed_total", "count", false, 1),
    layer("serve.reconnects", "count", false, 1),
    // stream / federation
    layer("stream.batches", "count", false, 1),
    layer("stream.records_per_batch", "count", false, 1),
    layer("stream.absorb_us_per_record", "us", false, 1),
    layer("stream.lag_records_p50", "count", false, 100),
    layer("stream.drain_ms", "ms", false, 1),
    layer("stream.resubscribes", "count", false, 1),
    // harness sanity
    layer("harness.cpu_share", "ratio", false, 1),
    layer("harness.feed_late_us_p99", "us", false, 100),
    layer("trace.coverage", "ratio", true, 1),
    layer("trace.overhead_ratio", "ratio", false, 1),
];

/// The definition of `name`, from either list.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; this keeps it honest.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let end = start + text[start..].find(']').expect("section end");
            let listed: Vec<&str> = text[start..end]
                .split("\"name\":")
                .skip(1)
                .filter_map(|r| r.split('"').nth(1))
                .collect();
            let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(listed, expected, "{section}");
            for d in defs {
                let entry = text[start..end]
                    .split("\"name\":")
                    .find(|r| r.split('"').nth(1) == Some(d.name))
                    .unwrap();
                assert!(
                    entry.contains(&format!("\"unit\": \"{}\"", d.unit)),
                    "{}: unit",
                    d.name
                );
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert!(
                    entry.contains(&format!("\"better\": \"{better}\"")),
                    "{}: better",
                    d.name
                );
                if let Some(bound) = d.bound {
                    assert!(
                        entry.contains(&format!("\"bound\": {bound}")),
                        "{}: bound",
                        d.name
                    );
                }
            }
        }
    }

    #[test]
    fn names_are_unique_and_floors_gate_cells() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(!Cell::floored("throughput_rps", Some(5.0), 199, 1.0).resolved);
        assert!(Cell::floored("throughput_rps", Some(5.0), 200, 1.0).resolved);
        assert!(
            Cell::floored("throughput_rps", Some(5.0), 20, 0.1).resolved,
            "smoke scales the floor"
        );
        assert!(
            !Cell::floored("read_p50_us", Some(0.0), 500, 1.0).resolved,
            "zero is not a latency"
        );
        assert!(!Cell::floored("read_p50_us", None, 500, 1.0).resolved);
        assert!(Cell::plain("serve.shed_total", 0.0, 1).resolved);
    }
}
