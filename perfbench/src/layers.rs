//! Turns one traced pass (spans plus counters) into per-layer values, and
//! a traced run's passes into the `--trace 1` result.

use crate::metrics::{median, median_by_key, Values, ENGINE_PHASES, PER_LAYER};
use crate::mirror::Counters;
use crate::trace::{coverage, self_times, Trace};
use std::collections::{BTreeMap, HashMap};

/// Span names of the layers, each with the metric its self time feeds.
/// Every other span (`pass`, `row`, `flow.*`, `bench.pool`, `pool.task`)
/// is a container whose own time is glue, not layer work.
pub const LAYER_SPANS: &[(&str, &str)] = &[
    ("bdd.reorder", "bdd.reorder.ms"),
    ("logic.partition", "logic.partition.ms"),
    ("decomp.search", "decomp.search.ms"),
    ("core.maj", "core.maj.ms"),
    ("bdd.gc", "bdd.gc.ms"),
    ("logic.clean", "logic.clean.ms"),
    ("logic.verify", "logic.verify.ms"),
    ("techmap.map", "techmap.map.ms"),
    ("techmap.report", "techmap.report.ms"),
    ("baselines.abc", "baselines.abc.ms"),
    ("baselines.dc", "baselines.dc.ms"),
    ("logic.blif.read", "logic.blif.read_ms"),
    ("logic.blif.write", "logic.blif.write_ms"),
];

/// Per-layer values of one traced pass whose root span is `pass`.
/// `workers` is the pool width (0 when the pass uses no pool).
/// The run-level metrics (`trace.overhead_pct`, `trace.mirror_mismatches`)
/// are added by [`finish`].
pub fn pass_values(trace: &Trace, pass: usize, c: &Counters, workers: usize) -> Values {
    let spans = &trace.spans;
    let selfs = self_times(spans);
    let mut v = Values::new();
    for &(_, metric) in LAYER_SPANS {
        v.insert(metric, 0.0);
    }
    for (s, self_ns) in spans.iter().zip(&selfs) {
        if let Some(&(_, metric)) = LAYER_SPANS.iter().find(|(n, _)| *n == s.name) {
            *v.get_mut(metric).expect("inserted above") += *self_ns as f64 / 1e6;
        }
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    v.insert("bdd.reorder.calls", c.reorder_calls as f64);
    v.insert("bdd.reorder.nodes_saved", c.nodes_saved as f64);
    v.insert("logic.partition.cones", c.cones as f64);
    v.insert("logic.partition.bdd_nodes", c.partition_bdd_nodes as f64);
    v.insert("bdd.cache.hit_rate", ratio(c.cache_hits, c.cache_lookups));
    v.insert("bdd.peak_nodes", c.peak_nodes as f64);
    v.insert("core.maj.calls", c.maj_calls as f64);
    v.insert("core.maj.accept_ratio", ratio(c.maj_accepted, c.maj_calls));
    v.insert("bdd.gc.collections", c.collections as f64);
    v.insert("logic.clean.gates_removed", c.gates_removed as f64);
    v.insert("techmap.map.cells", c.map_cells as f64);
    v.insert("logic.blif.bytes", c.blif_bytes as f64);

    // Pool: busy share of the workers' time, and the tail between the
    // first and the last worker running dry.
    let (mut busy, mut pool_ns, mut tail_ns) = (0u64, 0u64, 0u64);
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "bench.pool")
    {
        pool_ns += s.len();
        let mut last_end: HashMap<u32, u64> = HashMap::new();
        for t in spans
            .iter()
            .filter(|t| t.parent == Some(i) && t.name == "pool.task")
        {
            busy += t.len();
            let e = last_end.entry(t.thread).or_default();
            *e = (*e).max(t.end);
        }
        if let (Some(lo), Some(hi)) = (last_end.values().min(), last_end.values().max()) {
            tail_ns += hi - lo;
        }
    }
    let capacity = pool_ns * workers as u64;
    v.insert("bench.pool.busy_frac", ratio(busy, capacity));
    v.insert("bench.pool.tail_ms", tail_ns as f64 / 1e6);

    let root = &spans[pass];
    let cov = coverage(spans, root.start, root.end, |s| {
        LAYER_SPANS.iter().any(|(n, _)| *n == s.name)
    });
    v.insert("trace.coverage_pct", 100.0 * cov);
    v
}

/// The `--trace 1` values: per-pass medians, the tracing overhead of
/// traced over untraced pass wall-clock, and the replica mismatch count.
/// After any mismatch the engine-phase metrics read -1 (unavailable).
pub fn finish(
    passes: &[Values],
    traced_wall: &[f64],
    untraced_wall: &[f64],
    mismatches: u64,
) -> Values {
    let mut v = median_by_key(passes);
    let base = median(untraced_wall);
    v.insert(
        "trace.overhead_pct",
        100.0 * (median(traced_wall) / base - 1.0),
    );
    v.insert("trace.mirror_mismatches", mismatches as f64);
    if mismatches > 0 {
        for &k in ENGINE_PHASES {
            v.insert(k, -1.0);
        }
    }
    debug_assert_eq!(v.len(), PER_LAYER.len());
    v
}

/// Prints the per-layer values and the lowest coverage seen.
pub fn print(v: &Values, passes: &[Values]) {
    let units: BTreeMap<&str, &str> = PER_LAYER.iter().map(|d| (d.name, d.unit)).collect();
    println!(
        "per-layer metrics (median over {} traced passes):",
        passes.len()
    );
    for d in PER_LAYER {
        crate::metrics::print_metric(d.name, v[d.name], units[d.name]);
    }
    let min_cov = passes
        .iter()
        .map(|p| p["trace.coverage_pct"])
        .fold(f64::INFINITY, f64::min);
    println!("  lowest span coverage of a traced pass: {min_cov:.2} %");
}
