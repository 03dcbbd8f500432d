//! Metric definitions, summary statistics and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics of an untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s"),
    m("cpu_s", "s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("out_gates", "gates"),
];

/// Metrics of a traced run (`--trace 1`), on every workload; a layer a
/// workload never calls reads 0, and an engine phase whose replica did
/// not match the real flow reads -1.
pub const PER_LAYER: &[Metric] = &[
    m("bdd.reorder.ms", "ms"),
    m("bdd.reorder.calls", "count"),
    m("bdd.reorder.nodes_saved", "nodes"),
    m("logic.partition.ms", "ms"),
    m("logic.partition.cones", "count"),
    m("logic.partition.bdd_nodes", "nodes"),
    m("bdd.cache.hit_rate", "ratio"),
    m("bdd.peak_nodes", "nodes"),
    m("decomp.search.ms", "ms"),
    m("core.maj.ms", "ms"),
    m("core.maj.calls", "count"),
    m("core.maj.accept_ratio", "ratio"),
    m("bdd.gc.ms", "ms"),
    m("bdd.gc.collections", "count"),
    m("logic.clean.ms", "ms"),
    m("logic.clean.gates_removed", "nodes"),
    m("logic.verify.ms", "ms"),
    m("techmap.map.ms", "ms"),
    m("techmap.map.cells", "count"),
    m("techmap.report.ms", "ms"),
    m("baselines.abc.ms", "ms"),
    m("baselines.dc.ms", "ms"),
    m("logic.blif.read_ms", "ms"),
    m("logic.blif.write_ms", "ms"),
    m("logic.blif.bytes", "bytes"),
    m("bench.pool.busy_frac", "ratio"),
    m("bench.pool.tail_ms", "ms"),
    m("trace.overhead_pct", "%"),
    m("trace.coverage_pct", "%"),
    m("trace.mirror_mismatches", "count"),
];

/// Per-layer metrics measured inside the decomposition engine, which the
/// traced run reaches only through its replica of the engine loop.
pub const ENGINE_PHASES: &[&str] = &[
    "bdd.reorder.ms",
    "bdd.reorder.calls",
    "bdd.reorder.nodes_saved",
    "logic.partition.ms",
    "logic.partition.cones",
    "logic.partition.bdd_nodes",
    "bdd.cache.hit_rate",
    "bdd.peak_nodes",
    "decomp.search.ms",
    "core.maj.ms",
    "core.maj.calls",
    "core.maj.accept_ratio",
    "bdd.gc.ms",
    "bdd.gc.collections",
    "logic.clean.ms",
    "logic.clean.gates_removed",
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["table1", "table2", "cli_batch"];

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile of `v` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Median of each metric over passes: every map must hold the same keys.
pub fn median_by_key(passes: &[Values]) -> Values {
    let mut out = Values::new();
    if let Some(first) = passes.first() {
        for &k in first.keys() {
            let v: Vec<f64> = passes.iter().map(|p| p[k]).collect();
            out.insert(k, median(&v));
        }
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and the value and
/// unit of every metric in `defs`. Panics if `values` does not hold
/// exactly those metrics, which would be a bug in a workload runner.
pub fn result_json(attempted: u64, failed: u64, defs: &[Metric], values: &Values) -> String {
    let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
    let mut got: Vec<&str> = values.keys().copied().collect();
    let mut want = names.clone();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "a workload emitted the wrong metric set");
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, d) in defs.iter().enumerate() {
        let v = values[d.name];
        assert!(v.is_finite(), "metric {} is not finite", d.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    out
}

/// Prints one human-readable metric line (`name = value unit`).
pub fn print_metric(name: &str, value: f64, unit: &str) {
    println!("  {name:<28} = {value:>14.6} {unit}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Just enough JSON to read `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    enum Json {
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
        Other,
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => {
                    &kv.iter()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("no key {key}"))
                        .1
                }
                _ => panic!("not an object"),
            }
        }
        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => panic!("not a string: {self:?}"),
            }
        }
        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                _ => panic!("not an array"),
            }
        }
        fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("not an object"),
            }
        }
    }

    fn parse(b: &[u8], i: &mut usize) -> Json {
        while b[*i].is_ascii_whitespace() {
            *i += 1;
        }
        match b[*i] {
            b'{' | b'[' => {
                let obj = b[*i] == b'{';
                *i += 1;
                let (mut kv, mut items) = (Vec::new(), Vec::new());
                loop {
                    while b[*i].is_ascii_whitespace() || b[*i] == b',' {
                        *i += 1;
                    }
                    if b[*i] == b'}' || b[*i] == b']' {
                        *i += 1;
                        return if obj { Json::Obj(kv) } else { Json::Arr(items) };
                    }
                    let v = parse(b, i);
                    if obj {
                        while b[*i] != b':' {
                            *i += 1;
                        }
                        *i += 1;
                        let Json::Str(k) = v else {
                            panic!("object key must be a string")
                        };
                        kv.push((k, parse(b, i)));
                    } else {
                        items.push(v);
                    }
                }
            }
            b'"' => {
                let start = *i + 1;
                *i = start;
                while b[*i] != b'"' {
                    *i += if b[*i] == b'\\' { 2 } else { 1 };
                }
                *i += 1;
                Json::Str(String::from_utf8(b[start..*i - 1].to_vec()).unwrap())
            }
            _ => {
                let start = *i;
                while !b",]}".contains(&b[*i]) && !b[*i].is_ascii_whitespace() {
                    *i += 1;
                }
                let tok = std::str::from_utf8(&b[start..*i]).unwrap();
                tok.parse().map_or(Json::Other, Json::Num)
            }
        }
    }

    /// `BENCHMARK.json` must list exactly the workloads and metrics (with
    /// their units) that the runner emits, with the keys the format allows.
    #[test]
    fn benchmark_json_lists_exactly_what_the_runner_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let j = parse(text.as_bytes(), &mut 0);
        assert_eq!(
            j.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<&str> = j
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for w in j.get("workloads").arr() {
            assert_eq!(w.keys(), ["name", "why"]);
            assert!(w.get("why").str().len() <= 200);
        }
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = j
                .get(section)
                .arr()
                .iter()
                .map(|m| {
                    let better = m.get("better").str();
                    assert!(better == "lower" || better == "higher");
                    (m.get("name").str(), m.get("unit").str())
                })
                .collect();
            let defs: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(listed, defs, "{section} differs from the runner");
        }
        for m in j.get("end_to_end").arr() {
            assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
            let Json::Num(bound) = m.get("bound") else {
                panic!("bound must be a number")
            };
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        for m in j.get("per_layer").arr() {
            assert_eq!(m.keys(), ["name", "unit", "better"]);
        }
        let Json::Num(secs) = j.get("run_seconds") else {
            panic!("run_seconds must be a number")
        };
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(secs));
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_valid_unique_and_within_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for w in WORKLOADS {
            assert!(valid_name(w));
        }
        for p in ENGINE_PHASES {
            assert!(PER_LAYER.iter().any(|d| d.name == *p));
        }
    }

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(
            (percentile(
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
                90.0
            ) - 10.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn result_line_holds_every_metric_with_full_digits() {
        let defs = [m("a_s", "s"), m("b", "count")];
        let values: Values = [("a_s", 0.123456789), ("b", 3.0)].into_iter().collect();
        let line = result_json(10, 0, &defs, &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_s\": \
             {\"value\": 0.123456789, \"unit\": \"s\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
