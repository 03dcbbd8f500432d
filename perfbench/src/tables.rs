//! The `table1` and `table2` workloads: the paper's 17 circuits through
//! the per-row work of `bench::table1_row_with` / `bench::table2_row_with`,
//! in process, one row at a time (jobs = 1), closed loop.

use crate::layers;
use crate::metrics::{median, percentile, print_metric, Values};
use crate::mirror::{decompose_traced, Counters};
use crate::probe::Probe;
use crate::rows::{self, Row};
use crate::sys::{self_peak_rss_mb, self_usage};
use crate::trace::{now_ns, Trace};
use crate::{timed_passes, Outcome, Run};
use bdsmaj::{MajConfig, MajDecomposer};
use bench::{table1_row_with, table2_row_with, RowStatus};
use circuits::suite::{benchmark, group_of, Benchmark, PAPER_BENCHMARKS};
use decomp::EngineOptions;
use logic::{equiv_sim, GateCounts, Network};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use techmap::{map_network, report, Library, MappedReport};

/// Which table.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Table {
    One,
    Two,
}

const T1_COLUMNS: &[&str] = &[
    "maj_and",
    "maj_or",
    "maj_xor",
    "maj_xnor",
    "maj_maj",
    "maj_total",
    "pga_total",
];
const T2_COLUMNS: &[&str] = &[
    "maj_gates",
    "maj_area",
    "maj_delay",
    "pga_gates",
    "pga_area",
    "pga_delay",
    "abc_gates",
    "abc_area",
    "abc_delay",
    "dc_gates",
    "dc_area",
    "dc_delay",
];

impl Table {
    fn name(self) -> &'static str {
        match self {
            Table::One => "table1",
            Table::Two => "table2",
        }
    }

    fn columns(self) -> &'static [&'static str] {
        match self {
            Table::One => T1_COLUMNS,
            Table::Two => T2_COLUMNS,
        }
    }

    /// Columns produced by the BDS-MAJ / BDS-PGA engine, which the traced
    /// replica must reproduce exactly.
    fn engine_columns(self) -> usize {
        match self {
            Table::One => T1_COLUMNS.len(),
            Table::Two => 6,
        }
    }
}

/// Builds the 17 circuits afresh (the shared `paper_suite` is built once
/// per process, which would hide set-up time after the first call).
fn build_suite() -> Vec<Benchmark> {
    PAPER_BENCHMARKS
        .iter()
        .map(|&name| Benchmark {
            name,
            group: group_of(name),
            network: benchmark(name).expect("every paper benchmark has a generator"),
        })
        .collect()
}

/// [`T1_COLUMNS`] of a row: BDS-MAJ counts `m`, BDS-PGA counts `p`.
fn t1_cols(m: GateCounts, p: GateCounts) -> Vec<f64> {
    let cols = [
        m.and,
        m.or,
        m.xor,
        m.xnor,
        m.maj,
        m.decomposition_total(),
        p.decomposition_total(),
    ];
    cols.iter().map(|&c| c as f64).collect()
}

/// Three [`T2_COLUMNS`] of one flow.
fn mapped_cols(r: &MappedReport) -> [f64; 3] {
    [r.gate_count as f64, r.area, r.delay]
}

/// One untraced row: its quality columns and whether it passed (verified
/// and status `Ok`). A panicking row fails with no columns.
fn row(table: Table, b: &Benchmark, engine: &EngineOptions, lib: &Library) -> (Vec<f64>, bool) {
    let r = catch_unwind(AssertUnwindSafe(|| match table {
        Table::One => {
            let r = table1_row_with(b, engine);
            (
                t1_cols(r.maj, r.pga),
                r.verified && r.status == RowStatus::Ok,
            )
        }
        Table::Two => {
            let r = table2_row_with(b, lib, engine);
            let cols = [&r.bds_maj, &r.bds_pga, &r.abc, &r.dc]
                .into_iter()
                .flat_map(mapped_cols)
                .collect();
            (cols, r.verified && r.status == RowStatus::Ok)
        }
    }));
    r.unwrap_or_else(|_| (Vec::new(), false))
}

/// The traced replica of [`row`]: the same calls in the same order, with
/// the two decomposition flows rebuilt by [`decompose_traced`]. Returns
/// the columns, whether every check passed, and the replica's error if
/// it could not mirror a flow.
fn traced_row(
    table: Table,
    b: &Benchmark,
    engine: &EngineOptions,
    lib: &Library,
    t: &mut Trace,
    c: &mut Counters,
) -> Result<(Vec<f64>, bool), String> {
    let net = &b.network;
    let flow = |t: &mut Trace, c: &mut Counters, maj: bool| -> Result<Network, String> {
        let id = t.begin(if maj { "flow.bds_maj" } else { "flow.bds_pga" });
        let mut hook = MajDecomposer::new(MajConfig::default());
        let r = decompose_traced(net, engine, maj.then_some(&mut hook), t, c);
        t.end(id);
        r
    };
    let with = flow(t, c, true)?;
    let without = flow(t, c, false)?;
    match table {
        Table::One => {
            let verified = t.leaf("logic.verify", || {
                equiv_sim(net, &with, 4, 0xBD5).is_ok()
                    && equiv_sim(net, &without, 4, 0xBD5).is_ok()
            });
            Ok((t1_cols(with.gate_counts(), without.gate_counts()), verified))
        }
        Table::Two => {
            let synth = |t: &mut Trace, c: &mut Counters, optimized: &Network| {
                let mapped = t.leaf("techmap.map", || map_network(optimized));
                let ok = t.leaf("logic.verify", || {
                    equiv_sim(net, &mapped.network, 4, 0xDA13).is_ok()
                });
                let r = t.leaf("techmap.report", || report(&mapped, lib));
                c.map_cells += r.gate_count as u64;
                (r, ok)
            };
            let (r_maj, ok1) = synth(t, c, &with);
            let (r_pga, ok2) = synth(t, c, &without);
            let abc = t.leaf("baselines.abc", || baselines::abc_flow(net));
            let (r_abc, ok3) = synth(t, c, &abc);
            let dc = t.leaf("baselines.dc", || baselines::dc_flow(net, lib).network);
            let (r_dc, ok4) = synth(t, c, &dc);
            let cols = [&r_maj, &r_pga, &r_abc, &r_dc]
                .into_iter()
                .flat_map(mapped_cols)
                .collect();
            Ok((cols, ok1 && ok2 && ok3 && ok4))
        }
    }
}

/// Failure and timing records of a table run.
struct Tally {
    attempted: u64,
    failures: u64,
    failed: Vec<bool>,
    /// Quality columns of the first untraced pass, which every later
    /// pass must repeat exactly.
    reference: Option<Vec<Vec<f64>>>,
    walls: Vec<f64>,
    cpus: Vec<f64>,
    latencies: Vec<Vec<f64>>,
}

impl Tally {
    fn new(n: usize) -> Tally {
        Tally {
            attempted: 0,
            failures: 0,
            failed: vec![false; n],
            reference: None,
            walls: Vec::new(),
            cpus: Vec::new(),
            latencies: vec![Vec::new(); n],
        }
    }

    fn record(&mut self, i: usize, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures += 1;
            self.failed[i] = true;
        }
    }

    /// One untraced pass over the suite.
    fn untraced_pass(
        &mut self,
        table: Table,
        suite: &[Benchmark],
        engine: &EngineOptions,
        lib: &Library,
    ) {
        let cpu0 = self_usage().cpu;
        let start = Instant::now();
        let mut cols = Vec::with_capacity(suite.len());
        for (i, b) in suite.iter().enumerate() {
            let t0 = Instant::now();
            cols.push(row(table, b, engine, lib));
            self.latencies[i].push(t0.elapsed().as_secs_f64() * 1e3);
        }
        self.walls.push(start.elapsed().as_secs_f64());
        self.cpus.push((self_usage().cpu - cpu0).as_secs_f64());
        if self.reference.is_none() {
            self.reference = Some(cols.iter().map(|(c, _)| c.clone()).collect());
        }
        for (i, (c, ok)) in cols.into_iter().enumerate() {
            let same = self.reference.as_ref().is_some_and(|r| r[i] == c);
            self.record(i, ok && !c.is_empty() && same);
        }
    }
}

/// Runs a table workload; see the crate docs for what is measured.
pub fn run(table: Table, run: &Run) -> Result<Outcome, String> {
    let suite = build_suite();
    let engine = EngineOptions::default();
    let lib = Library::cmos22();
    let mut tally = Tally::new(suite.len());

    if !run.trace {
        let mut setups = Vec::new();
        let mut probe = Probe::default();
        timed_passes(run.seconds, |_| {
            probe.sample();
            setups.push(crate::time_setup(build_suite).1);
            tally.untraced_pass(table, &suite, &engine, &lib)
        });
        probe.sample();
        return finish_untraced(table, run, &suite, tally, &setups, &probe);
    }

    // Traced run: alternate untraced and traced passes so drift hits both.
    let mut traced_walls = Vec::new();
    let mut per_pass = Vec::new();
    let mut mismatches = 0u64;
    let mut last_trace = Trace::new(0);
    timed_passes(run.seconds, |k| {
        if k % 2 == 0 {
            tally.untraced_pass(table, &suite, &engine, &lib);
            return;
        }
        let reference = tally.reference.clone().expect("an untraced pass ran first");
        let mut t = Trace::new(0);
        let mut c = Counters::default();
        let start = now_ns();
        let pass = t.begin("pass");
        for (i, b) in suite.iter().enumerate() {
            t.set_circuit(i as u32);
            let id = t.begin("row");
            let r = catch_unwind(AssertUnwindSafe(|| {
                traced_row(table, b, &engine, &lib, &mut t, &mut c)
            }));
            t.end(id);
            match r {
                Ok(Ok((cols, ok))) => {
                    let split = table.engine_columns();
                    if reference[i].is_empty() || cols[..split] != reference[i][..split] {
                        mismatches += 1;
                        eprintln!(
                            "replica mismatch on {}: engine-phase metrics unavailable",
                            b.name
                        );
                    }
                    tally.record(i, ok && reference[i].get(split..) == Some(&cols[split..]));
                }
                Ok(Err(reason)) => {
                    mismatches += 1;
                    eprintln!("replica unavailable on {}: {reason}", b.name);
                    tally.record(i, true);
                }
                Err(_) => tally.record(i, false),
            }
        }
        t.end(pass);
        traced_walls.push((now_ns() - start) as f64 / 1e9);
        per_pass.push(layers::pass_values(&t, pass, &c, 0));
        last_trace = t;
    });
    run.write_file(&format!("trace-{}.tsv", table.name()), &last_trace.to_tsv())?;
    let v = layers::finish(&per_pass, &traced_walls, &tally.walls, mismatches);
    println!(
        "{} traced — {} traced and {} untraced passes",
        table.name(),
        traced_walls.len(),
        tally.walls.len()
    );
    layers::print(&v, &per_pass);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failures,
        values: v,
    })
}

/// End-to-end values and the human-readable report of an untraced run.
fn finish_untraced(
    table: Table,
    run: &Run,
    suite: &[Benchmark],
    tally: Tally,
    setups: &[f64],
    probe: &Probe,
) -> Result<Outcome, String> {
    let reference = tally.reference.expect("at least one pass ran");
    let rows: Vec<Row> = suite
        .iter()
        .zip(&reference)
        .map(|(b, v)| Row {
            name: b.name.to_string(),
            values: v.clone(),
        })
        .collect();
    let sum = |k: usize| {
        rows.iter()
            .map(|r| r.values.get(k).copied().unwrap_or(0.0))
            .sum::<f64>()
    };
    let mut v = Values::new();
    v.insert("wall_s", probe.scaled_median(&tally.walls));
    v.insert("cpu_s", probe.scaled_median(&tally.cpus));
    v.insert("setup_s", probe.scaled_median(setups));
    v.insert(
        "peak_rss_mb",
        self_peak_rss_mb().map_err(|e| format!("peak resident set: {e}"))?,
    );
    v.insert("out_gates", sum(if table == Table::One { 5 } else { 0 }));

    println!(
        "{} — {} passes of {} rows, jobs 1",
        table.name(),
        tally.walls.len(),
        suite.len()
    );
    let row_p50: Vec<f64> = tally.latencies.iter().map(|l| median(l)).collect();
    run.write_file(
        &format!("rows-{}.tsv", table.name()),
        &rows::to_tsv(table.columns(), &rows),
    )?;
    rows::print_report(
        table.columns(),
        &rows,
        Some(&row_p50),
        &run.expected(table.name()),
    );
    for (b, f) in suite.iter().zip(&tally.failed) {
        if *f {
            println!("  FAILED row: {}", b.name);
        }
    }
    let all: Vec<f64> = tally.latencies.iter().flatten().copied().collect();
    println!("end-to-end metrics:");
    for d in crate::metrics::END_TO_END {
        print_metric(d.name, v[d.name], d.unit);
    }
    crate::probe::print_raw(probe, &tally.walls, &tally.cpus, setups);
    let p90 = percentile(&all, 90.0);
    let beyond = all.iter().filter(|&&l| l > p90).count();
    print_metric("circuit_ms_p50", median(&all), "ms");
    print_metric("circuit_ms_p90", p90, "ms");
    println!("  (latency samples: {}, beyond p90: {beyond})", all.len());
    print_metric(
        "fail_rate",
        tally.failures as f64 / tally.attempted as f64,
        "ratio",
    );
    match table {
        Table::One => {
            print_metric("maj_nodes", sum(5), "nodes");
            print_metric("pga_nodes", sum(6), "nodes");
        }
        Table::Two => {
            print_metric("maj_area_um2", sum(1), "um2");
            print_metric("maj_delay_ns", sum(2), "ns");
        }
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failures,
        values: v,
    })
}
