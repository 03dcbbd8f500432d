//! The `cli_batch` workload: the `bdsmaj` binary in multi-file mode
//! (`--jobs 2 --map -o DIR`) on a batch of BLIF files drawn from the
//! seed, closed loop, one invocation at a time.

use crate::layers;
use crate::metrics::{median, print_metric, Values, END_TO_END};
use crate::mirror::{decompose_traced, Counters};
use crate::rows::{self, Row};
use crate::sys::{wait_child, Exit, Usage};
use crate::trace::{now_ns, Trace};
use crate::{time_setup, timed_passes, Outcome, Run};
use bdsmaj::{bds_maj, BdsMajOptions, MajConfig, MajDecomposer};
use bench::pool;
use circuits::control::{random_control, random_sop, ControlConfig, SopConfig};
use circuits::{arith, crypto, extra};
use decomp::EngineOptions;
use logic::{
    equiv_sim, parse_blif, read_blif_file, write_blif, write_blif_file, Network, XorShift64,
};
use std::io::Read as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use techmap::{map_network, report, Library};

/// Worker count of every batch invocation (the container's core count).
const JOBS: usize = 2;

/// One drawn input file.
pub struct Circuit {
    /// File name (unique within the batch).
    pub file: String,
    /// The generated network, the reference for equivalence checks.
    pub net: Network,
}

/// Draws the batch of seed `seed`: sixteen control-logic circuits
/// (random SOP and multi-level control, the `bigkey` cipher) and sixteen
/// datapaths (eight arithmetic families, each twice).
///
/// Control circuits keep fixed shapes and take their generator seeds from
/// the draw. Each arithmetic family comes as a pair at widths `w0 - d`
/// and `w0 + d` with `d` drawn, so the batch's total work and size stay
/// close to constant across seeds while its circuits differ. Every node
/// has at most 16 inputs: the BLIF reader rejects wider covers.
pub fn draw(seed: u64) -> Vec<Circuit> {
    let mut rng = XorShift64::new(seed ^ 0xB1F5_BA7C_4000_0001);
    let mut next = move || rng.next_u64();
    let mut out: Vec<(String, Network)> = Vec::new();
    let sop = |inputs, outputs, cubes_per_output, literals_per_cube, seed| {
        random_sop(SopConfig {
            inputs,
            outputs,
            cubes_per_output,
            literals_per_cube,
            seed,
        })
    };
    for k in 0..4 {
        out.push((format!("sop{k}"), sop(17, 36, 10, 5, next())));
        out.push((format!("pla{k}"), sop(14, 22, 15, 7, next())));
        let config = ControlConfig {
            inputs: 135,
            outputs: 99,
            gates: 675,
            seed: next(),
        };
        out.push((format!("ctrl{k}"), random_control(config)));
    }
    for k in 0..2 {
        out.push((format!("bigkey{k}"), crypto::bigkey_like(2, next())));
        out.push((format!("seqpla{k}"), sop(41, 35, 16, 9, next())));
    }
    type Family = (&'static str, fn(u32) -> Network, u32, u32, u32);
    // (name, generator, centre width w0, largest offset, width step)
    let families: [Family; 8] = [
        ("cla", arith::cla_adder, 56, 8, 1),
        ("kogge", extra::kogge_stone_adder, 56, 8, 1),
        ("wallace", arith::wallace_multiplier, 12, 1, 1),
        ("booth", extra::booth_multiplier, 10, 1, 2),
        ("mac", arith::mac, 12, 1, 1),
        ("div", arith::divider, 14, 1, 1),
        ("rev", arith::reciprocal, 14, 1, 1),
        ("sqrt", arith::sqrt, 22, 1, 2),
    ];
    for (name, generate, w0, max_d, step) in families {
        let d = (next() % u64::from(max_d + 1)) as u32 * step;
        for w in [w0 - d, w0 + d] {
            out.push((format!("{name}{w}"), generate(w)));
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(i, (name, net))| Circuit {
            file: format!("{i:02}_{name}.blif"),
            net,
        })
        .collect()
}

/// Builds the `bdsmaj` binary (a no-op when it is fresh) and returns its
/// path under Cargo's target directory.
fn build_cli() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "bds_maj",
            "--bin",
            "bdsmaj",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building bdsmaj failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(target.join("release").join("bdsmaj"))
}

/// One finished `bdsmaj` invocation.
struct Invocation {
    exit: Exit,
    wall: f64,
    usage: Usage,
    stderr: String,
}

/// Runs `bdsmaj --jobs N --map -o out FILES...` and reaps it.
fn invoke(bin: &Path, jobs: usize, files: &[PathBuf], out: &Path) -> Result<Invocation, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(["--jobs", &jobs.to_string(), "--map", "-o"])
        .arg(out)
        .args(files)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stderr = String::new();
    let read = child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr);
    let (exit, usage) = wait_child(child.id()).map_err(|e| format!("wait4: {e}"))?;
    read.map_err(|e| format!("reading bdsmaj's stderr: {e}"))?;
    Ok(Invocation {
        exit,
        wall: start.elapsed().as_secs_f64(),
        usage,
        stderr,
    })
}

/// Area and delay of each file from the CLI's report: one `=== path ===`
/// section per input, in input order, holding a `mapped: area A µm², N
/// gates, delay D ns` line when the file succeeded (NaN otherwise).
fn mapped_lines(stderr: &str, n: usize) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = Vec::new();
    for line in stderr.lines() {
        if line.starts_with("=== ") {
            out.push((f64::NAN, f64::NAN));
        } else if let (Some(rest), Some(last)) =
            (line.strip_prefix("mapped: area "), out.last_mut())
        {
            let num = |s: Option<&str>| {
                s.and_then(|v| v.split(' ').next())
                    .and_then(|v| v.parse().ok())
            };
            *last = (
                num(Some(rest)).unwrap_or(f64::NAN),
                num(rest.split("delay ").nth(1)).unwrap_or(f64::NAN),
            );
        }
    }
    out.resize(n, (f64::NAN, f64::NAN));
    out
}

/// Reads every output file of the batch (`None` where one is missing).
fn read_outputs(dir: &Path, batch: &[Circuit]) -> Vec<Option<Vec<u8>>> {
    batch
        .iter()
        .map(|c| std::fs::read(dir.join(&c.file)).ok())
        .collect()
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// The benchmark's own check of one output: the re-read BLIF must match
/// the generated network on random vectors. Returns its gate count.
fn check_output(c: &Circuit, bytes: &[u8], seed: u64) -> Result<usize, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("{}: not UTF-8: {e}", c.file))?;
    let out = parse_blif(text).map_err(|e| format!("{}: unreadable output: {e}", c.file))?;
    let eq = catch_unwind(AssertUnwindSafe(|| equiv_sim(&c.net, &out, 16, seed)))
        .map_err(|_| format!("{}: output interface differs from the input", c.file))?;
    eq.map_err(|m| format!("{}: output differs from the input on {}", c.file, m.output))?;
    Ok(out.stats().gates)
}

/// Failure bookkeeping of a batch run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts `count` failed files, all for the reason `why`.
    fn fail(&mut self, count: u64, why: &str) {
        self.failed += count;
        eprintln!("cli_batch failure ({count} file(s)): {why}");
    }
}

/// The run's scratch directory, removed when the run ends, on a panic too.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the batch workload.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let bin = build_cli()?;
    let work = WorkDir(
        run.out_dir
            .join(format!("cli_batch-{}", std::process::id())),
    );
    run_in(run, &bin, &work.0)
}

fn run_in(run: &Run, bin: &Path, work: &Path) -> Result<Outcome, String> {
    let in_dir = work.join("in");
    fresh_dir(&in_dir)?;
    let batch = draw(run.seed);
    for c in &batch {
        let path = in_dir.join(&c.file);
        write_blif_file(&c.net, &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let files: Vec<PathBuf> = batch.iter().map(|c| in_dir.join(&c.file)).collect();
    let n = batch.len() as u64;
    let out = work.join("out");
    let mut tally = Tally::default();

    // The first successful invocation sets the reference: its outputs,
    // checked for equivalence, are what every later invocation and the
    // in-process replica must reproduce byte for byte.
    let mut reference: Vec<Option<Vec<u8>>> = vec![None; batch.len()];
    let mut report: Vec<Row> = Vec::new();
    let mut verify = |inv: &Invocation, jobs: usize, tally: &mut Tally| {
        let bytes = read_outputs(&out, &batch);
        if !report.is_empty() {
            for (i, got) in bytes.iter().enumerate() {
                if reference[i].is_some() && *got != reference[i] {
                    let file = &batch[i].file;
                    tally.fail(
                        1,
                        &format!("{file}: --jobs {jobs} output differs from the reference"),
                    );
                }
            }
            return;
        }
        let mapped = mapped_lines(&inv.stderr, batch.len());
        for (i, c) in batch.iter().enumerate() {
            let checked = bytes[i]
                .as_deref()
                .ok_or(format!("{}: no output", c.file))
                .and_then(|b| check_output(c, b, run.seed));
            let out_gates = match checked {
                Ok(g) => {
                    reference[i] = bytes[i].clone();
                    g as f64
                }
                Err(e) => {
                    tally.fail(1, &e);
                    f64::NAN
                }
            };
            let (area, delay) = mapped[i];
            report.push(Row {
                name: c.file.clone(),
                values: vec![c.net.stats().gates as f64, out_gates, area, delay],
            });
        }
    };
    // One invocation; every file of it fails if the child does not exit 0.
    let pass = |jobs: usize, tally: &mut Tally| -> Option<Invocation> {
        tally.attempted += n;
        let inv = fresh_dir(&out).and_then(|_| invoke(bin, jobs, &files, &out));
        match inv {
            Ok(inv) if inv.exit == Exit::Code(0) => Some(inv),
            Ok(inv) => {
                let tail: Vec<&str> = inv.stderr.lines().rev().take(3).collect();
                let why = format!(
                    "bdsmaj --jobs {jobs} ended with {:?}: {}",
                    inv.exit,
                    tail.join(" | ")
                );
                tally.fail(n, &why);
                None
            }
            Err(e) => {
                tally.fail(n, &e);
                None
            }
        }
    };

    // An untimed first invocation warms the caches and sets the reference.
    if let Some(inv) = pass(JOBS, &mut tally) {
        verify(&inv, JOBS, &mut tally);
    }
    if run.trace {
        return traced(run, &batch, &files, work, &reference, tally);
    }

    let (mut walls, mut cpus, mut rss, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    timed_passes(run.seconds, |_| {
        // The timed set-up draws the batch and runs the BLIF writer, but
        // does not put the text on disk again: rewriting the same files
        // waits on their write-back, and new files pile it up, host noise
        // that doubled this figure within a run.
        let texts =
            || -> Vec<String> { draw(run.seed).iter().map(|c| write_blif(&c.net)).collect() };
        setups.push(time_setup(texts).1);
        if let Some(inv) = pass(JOBS, &mut tally) {
            walls.push(inv.wall);
            cpus.push(inv.usage.cpu.as_secs_f64());
            rss.push(inv.usage.max_rss_mb);
            verify(&inv, JOBS, &mut tally);
        }
    });
    // Results must not depend on the worker count.
    if let Some(inv) = pass(1, &mut tally) {
        verify(&inv, 1, &mut tally);
    }
    if walls.is_empty() {
        return Err("no bdsmaj invocation succeeded".to_string());
    }

    let mut v = Values::new();
    v.insert("wall_s", median(&walls));
    v.insert("cpu_s", median(&cpus));
    v.insert("setup_s", median(&setups));
    v.insert("peak_rss_mb", median(&rss));
    v.insert(
        "out_gates",
        report
            .iter()
            .map(|r| r.values[1])
            .filter(|g| g.is_finite())
            .sum(),
    );

    println!(
        "cli_batch seed {} — {} files, {} invocations of bdsmaj --jobs {JOBS} --map, plus one at --jobs 1",
        run.seed,
        batch.len(),
        walls.len()
    );
    let expected = run.expected(&format!("cli_batch-seed{}", run.seed));
    rows::print_report(
        &["in_gates", "out_gates", "area_um2", "delay_ns"],
        &report,
        None,
        &expected,
    );
    run.write_file(
        "rows-cli_batch.tsv",
        &rows::to_tsv(&["in_gates", "out_gates", "area_um2", "delay_ns"], &report),
    )?;
    println!("end-to-end metrics:");
    for d in END_TO_END {
        print_metric(d.name, v[d.name], d.unit);
    }
    // A spawned child's ru_maxrss starts from its parent's peak, so the
    // child figure cannot read below this.
    if let Ok(own) = crate::sys::self_peak_rss_mb() {
        print_metric("runner_peak_rss_mb", own, "MB");
    }
    print_metric(
        "fail_rate",
        tally.failed as f64 / tally.attempted as f64,
        "ratio",
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values: v,
    })
}

thread_local! {
    static WORKER: u32 = {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// The CLI's per-file work (`synthesize` in `src/bin/bdsmaj.rs` for the
/// default BDS-MAJ flow with `--map`), minus its report text: flow,
/// 1088-vector check, mapping. Traced, the flow is the engine replica.
fn synthesize(
    net: &Network,
    budget: &bdd::JobBudget,
    lib: &Library,
    t: &mut Trace,
    c: &mut Counters,
    traced: bool,
) -> Result<Network, String> {
    let engine = EngineOptions {
        job_budget: Some(budget.clone()),
        ..EngineOptions::default()
    };
    let optimized = if traced {
        let id = t.begin("flow.bds_maj");
        let mut hook = MajDecomposer::new(MajConfig::default());
        let r = decompose_traced(net, &engine, Some(&mut hook), t, c);
        t.end(id);
        r?
    } else {
        bds_maj(
            net,
            &BdsMajOptions {
                engine,
                ..BdsMajOptions::default()
            },
        )
        .result
        .network
    };
    t.leaf("logic.verify", || equiv_sim(net, &optimized, 16, 0xC11))
        .map_err(|m| format!("optimization changed output {}", m.output))?;
    let mapped = t.leaf("techmap.map", || map_network(&optimized));
    let r = t.leaf("techmap.report", || report(&mapped, lib));
    c.map_cells += r.gate_count as u64;
    Ok(mapped.network)
}

/// One in-process pass of the CLI pipeline: read every file on this
/// thread, synthesize on the suite pool, write every output on this
/// thread. Returns the per-file errors.
fn replica_pass(
    files: &[PathBuf],
    out: &Path,
    lib: &Library,
    t: &mut Trace,
    c: &mut Counters,
    traced: bool,
) -> Vec<Option<String>> {
    let nets: Vec<Result<Network, String>> = files
        .iter()
        .map(|p| {
            t.leaf("logic.blif.read", || {
                read_blif_file(p).map_err(|e| e.to_string())
            })
        })
        .collect();
    let pool_span = t.begin("bench.pool");
    let results = pool::run_catching_with_budget(JOBS, nets.len(), |i, budget| {
        let mut tt = if traced {
            Trace::new(WORKER.with(|w| *w))
        } else {
            Trace::off()
        };
        tt.set_circuit(i as u32);
        let mut cc = Counters::default();
        let task = tt.begin("pool.task");
        let r = nets[i]
            .clone()
            .and_then(|net| synthesize(&net, budget, lib, &mut tt, &mut cc, traced));
        tt.end(task);
        (r, tt, cc)
    });
    t.end(pool_span);
    let mut errors = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        let r = match r {
            Ok((r, tt, cc)) => {
                t.absorb(tt, pool_span);
                c.merge(&cc);
                r
            }
            Err(panic) => Err(format!("task panicked: {panic}")),
        };
        errors.push(match r {
            Ok(net) => {
                let path = out.join(files[i].file_name().expect("input files have names"));
                let w = t.leaf("logic.blif.write", || write_blif_file(&net, &path));
                c.blif_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
                w.err()
                    .map(|e| format!("cannot write {}: {e}", path.display()))
            }
            Err(e) => Some(e),
        });
    }
    errors
}

/// The traced run: alternates untraced and traced in-process replica
/// passes of the CLI pipeline, each checked byte for byte against the
/// binary's reference outputs.
fn traced(
    run: &Run,
    batch: &[Circuit],
    files: &[PathBuf],
    work: &Path,
    reference: &[Option<Vec<u8>>],
    mut tally: Tally,
) -> Result<Outcome, String> {
    let lib = Library::cmos22();
    let out = work.join("replica");
    let (mut walls, mut traced_walls, mut per_pass) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    let mut last_trace = Trace::new(0);
    timed_passes(run.seconds, |k| {
        let traced = k % 2 == 1;
        if let Err(e) = fresh_dir(&out) {
            tally.fail(batch.len() as u64, &e);
            return;
        }
        let mut t = if traced { Trace::new(0) } else { Trace::off() };
        let mut c = Counters::default();
        let start = now_ns();
        let pass = t.begin("pass");
        let errors = replica_pass(files, &out, &lib, &mut t, &mut c, traced);
        t.end(pass);
        let wall = (now_ns() - start) as f64 / 1e9;
        tally.attempted += batch.len() as u64;
        let got = read_outputs(&out, batch);
        for (i, e) in errors.iter().enumerate() {
            let differs = reference[i].is_some() && got[i] != reference[i];
            match e {
                Some(e) => tally.fail(1, &format!("{}: {e}", batch[i].file)),
                None if differs && traced => {
                    mismatches += 1;
                    eprintln!(
                        "replica mismatch on {}: engine-phase metrics unavailable",
                        batch[i].file
                    );
                }
                None if differs => tally.fail(
                    1,
                    &format!("{}: in-process output differs from bdsmaj's", batch[i].file),
                ),
                None => {}
            }
        }
        if traced {
            traced_walls.push(wall);
            per_pass.push(layers::pass_values(&t, pass, &c, JOBS));
            last_trace = t;
        } else {
            walls.push(wall);
        }
    });
    run.write_file("trace-cli_batch.tsv", &last_trace.to_tsv())?;
    let v = layers::finish(&per_pass, &traced_walls, &walls, mismatches);
    println!(
        "cli_batch traced — {} traced and {} untraced in-process passes",
        traced_walls.len(),
        walls.len()
    );
    layers::print(&v, &per_pass);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values: v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::write_blif;

    fn batch_text(seed: u64) -> Vec<(String, String)> {
        draw(seed)
            .iter()
            .map(|c| (c.file.clone(), write_blif(&c.net)))
            .collect()
    }

    #[test]
    fn one_seed_always_yields_a_byte_identical_batch() {
        let a = batch_text(7);
        assert_eq!(a, batch_text(7));
        assert_ne!(a, batch_text(8), "another seed must draw other circuits");
        let mut names: Vec<&str> = a.iter().map(|(f, _)| f.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 32, "file names must be distinct");
    }

    #[test]
    fn every_drawn_file_is_readable_by_the_cli() {
        for seed in 1..=3 {
            for (file, text) in batch_text(seed) {
                assert!(
                    parse_blif(&text).is_ok(),
                    "seed {seed}: {file} does not parse"
                );
            }
        }
    }

    #[test]
    fn mapped_lines_are_read_in_input_order() {
        let err = "=== a ===\nstatus: failed\n=== b ===\nmapped: area 12.50 µm², 7 gates, delay 0.250 ns\n";
        let m = mapped_lines(err, 3);
        assert!(m[0].0.is_nan() && m[2].1.is_nan());
        assert_eq!(m[1], (12.5, 0.25));
    }
}
