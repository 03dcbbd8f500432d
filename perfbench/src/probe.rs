//! Host-speed probe for the table workloads: a fixed reference kernel
//! timed next to every pass, so that pass times taken on a shared host
//! whose speed drifts can be put on one scale.
//!
//! On a small shared virtual machine a vCPU's speed moves by up to 1.5x
//! for seconds to minutes at a time (other tenants on the same cores).
//! Every row of a table pass slows together, the 1 ms rows as much as
//! the 90 ms ones, so the drift is the host's, not the program's. The
//! probe is general Rust work — formatting, parsing, ordered and hashed
//! maps, sorting — whose code belongs to the benchmark and never
//! changes. It is timed before each pass and after the last; a pass's
//! time is divided by the mean of the probes on either side and
//! multiplied by [`REFERENCE_S`], giving the pass time on a host where
//! the probe takes [`REFERENCE_S`]. A program that gets twice as fast
//! halves the scaled time; a host that slows leaves it where it was.
//!
//! Kernels were compared by recording them all beside the same table
//! passes on a 2-vCPU KVM guest (Xeon, 2.1 GHz). Tight loops with a tiny
//! code footprint — a dependent multiply chain, a random walk over
//! 32 MiB, a bare hash-map loop — tracked the drift least; this mix
//! tracked it best (table2 `wall_s` spread over eight runs: 12.7 %
//! unscaled, 4.0 % scaled). On a quiet host scaling adds a few percent
//! of its own. `cli_batch`, a two-worker child process, is not scaled:
//! there the probe added spread.

use crate::metrics::{median, print_metric};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Probe time, in seconds, of the host the scale refers to: a round
/// figure near what the kernel takes on a 2.1 GHz Xeon vCPU of a shared
/// host (11 to 14 ms). Scaled times are "seconds on a host where the
/// probe takes this long".
pub const REFERENCE_S: f64 = 0.010;

/// Steps of the reference kernel.
const STEPS: u32 = 20_000;

/// Probe times of one run, in order, one before each pass and one after
/// the last.
#[derive(Default)]
pub struct Probe {
    times: Vec<f64>,
}

impl Probe {
    /// Times the reference kernel once more and records it.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::hint::black_box(kernel());
        self.times.push(start.elapsed().as_secs_f64());
    }

    /// Median of the per-pass times `per_pass` on the reference scale.
    /// Pass `k` ran between samples `k` and `k + 1`; a pass with no later
    /// sample uses its earlier one alone.
    pub fn scaled_median(&self, per_pass: &[f64]) -> f64 {
        let scaled: Vec<f64> = per_pass
            .iter()
            .enumerate()
            .map(|(k, t)| {
                let before = self.times[k.min(self.times.len() - 1)];
                let after = self.times.get(k + 1).copied().unwrap_or(before);
                t * REFERENCE_S / (0.5 * (before + after))
            })
            .collect();
        median(&scaled)
    }
}

/// Prints the unscaled medians beside the probe's, for the report.
pub fn print_raw(probe: &Probe, walls: &[f64], cpus: &[f64], setups: &[f64]) {
    println!("unscaled (as the host ran them):");
    print_metric("raw_wall_s", median(walls), "s");
    print_metric("raw_cpu_s", median(cpus), "s");
    print_metric("raw_setup_s", median(setups), "s");
    print_metric("probe_s", median(&probe.times), "s");
    print_metric("probe_reference_s", REFERENCE_S, "s");
}

/// The reference kernel: general Rust work of the kind the flows do
/// between BDD calls — formatting and parsing names, an ordered map of
/// strings, a hash map of vectors (SipHash under fixed keys) and a sort
/// with a two-key closure — on xorshift-drawn data. Returns a checksum
/// so the work cannot be optimised away.
fn kernel() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut text = String::new();
    let mut names: BTreeMap<String, u32> = BTreeMap::new();
    let mut groups: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut sum = 0u64;
    for step in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        text.clear();
        let _ = write!(text, "n{}_{:x}", x % 5000, step % 97);
        *names.entry(text.clone()).or_insert(0) += 1;
        let id: u64 = text[1..text.find('_').unwrap_or(1)].parse().unwrap_or(0);
        groups.entry(id % 700).or_default().push(step);
        if step % 64 == 63 {
            let mut top: Vec<(u32, &String)> =
                names.iter().take(200).map(|(k, &c)| (c, k)).collect();
            top.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
            sum = sum.wrapping_add(top.len() as u64 + u64::from(top[0].0));
        }
    }
    sum + names.len() as u64 + groups.values().map(|v| v.len() as u64).sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_times_use_the_probes_on_either_side() {
        let p = Probe {
            times: vec![REFERENCE_S, 3.0 * REFERENCE_S, 2.0 * REFERENCE_S],
        };
        // Pass 0 between probes 1x and 3x (mean 2x), pass 1 between 3x
        // and 2x (mean 2.5x): both scale to 1 s.
        assert!((p.scaled_median(&[2.0, 2.5]) - 1.0).abs() < 1e-12);
        // A pass after the last sample uses that sample alone.
        assert!((p.scaled_median(&[2.0, 2.5, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
