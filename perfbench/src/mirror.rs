//! The traced run's replica of `decomp::decompose_network`.
//!
//! The engine phases (partition, per-cone reorder, dominator search, the
//! majority hook, collection, clean-up) all run inside that one public
//! call, so the benchmark rebuilds its unbudgeted loop from public calls
//! and puts a span around each. Callers compare the replica's gate counts
//! with the real `bds_maj` / `bds_pga` output; when a later engine change
//! makes them differ, the engine-phase numbers are reported unavailable.

use crate::trace::Trace;
use bdd::{Manager, Ref};
use bdsmaj::MajDecomposer;
use decomp::{
    try_decompose_function, Emitter, EngineOptions, FunctionEmitter, MajorityHook, NoMajority,
    ReorderPolicy,
};
use logic::{partition_with_limits, Network, SignalId};
use std::collections::HashMap;

/// Per-layer counts gathered alongside the spans of one pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// `window_reorder` calls.
    pub reorder_calls: u64,
    /// Σ cone BDD size before minus after reordering.
    pub nodes_saved: i64,
    /// Supernode cones built by partitioning.
    pub cones: u64,
    /// Σ cone BDD sizes right after partitioning.
    pub partition_bdd_nodes: u64,
    /// Computed-cache probes, summed over managers.
    pub cache_lookups: u64,
    /// Computed-cache hits, summed over managers.
    pub cache_hits: u64,
    /// Largest node arena of any manager.
    pub peak_nodes: u64,
    /// Majority-hook calls.
    pub maj_calls: u64,
    /// Majority-hook calls that returned a decomposition.
    pub maj_accepted: u64,
    /// Garbage collections (`gc_epoch` delta over the whole flow).
    pub collections: u64,
    /// Nodes `Network::cleaned` removed.
    pub gates_removed: u64,
    /// Cells produced by `techmap::map_network`.
    pub map_cells: u64,
    /// BLIF bytes written.
    pub blif_bytes: u64,
}

impl Counters {
    /// Adds `o` into `self` (peak nodes: maximum).
    pub fn merge(&mut self, o: &Counters) {
        self.reorder_calls += o.reorder_calls;
        self.nodes_saved += o.nodes_saved;
        self.cones += o.cones;
        self.partition_bdd_nodes += o.partition_bdd_nodes;
        self.cache_lookups += o.cache_lookups;
        self.cache_hits += o.cache_hits;
        self.peak_nodes = self.peak_nodes.max(o.peak_nodes);
        self.maj_calls += o.maj_calls;
        self.maj_accepted += o.maj_accepted;
        self.collections += o.collections;
        self.gates_removed += o.gates_removed;
        self.map_cells += o.map_cells;
        self.blif_bytes += o.blif_bytes;
    }
}

/// Wraps the majority hook so every `try_majority` call is a span nested
/// in the dominator search that made it.
struct TimedHook<'a> {
    inner: &'a mut MajDecomposer,
    trace: &'a mut Trace,
    calls: u64,
    accepted: u64,
}

impl MajorityHook for TimedHook<'_> {
    fn try_majority(&mut self, m: &mut Manager, f: Ref) -> Option<[Ref; 3]> {
        let id = self.trace.begin("core.maj");
        let r = self.inner.try_majority(m, f);
        self.trace.end(id);
        self.calls += 1;
        self.accepted += u64::from(r.is_some());
        r
    }
}

/// Traced `decompose_network`: BDS-MAJ with `maj = Some(hook)`, BDS-PGA
/// with `None`. Only unbudgeted runs under the `Window` or `None`
/// reordering policy are mirrored; anything else, or a cone the engine
/// would degrade, is an error.
// The partition protects every supernode function and the loop releases
// each one once its gates are emitted, as the engine does.
pub fn decompose_traced(
    net: &Network,
    options: &EngineOptions,
    mut maj: Option<&mut MajDecomposer>,
    trace: &mut Trace,
    c: &mut Counters,
) -> Result<Network, String> {
    if options.limits.is_limited()
        || !matches!(options.reorder, ReorderPolicy::Window | ReorderPolicy::None)
    {
        return Err("the mirror covers unbudgeted Window/None runs only".to_string());
    }
    let mut manager = Manager::with_capacity(
        (net.len() * 16).clamp(1 << 12, 1 << 20),
        bdd::DEFAULT_CACHE_BITS,
    );
    manager.set_job_budget(options.job_budget.clone());
    let part = trace.leaf("logic.partition", || {
        partition_with_limits(net, &mut manager, options.partition, options.limits)
    });
    c.cones += part.supernodes.len() as u64;
    c.partition_bdd_nodes += part.total_bdd_size(&manager) as u64;

    let mut out = Network::new(net.name().to_string());
    let mut emitter = Emitter::new();
    let mut signal_map: HashMap<SignalId, SignalId> = HashMap::new();
    for &pi in net.inputs() {
        let new = out.add_input(net.signal_name(pi));
        signal_map.insert(pi, new);
    }
    for sn in &part.supernodes {
        if sn.degraded {
            return Err(format!("cone {} degraded", net.signal_name(sn.root)));
        }
        let var_signals: Vec<SignalId> = sn.inputs.iter().map(|s| signal_map[s]).collect();
        let function = sn.function;
        let cone_size = manager.size(function);
        if options.reorder == ReorderPolicy::Window
            && options.reorder_window >= 2
            && var_signals.len() >= 3
            && cone_size >= options.reorder_min_size
            && cone_size <= options.reorder_size_limit
        {
            let r = trace.leaf("bdd.reorder", || {
                bdd::window_reorder(&mut manager, function, options.reorder_window, 4)
            });
            c.reorder_calls += 1;
            c.nodes_saved += cone_size as i64 - r.size as i64;
        }
        manager.protect(function);
        let search = trace.begin("decomp.search");
        let mut fe = FunctionEmitter::new(var_signals);
        let attempt = match maj.as_deref_mut() {
            Some(inner) => {
                let mut hook = TimedHook {
                    inner,
                    trace: &mut *trace,
                    calls: 0,
                    accepted: 0,
                };
                let r = try_decompose_function(
                    &mut manager,
                    function,
                    &mut fe,
                    &mut emitter,
                    &mut out,
                    options,
                    &mut hook,
                    0,
                );
                c.maj_calls += hook.calls;
                c.maj_accepted += hook.accepted;
                r
            }
            None => try_decompose_function(
                &mut manager,
                function,
                &mut fe,
                &mut emitter,
                &mut out,
                options,
                &mut NoMajority,
                0,
            ),
        };
        drop(fe);
        trace.end(search);
        let sig = attempt.map_err(|e| format!("cone aborted: {e:?}"))?;
        signal_map.insert(sn.root, sig);
        manager.release(function);
        manager.release(sn.function);
        trace.leaf("bdd.gc", || {
            manager.maybe_sift();
            manager.maybe_collect();
        });
    }
    for (name, s) in net.outputs() {
        out.set_output(name.clone(), signal_map[s]);
    }
    let stats = manager.cache_stats();
    c.cache_lookups += stats.lookups;
    c.cache_hits += stats.hits;
    c.peak_nodes = c.peak_nodes.max(stats.peak_nodes as u64);
    c.collections += manager.gc_epoch();
    let cleaned = trace.leaf("logic.clean", || out.cleaned());
    c.gates_removed += (out.len() - cleaned.len()) as u64;
    Ok(cleaned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdsmaj::{bds_maj, bds_pga, BdsMajOptions, MajConfig};

    #[test]
    fn mirror_matches_both_flows_on_a_small_circuit() {
        let net = circuits::arith::cla_adder(8);
        let opts = EngineOptions::default();
        let mut trace = Trace::new(0);
        let mut c = Counters::default();
        let mut hook = MajDecomposer::new(MajConfig::default());
        let maj = decompose_traced(&net, &opts, Some(&mut hook), &mut trace, &mut c).unwrap();
        let pga = decompose_traced(&net, &opts, None, &mut trace, &mut c).unwrap();
        let real_maj = bds_maj(&net, &BdsMajOptions::default());
        let real_pga = bds_pga(&net, &opts);
        assert_eq!(maj.gate_counts(), real_maj.network().gate_counts());
        assert_eq!(pga.gate_counts(), real_pga.network.gate_counts());
        assert!(c.cones > 0 && c.maj_calls > 0);
        assert!(trace.spans.iter().any(|s| s.name == "core.maj"));
    }
}
