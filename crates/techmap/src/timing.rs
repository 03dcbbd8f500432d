//! Static timing and area reporting for mapped netlists — produces the
//! Area (µm²) / Gate Count / Delay (ns) triplets of Table II.

use crate::library::{CellKind, Library};
use crate::mapper::MappedNetwork;
use logic::SignalId;
use std::collections::HashMap;
use std::fmt;

/// Area, gate count and critical-path delay of a mapped netlist.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MappedReport {
    /// Total cell area in µm².
    pub area: f64,
    /// Number of mapped cells.
    pub gate_count: usize,
    /// Critical input-to-output delay in ns.
    pub delay: f64,
    /// Cells per kind.
    pub histogram: HashMap<CellKind, usize>,
}

impl fmt::Display for MappedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "area {:.2} µm², {} gates, delay {:.3} ns",
            self.area, self.gate_count, self.delay
        )
    }
}

/// Computes the area/gate-count/delay report of a mapped netlist under a
/// library. Delay uses a linear wire-load model: the cell's intrinsic delay
/// plus a per-extra-fanout term.
pub fn report(mapped: &MappedNetwork, lib: &Library) -> MappedReport {
    let net = &mapped.network;
    let fanouts = net.fanout_counts();
    let mut arrival: Vec<f64> = vec![0.0; net.len()];
    let mut area = 0.0;
    let mut gate_count = 0usize;
    let mut histogram: HashMap<CellKind, usize> = HashMap::new();
    let mut worst: f64 = 0.0;
    for id in net.signals() {
        let node = net.node(id);
        let input_arrival = node
            .fanins
            .iter()
            .map(|f| arrival[f.index()])
            .fold(0.0, f64::max);
        let t = match MappedNetwork::cell_of(net, id) {
            Some(kind) => {
                let cell = lib.cell(kind);
                area += cell.area;
                gate_count += 1;
                *histogram.entry(kind).or_insert(0) += 1;
                let load = lib.load_delay_per_fanout * fanouts[id.index()].saturating_sub(1) as f64;
                input_arrival + cell.delay + load
            }
            None => input_arrival,
        };
        arrival[id.index()] = t;
        worst = worst.max(t);
    }
    // Outputs define the measured paths.
    let delay = net
        .outputs()
        .iter()
        .map(|(_, s): &(String, SignalId)| arrival[s.index()])
        .fold(0.0, f64::max);
    MappedReport {
        area,
        gate_count,
        delay,
        histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::map_network;
    use logic::{GateKind, Network};

    #[test]
    fn report_counts_inverter_chain() {
        let mut net = Network::new("chain");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut cur = a;
        for i in 0..4 {
            let other = if i % 2 == 0 { b } else { a };
            let x = net.add_gate(GateKind::Xor, vec![cur, other]);
            cur = net.add_gate(GateKind::Maj, vec![x, a, b]);
        }
        net.set_output("y", cur);
        let mapped = map_network(&net);
        let lib = Library::cmos22();
        let r = report(&mapped, &lib);
        assert!(r.gate_count > 0);
        assert!(r.area > 0.0);
        assert!(r.delay > 0.0);
        assert_eq!(
            r.gate_count,
            r.histogram.values().sum::<usize>(),
            "histogram consistent with count"
        );
    }

    #[test]
    fn delay_grows_with_depth() {
        let lib = Library::cmos22();
        let build = |depth: usize| {
            let mut net = Network::new("d");
            let a = net.add_input("a");
            let b = net.add_input("b");
            let mut cur = a;
            for _ in 0..depth {
                cur = net.add_gate(GateKind::Xor, vec![cur, b]);
            }
            net.set_output("y", cur);
            // Prevent x ^ b ^ b collapse by alternating with AND.
            net
        };
        // XOR chains with even length collapse; use mapped depth directly.
        let shallow = report(&map_network(&build(1)), &lib);
        let deep = {
            let mut net = Network::new("deep");
            let a = net.add_input("a");
            let b = net.add_input("b");
            let x1 = net.add_gate(GateKind::Xor, vec![a, b]);
            let a1 = net.add_gate(GateKind::And, vec![x1, a]);
            let x2 = net.add_gate(GateKind::Xor, vec![a1, b]);
            let a2 = net.add_gate(GateKind::And, vec![x2, x1]);
            net.set_output("y", a2);
            report(&map_network(&net), &lib)
        };
        assert!(deep.delay > shallow.delay);
    }

    #[test]
    fn fanout_load_increases_delay() {
        let mut lib_heavy = Library::cmos22();
        lib_heavy.load_delay_per_fanout = 0.1;
        let mut net = Network::new("fan");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let x = net.add_gate(GateKind::Xor, vec![a, b]);
        // x drives three consumers.
        let c1 = net.add_gate(GateKind::Maj, vec![x, a, b]);
        let c2 = net.add_gate(GateKind::Xnor, vec![x, a]);
        let c3 = net.add_gate(GateKind::Xor, vec![x, b]);
        net.set_output("o1", c1);
        net.set_output("o2", c2);
        net.set_output("o3", c3);
        let mapped = map_network(&net);
        let light = report(&mapped, &Library::cmos22());
        let heavy = report(&mapped, &lib_heavy);
        assert!(heavy.delay > light.delay, "load model must matter");
    }

    #[test]
    fn empty_logic_reports_zero() {
        let mut net = Network::new("wire");
        let a = net.add_input("a");
        net.set_output("y", a);
        let mapped = map_network(&net);
        let r = report(&mapped, &Library::cmos22());
        assert_eq!(r.gate_count, 0);
        assert_eq!(r.area, 0.0);
        assert_eq!(r.delay, 0.0);
    }
}
