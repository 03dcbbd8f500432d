//! Delay-oriented AIG balancing (the `balance` step of ABC's `resyn2`):
//! maximal AND trees are rebuilt as balanced trees, pairing the
//! lowest-level operands first.

use crate::aig::{Aig, AigRef};
use logic::Network;

impl Aig {
    /// Returns a balanced copy of this AIG.
    pub fn balanced(&self) -> Aig {
        let mut map: std::collections::HashMap<AigRef, AigRef> = std::collections::HashMap::new();
        map.insert(AigRef::ONE, AigRef::ONE);
        let mut rebuilt = Aig::new(self.network_name());
        for i in 0..self.input_count() {
            let r = rebuilt.add_input(self.input_name(i));
            map.insert(self.input_ref(i), r);
        }
        let outputs: Vec<(String, AigRef)> = self.outputs().to_vec();
        for (name, r) in outputs {
            let nr = balance_edge(self, &mut rebuilt, r, &mut map);
            rebuilt.set_output(name, nr);
        }
        rebuilt
    }
}

/// Rebuilds edge `r` of `src` into `dst`, balancing AND trees.
fn balance_edge(
    src: &Aig,
    dst: &mut Aig,
    r: AigRef,
    map: &mut std::collections::HashMap<AigRef, AigRef>,
) -> AigRef {
    let reg = r.regular_edge();
    if let Some(&m) = map.get(&reg) {
        return m.apply_complement(r.is_complemented_edge());
    }
    // Collect the maximal AND tree under `reg` (stop at complemented
    // edges, inputs and constants).
    let mut leaves: Vec<AigRef> = Vec::new();
    collect_and_leaves(src, reg, &mut leaves);
    // Rebuild leaves first.
    let mut rebuilt: Vec<AigRef> = leaves
        .iter()
        .map(|&l| balance_edge(src, dst, l, map))
        .collect();
    // Pair lowest levels first (sort descending, pop from the back).
    rebuilt.sort_by_key(|&l| std::cmp::Reverse(dst.level(l)));
    while rebuilt.len() > 1 {
        let a = rebuilt.pop().expect("nonempty");
        let b = rebuilt.pop().expect("nonempty");
        let combined = dst.and(a, b);
        // Insert keeping the descending-level order.
        let pos = rebuilt
            .iter()
            .position(|&x| dst.level(x) <= dst.level(combined))
            .unwrap_or(rebuilt.len());
        rebuilt.insert(pos, combined);
    }
    let result = rebuilt.pop().unwrap_or(AigRef::ONE);
    map.insert(reg, result);
    result.apply_complement(r.is_complemented_edge())
}

fn collect_and_leaves(src: &Aig, r: AigRef, leaves: &mut Vec<AigRef>) {
    debug_assert!(!r.is_complemented_edge());
    match src.and_children(r) {
        Some((a, b)) => {
            for child in [a, b] {
                if !child.is_complemented_edge() && src.and_children(child).is_some() {
                    collect_and_leaves(src, child, leaves);
                } else {
                    leaves.push(child);
                }
            }
        }
        None => leaves.push(r),
    }
}

/// Runs the ABC-like optimization script: structural hashing on input,
/// then balance → refactor → balance (a light `resyn2` stand-in),
/// returning an AND/INV network ready for mapping.
pub fn abc_flow(net: &Network) -> Network {
    let aig = Aig::from_network(net);
    let aig = aig.balanced();
    let aig = aig.refactored();
    let aig = aig.balanced();
    aig.to_network()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{equiv_sim, GateKind, Network, SignalId};

    #[test]
    fn balancing_preserves_function() {
        let mut net = Network::new("chain");
        let ins: Vec<SignalId> = (0..8).map(|i| net.add_input(format!("i{i}"))).collect();
        // A long skewed AND chain.
        let mut cur = ins[0];
        for &i in &ins[1..] {
            cur = net.add_gate(GateKind::And, vec![cur, i]);
        }
        net.set_output("y", cur);
        let balanced = abc_flow(&net);
        assert_eq!(equiv_sim(&net, &balanced, 16, 3), Ok(()));
    }

    #[test]
    fn balancing_reduces_depth_of_skewed_chain() {
        let mut net = Network::new("chain");
        let ins: Vec<SignalId> = (0..16).map(|i| net.add_input(format!("i{i}"))).collect();
        let mut cur = ins[0];
        for &i in &ins[1..] {
            cur = net.add_gate(GateKind::And, vec![cur, i]);
        }
        net.set_output("y", cur);
        let balanced = abc_flow(&net);
        // Depth 15 chain must become a ~log-depth tree.
        assert!(
            balanced.depth() <= 6,
            "balanced depth {} too large",
            balanced.depth()
        );
    }

    #[test]
    fn abc_flow_handles_mixed_logic() {
        let mut net = Network::new("mixed");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.add_gate(GateKind::Xor, vec![a, b]);
        let m = net.add_gate(GateKind::Maj, vec![x, b, c]);
        let u = net.add_gate(GateKind::Mux, vec![c, m, x]);
        net.set_output("y", u);
        let out = abc_flow(&net);
        assert_eq!(equiv_sim(&net, &out, 16, 9), Ok(()));
        // Everything is AND/INV now.
        let counts = out.gate_counts();
        assert_eq!(counts.xor + counts.xnor + counts.maj + counts.mux, 0);
    }
}
