//! And-Inverter Graph with structural hashing — the substrate of the
//! ABC-like baseline flow.
//!
//! AIGs represent everything with two-input ANDs and complemented edges;
//! that AND/INV-centric view is exactly why an AIG optimizer is blind to
//! the XOR/MAJ structure of datapath circuits, which is the contrast the
//! paper's Table II demonstrates.

use logic::{GateKind, Network, SignalId, SignalMap, TruthTable};
use std::collections::HashMap;

/// A (possibly complemented) edge to an AIG node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AigRef(u32);

impl AigRef {
    /// The constant true edge.
    pub const ONE: AigRef = AigRef(0);
    /// The constant false edge.
    pub const ZERO: AigRef = AigRef(1);

    fn new(node: u32, complemented: bool) -> AigRef {
        AigRef(node << 1 | complemented as u32)
    }

    fn node(self) -> u32 {
        self.0 >> 1
    }

    fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this edge is one of the two constants.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }
}

impl AigRef {
    /// The same edge with the complement attribute cleared.
    pub fn regular_edge(self) -> AigRef {
        AigRef(self.0 & !1)
    }

    /// Whether the edge carries the complement attribute.
    pub fn is_complemented_edge(self) -> bool {
        self.is_complemented()
    }

    /// Applies a complement flag to this edge.
    pub fn apply_complement(self, c: bool) -> AigRef {
        AigRef(self.0 ^ c as u32)
    }
}

impl std::ops::Not for AigRef {
    type Output = AigRef;

    fn not(self) -> AigRef {
        AigRef(self.0 ^ 1)
    }
}

#[derive(Clone, Copy, Debug)]
enum AigNode {
    Const,
    Input,
    And(AigRef, AigRef),
}

/// A structurally hashed and-inverter graph.
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<AigNode>,
    strash: HashMap<(AigRef, AigRef), u32>,
    inputs: Vec<(String, AigRef)>,
    outputs: Vec<(String, AigRef)>,
    levels: Vec<u32>,
    name: String,
}

impl Aig {
    /// Creates an empty AIG.
    pub fn new(name: impl Into<String>) -> Aig {
        Aig {
            nodes: vec![AigNode::Const],
            strash: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            levels: vec![0],
            name: name.into(),
        }
    }

    /// Adds a primary input named `name` ([`Self::to_network`] keeps the
    /// name).
    pub fn add_input(&mut self, name: impl Into<String>) -> AigRef {
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode::Input);
        self.levels.push(0);
        let r = AigRef::new(id, false);
        self.inputs.push((name.into(), r));
        r
    }

    /// Declares an output.
    pub fn set_output(&mut self, name: impl Into<String>, r: AigRef) {
        self.outputs.push((name.into(), r));
    }

    /// Structurally hashed AND with constant/identity folding.
    pub fn and(&mut self, a: AigRef, b: AigRef) -> AigRef {
        if a == AigRef::ZERO || b == AigRef::ZERO || a == !b {
            return AigRef::ZERO;
        }
        if a == AigRef::ONE {
            return b;
        }
        if b == AigRef::ONE || a == b {
            return a;
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(x, y)) {
            return AigRef::new(id, false);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(x, y));
        let lvl = self.levels[x.node() as usize].max(self.levels[y.node() as usize]) + 1;
        self.levels.push(lvl);
        self.strash.insert((x, y), id);
        AigRef::new(id, false)
    }

    /// Disjunction via De Morgan.
    pub fn or(&mut self, a: AigRef, b: AigRef) -> AigRef {
        !self.and(!a, !b)
    }

    /// Exclusive or (three ANDs).
    pub fn xor(&mut self, a: AigRef, b: AigRef) -> AigRef {
        let t1 = self.and(a, !b);
        let t2 = self.and(!a, b);
        self.or(t1, t2)
    }

    /// Multiplexer `s ? t : e`.
    pub fn mux(&mut self, s: AigRef, t: AigRef, e: AigRef) -> AigRef {
        let a1 = self.and(s, t);
        let a2 = self.and(!s, e);
        self.or(a1, a2)
    }

    /// Three-input majority (AND/OR expansion — no MAJ primitive here).
    pub fn maj(&mut self, a: AigRef, b: AigRef, c: AigRef) -> AigRef {
        let ab = self.and(a, b);
        let bc = self.and(b, c);
        let ac = self.and(a, c);
        let t = self.or(ab, bc);
        self.or(t, ac)
    }

    /// Number of AND nodes reachable from the outputs.
    pub fn and_count(&self) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = self.outputs.iter().map(|(_, r)| r.node()).collect();
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if seen[id as usize] {
                continue;
            }
            seen[id as usize] = true;
            if let AigNode::And(a, b) = self.nodes[id as usize] {
                count += 1;
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        count
    }

    /// Structural level (AND depth) of an edge.
    pub fn level(&self, r: AigRef) -> u32 {
        self.levels[r.node() as usize]
    }

    /// Name of the underlying model.
    pub fn network_name(&self) -> String {
        self.name.clone()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Edge of primary input `i` (declaration order).
    pub fn input_ref(&self, i: usize) -> AigRef {
        self.inputs[i].1
    }

    /// Name of primary input `i` (declaration order).
    pub fn input_name(&self, i: usize) -> &str {
        &self.inputs[i].0
    }

    /// Declared outputs.
    pub fn outputs(&self) -> &[(String, AigRef)] {
        &self.outputs
    }

    /// The AND children of a **regular** edge, or `None` for inputs and
    /// constants.
    pub fn and_children(&self, r: AigRef) -> Option<(AigRef, AigRef)> {
        match self.nodes[r.node() as usize] {
            AigNode::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Builds an AIG from a logic network (structural hashing happens on
    /// the way in, like ABC's `strash`).
    pub fn from_network(net: &Network) -> Aig {
        let mut aig = Aig::new(net.name().to_string());
        let mut map = SignalMap::new(net);
        for &pi in net.inputs() {
            let r = aig.add_input(net.signal_name(pi));
            map.insert(pi, r);
        }
        for id in net.signals() {
            if map.contains(id) {
                continue;
            }
            let node = net.node(id);
            let kids: Vec<AigRef> = node.fanins.iter().map(|&f| map[f]).collect();
            let r = match &node.kind {
                GateKind::Input => unreachable!("inputs pre-mapped"),
                GateKind::Const(b) => {
                    if *b {
                        AigRef::ONE
                    } else {
                        AigRef::ZERO
                    }
                }
                GateKind::Buf => kids[0],
                GateKind::Inv => !kids[0],
                GateKind::And => kids
                    .iter()
                    .copied()
                    .fold(AigRef::ONE, |acc, k| aig.and(acc, k)),
                GateKind::Nand => !kids
                    .iter()
                    .copied()
                    .fold(AigRef::ONE, |acc, k| aig.and(acc, k)),
                GateKind::Or => kids
                    .iter()
                    .copied()
                    .fold(AigRef::ZERO, |acc, k| aig.or(acc, k)),
                GateKind::Nor => !kids
                    .iter()
                    .copied()
                    .fold(AigRef::ZERO, |acc, k| aig.or(acc, k)),
                GateKind::Xor => kids
                    .iter()
                    .copied()
                    .fold(AigRef::ZERO, |acc, k| aig.xor(acc, k)),
                GateKind::Xnor => !kids
                    .iter()
                    .copied()
                    .fold(AigRef::ZERO, |acc, k| aig.xor(acc, k)),
                GateKind::Maj => aig.maj(kids[0], kids[1], kids[2]),
                GateKind::Mux => aig.mux(kids[0], kids[1], kids[2]),
                GateKind::Lut(table) => aig.lut(table, &kids),
            };
            map.insert(id, r);
        }
        for (name, s) in net.outputs() {
            aig.set_output(name.clone(), map[*s]);
        }
        aig
    }

    /// Shannon expansion of a LUT over AIG edges, pruned at constant
    /// cofactors ([`TruthTable::shannon`]): `mux(s, c, c)` folds to `c`
    /// without creating a node, so the AIG is that of the full expansion.
    fn lut(&mut self, table: &TruthTable, kids: &[AigRef]) -> AigRef {
        table.shannon(
            |v| if v { AigRef::ONE } else { AigRef::ZERO },
            |i, hi, lo| self.mux(kids[i], hi, lo),
        )
    }

    /// Converts back to a [`Network`] of AND/INV gates, with the inputs
    /// named as they were added.
    pub fn to_network(&self) -> Network {
        let mut net = Network::new(self.name.clone());
        // AIG node -> signal, indexed by node; the constant node has none.
        let mut map: Vec<Option<SignalId>> = vec![None; self.nodes.len()];
        let mut const_false: Option<SignalId> = None;
        let mut names = self.inputs.iter().map(|(name, _)| name);
        for (idx, node) in self.nodes.iter().enumerate() {
            map[idx] = match node {
                AigNode::Const => None,
                AigNode::Input => {
                    let name = names.next().expect("one name per input node");
                    Some(net.add_input(name.clone()))
                }
                AigNode::And(a, b) => {
                    let sa = edge_signal(&mut net, &map, &mut const_false, *a);
                    let sb = edge_signal(&mut net, &map, &mut const_false, *b);
                    Some(net.add_gate(GateKind::And, vec![sa, sb]))
                }
            };
        }
        for (name, r) in &self.outputs {
            let s = edge_signal(&mut net, &map, &mut const_false, *r);
            net.set_output(name.clone(), s);
        }
        net.cleaned()
    }
}

fn edge_signal(
    net: &mut Network,
    map: &[Option<SignalId>],
    const_false: &mut Option<SignalId>,
    r: AigRef,
) -> SignalId {
    if r.is_const() {
        let zero = *const_false.get_or_insert_with(|| net.add_const(false));
        if r == AigRef::ZERO {
            return zero;
        }
        return net.add_gate_simplified(GateKind::Inv, vec![zero]);
    }
    let base = map[r.node() as usize].expect("AND fanins precede the AND");
    if r.is_complemented() {
        net.add_gate_simplified(GateKind::Inv, vec![base])
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{equiv_sim, XorShift64};

    fn sample() -> Network {
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.add_gate(GateKind::Xor, vec![a, b]);
        let m = net.add_gate(GateKind::Maj, vec![x, b, c]);
        let y = net.add_gate(GateKind::Or, vec![m, a]);
        net.set_output("y", y);
        net
    }

    #[test]
    fn roundtrip_is_equivalent() {
        let net = sample();
        let aig = Aig::from_network(&net);
        let back = aig.to_network();
        assert_eq!(equiv_sim(&net, &back, 16, 11), Ok(()));
    }

    #[test]
    fn strash_folds_identities() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        assert_eq!(aig.and(a, AigRef::ZERO), AigRef::ZERO);
        assert_eq!(aig.and(a, AigRef::ONE), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), AigRef::ZERO);
        let ab1 = aig.and(a, b);
        let ab2 = aig.and(b, a);
        assert_eq!(ab1, ab2, "commutative strash");
    }

    #[test]
    fn xor_costs_three_ands() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.set_output("x", x);
        assert_eq!(aig.and_count(), 3, "XOR has no cheap AIG form");
    }

    #[test]
    fn levels_track_depth() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        assert_eq!(aig.level(a), 0);
        assert_eq!(aig.level(ab), 1);
        assert_eq!(aig.level(abc), 2);
    }

    #[test]
    fn lut_expansion_matches() {
        let mut net = Network::new("l");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let t = TruthTable::from_fn(2, |r| r == 1 || r == 2);
        let l = net.add_gate(GateKind::Lut(t), vec![a, b]);
        net.set_output("y", l);
        let back = Aig::from_network(&net).to_network();
        assert_eq!(equiv_sim(&net, &back, 8, 2), Ok(()));
    }

    /// Random tables skewed toward sparse, one-hot-OR and half-constant
    /// shapes, where the pruned walk cuts the most.
    fn skewed_table(n: u32, seed: u64) -> TruthTable {
        let mut rng = XorShift64::new(seed);
        let mut next = move || rng.next_u64();
        let rows = 1usize << n;
        let dense: Vec<u64> = (0..TruthTable::word_count(n)).map(|_| next()).collect();
        let dense = TruthTable::from_words(n, dense);
        let (a, b) = (next() as usize, next() as usize);
        match next() % 5 {
            0 => TruthTable::from_fn(n, |r| r == a % rows || r == b % rows),
            1 => TruthTable::from_fn(n, |r| !(r ^ a) & b & (rows - 1) != 0),
            2 => TruthTable::from_fn(n, |r| r & (a % rows) == 0 && dense.value(r)),
            3 => dense,
            _ => TruthTable::constant(n, a & 1 == 1),
        }
    }

    /// The unpruned `2^n` Shannon expansion over AIG edges.
    fn full_lut(
        aig: &mut Aig,
        t: &TruthTable,
        kids: &[AigRef],
        fixed: usize,
        row: usize,
    ) -> AigRef {
        if fixed == kids.len() {
            return if t.value(row) {
                AigRef::ONE
            } else {
                AigRef::ZERO
            };
        }
        let i = kids.len() - 1 - fixed;
        let hi = full_lut(aig, t, kids, fixed + 1, row | 1 << i);
        let lo = full_lut(aig, t, kids, fixed + 1, row);
        aig.mux(kids[i], hi, lo)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `Aig::lut` builds exactly the full expansion's nodes, in order,
        /// over literal and AND operands.
        #[test]
        fn lut_matches_the_full_expansion(
            n in 0u32..17,
            seed in proptest::prelude::any::<u64>()
        ) {
            let t = skewed_table(n, seed);
            let mut rng = XorShift64::new(!seed);
            let mut aig = Aig::new("lut");
            let inputs: Vec<AigRef> = (0..n + 2).map(|i| aig.add_input(format!("i{i}"))).collect();
            let kids: Vec<AigRef> = (0..n as usize)
                .map(|i| match rng.next_u64() % 3 {
                    0 => inputs[i],
                    1 => !inputs[i + 2],
                    _ => aig.and(inputs[i], !inputs[i + 1]),
                })
                .collect();
            let mut full = aig.clone();
            let pruned_root = aig.lut(&t, &kids);
            let full_root = full_lut(&mut full, &t, &kids, 0, 0);
            proptest::prop_assert_eq!(pruned_root, full_root);
            proptest::prop_assert_eq!(format!("{:?}", aig.nodes), format!("{:?}", full.nodes));
        }
    }
}
