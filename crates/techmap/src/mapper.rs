//! Technology mapping onto the six-cell library, following the paper's
//! two-step scheme (§V-B.1): MAJ, XOR and XNOR nodes are assigned directly
//! to their cells (so the functions highlighted by decomposition are not
//! hidden again), and the AND/OR/MUX remainder is covered with
//! NAND/NOR/INV structures with inverter minimization.

use crate::library::CellKind;
use logic::{strash_key, BuildFxHasher, GateKind, Network, SignalId, SignalMap, TruthTable};
use std::collections::HashMap;

/// Structural-hash table over emitted cells, keyed by the allocation-free
/// fixed-arity arrays built by [`logic::strash_key`].
type Strash = HashMap<(u8, [SignalId; 3]), SignalId, BuildFxHasher>;

/// A technology-mapped netlist: a [`Network`] whose logic nodes are
/// restricted to the six library cells, plus the kind annotation per node.
#[derive(Clone, Debug)]
pub struct MappedNetwork {
    /// The mapped netlist (gates: INV/NAND/NOR/XOR/XNOR/MAJ only).
    pub network: Network,
}

impl MappedNetwork {
    /// Cell kind of a node, or `None` for inputs/constants/buffers.
    pub fn cell_of(net: &Network, id: SignalId) -> Option<CellKind> {
        match net.node(id).kind {
            GateKind::Inv => Some(CellKind::Inv),
            GateKind::Nand => Some(CellKind::Nand2),
            GateKind::Nor => Some(CellKind::Nor2),
            GateKind::Xor => Some(CellKind::Xor2),
            GateKind::Xnor => Some(CellKind::Xnor2),
            GateKind::Maj => Some(CellKind::Maj3),
            _ => None,
        }
    }

    /// Histogram of mapped cells.
    pub fn histogram(&self) -> HashMap<CellKind, usize> {
        let mut h = HashMap::new();
        for id in self.network.signals() {
            if let Some(kind) = Self::cell_of(&self.network, id) {
                *h.entry(kind).or_insert(0) += 1;
            }
        }
        h
    }

    /// Number of mapped cells.
    pub fn gate_count(&self) -> usize {
        self.network
            .signals()
            .filter(|&id| Self::cell_of(&self.network, id).is_some())
            .count()
    }
}

/// Maps an optimized logic network onto the library cells.
///
/// Accepts any [`Network`] and runs three steps:
///
/// 1. **balance:** [`logic::balance_network`] rebuilds associative
///    AND/OR/XOR chains as level-balanced trees, as the ABC mapper the
///    paper uses does while covering.
/// 2. **emit:** every node is emitted as library cells through a
///    structural-hash table. MAJ, XOR and XNOR go to their own cells;
///    n-ary gates are binarized into balanced trees; MUX and LUT nodes are
///    expanded into AND/OR structures; AND becomes NAND+INV and OR becomes
///    NOR+INV, with an inverter over an inverter folded on the spot.
/// 3. **clean:** [`Network::cleaned`] drops the cells that folding left
///    dead.
pub fn map_network(net: &Network) -> MappedNetwork {
    let net = &logic::balance_network(net);
    let mut out = Network::new(format!("{}_mapped", net.name()));
    let mut map = SignalMap::new(net);
    let mut strash = Strash::default();

    for &pi in net.inputs() {
        let new = out.add_input(net.signal_name(pi));
        map.insert(pi, new);
    }
    for id in net.signals() {
        if map.contains(id) {
            continue;
        }
        let node = net.node(id);
        let fanins: Vec<SignalId> = node.fanins.iter().map(|&f| map[f]).collect();
        let mapped = emit_kind(&mut out, &node.kind, &fanins, &mut strash);
        map.insert(id, mapped);
    }
    for (name, s) in net.outputs() {
        out.set_output(name.clone(), map[*s]);
    }
    MappedNetwork {
        network: out.cleaned(),
    }
}

/// Structural-hashing emit: all library cells are commutative, so fanins
/// are sorted into the key; a hit allocates nothing.
fn hashed(
    net: &mut Network,
    strash: &mut Strash,
    code: u8,
    kind: GateKind,
    fanins: &[SignalId],
) -> SignalId {
    let mut sorted = [logic::STRASH_PAD; 3];
    sorted[..fanins.len()].copy_from_slice(fanins);
    sorted[..fanins.len()].sort_unstable();
    let key = strash_key(code, &sorted[..fanins.len()])
        .expect("library cells have at most 3 fanins and a nonzero code");
    if let Some(&s) = strash.get(&key) {
        return s;
    }
    let s = net.add_gate(kind, sorted[..fanins.len()].to_vec());
    strash.insert(key, s);
    s
}

fn inv(net: &mut Network, strash: &mut Strash, x: SignalId) -> SignalId {
    if let GateKind::Inv = net.node(x).kind {
        return net.node(x).fanins[0];
    }
    hashed(net, strash, 1, GateKind::Inv, &[x])
}

fn and2(net: &mut Network, strash: &mut Strash, a: SignalId, b: SignalId) -> SignalId {
    let n = hashed(net, strash, 2, GateKind::Nand, &[a, b]);
    inv(net, strash, n)
}

fn or2(net: &mut Network, strash: &mut Strash, a: SignalId, b: SignalId) -> SignalId {
    let n = hashed(net, strash, 3, GateKind::Nor, &[a, b]);
    inv(net, strash, n)
}

/// Reduces an n-ary associative operation with a balanced tree.
fn tree(
    net: &mut Network,
    strash: &mut Strash,
    mut args: Vec<SignalId>,
    op: &dyn Fn(&mut Network, &mut Strash, SignalId, SignalId) -> SignalId,
) -> SignalId {
    assert!(!args.is_empty());
    while args.len() > 1 {
        let mut next = Vec::with_capacity(args.len().div_ceil(2));
        for pair in args.chunks(2) {
            if pair.len() == 2 {
                next.push(op(net, strash, pair[0], pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        args = next;
    }
    args[0]
}

fn emit_kind(
    net: &mut Network,
    kind: &GateKind,
    fanins: &[SignalId],
    strash: &mut Strash,
) -> SignalId {
    match kind {
        GateKind::Input => unreachable!("inputs pre-mapped"),
        GateKind::Const(b) => net.add_const(*b),
        GateKind::Buf => fanins[0],
        GateKind::Inv => inv(net, strash, fanins[0]),
        GateKind::And => tree(net, strash, fanins.to_vec(), &and2),
        GateKind::Nand => {
            if fanins.len() == 2 {
                hashed(net, strash, 2, GateKind::Nand, fanins)
            } else {
                let a = tree(net, strash, fanins.to_vec(), &and2);
                inv(net, strash, a)
            }
        }
        GateKind::Or => tree(net, strash, fanins.to_vec(), &or2),
        GateKind::Nor => {
            if fanins.len() == 2 {
                hashed(net, strash, 3, GateKind::Nor, fanins)
            } else {
                let o = tree(net, strash, fanins.to_vec(), &or2);
                inv(net, strash, o)
            }
        }
        GateKind::Xor => tree(net, strash, fanins.to_vec(), &|net, st, a, b| {
            hashed(net, st, 4, GateKind::Xor, &[a, b])
        }),
        GateKind::Xnor => {
            // Parity complement: XOR-tree with one XNOR at the root.
            if fanins.len() == 1 {
                return inv(net, strash, fanins[0]);
            }
            let head = fanins[..fanins.len() - 1].to_vec();
            let left = tree(net, strash, head, &|net, st, a, b| {
                hashed(net, st, 4, GateKind::Xor, &[a, b])
            });
            hashed(
                net,
                strash,
                5,
                GateKind::Xnor,
                &[left, fanins[fanins.len() - 1]],
            )
        }
        GateKind::Maj => hashed(net, strash, 6, GateKind::Maj, fanins),
        GateKind::Mux => {
            // sel·t + sel'·e as NAND-NAND: NAND(NAND(s,t), NAND(s',e)).
            let (s, t, e) = (fanins[0], fanins[1], fanins[2]);
            let ns = inv(net, strash, s);
            let n1 = hashed(net, strash, 2, GateKind::Nand, &[s, t]);
            let n2 = hashed(net, strash, 2, GateKind::Nand, &[ns, e]);
            hashed(net, strash, 2, GateKind::Nand, &[n1, n2])
        }
        GateKind::Lut(table) => emit_lut(net, table, fanins, strash),
    }
}

/// Shannon-expands a LUT into MUX structures over its inputs.
fn emit_lut(
    net: &mut Network,
    table: &TruthTable,
    fanins: &[SignalId],
    strash: &mut Strash,
) -> SignalId {
    fn expand(
        net: &mut Network,
        table: &TruthTable,
        fanins: &[SignalId],
        strash: &mut Strash,
        fixed: usize,
        row: usize,
        consts: &mut [Option<SignalId>; 2],
    ) -> (Option<bool>, Option<SignalId>) {
        if fixed == fanins.len() {
            return (Some(table.value(row)), None);
        }
        let i = fanins.len() - 1 - fixed;
        let (hc, hs) = expand(net, table, fanins, strash, fixed + 1, row | 1 << i, consts);
        let (lc, ls) = expand(net, table, fanins, strash, fixed + 1, row, consts);
        let sel = fanins[i];
        // Constant-aware MUX construction.
        match (hc, lc) {
            (Some(h), Some(l)) if h == l => (Some(h), None),
            (Some(true), Some(false)) => (None, Some(sel)),
            (Some(false), Some(true)) => (None, Some(inv(net, strash, sel))),
            _ => {
                let mut constant =
                    |v: bool| *consts[usize::from(v)].get_or_insert_with(|| net.add_const(v));
                let hi = hs.unwrap_or_else(|| constant(hc.unwrap()));
                let lo = ls.unwrap_or_else(|| constant(lc.unwrap()));
                let s = match (hc, lc) {
                    (Some(true), None) => {
                        // sel + lo
                        or2(net, strash, sel, lo)
                    }
                    (Some(false), None) => {
                        // sel'·lo
                        let ns = inv(net, strash, sel);
                        and2(net, strash, ns, lo)
                    }
                    (None, Some(true)) => {
                        // sel' + hi
                        let ns = inv(net, strash, sel);
                        or2(net, strash, ns, hi)
                    }
                    (None, Some(false)) => and2(net, strash, sel, hi),
                    _ => {
                        let ns = inv(net, strash, sel);
                        let n1 = hashed(net, strash, 2, GateKind::Nand, &[sel, hi]);
                        let n2 = hashed(net, strash, 2, GateKind::Nand, &[ns, lo]);
                        hashed(net, strash, 2, GateKind::Nand, &[n1, n2])
                    }
                };
                (None, Some(s))
            }
        }
    }
    let (c, s) = expand(net, table, fanins, strash, 0, 0, &mut [None; 2]);
    match (c, s) {
        (Some(v), _) => net.add_const(v),
        (None, Some(s)) => s,
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::equiv_sim;

    fn mixed_network() -> Network {
        let mut net = Network::new("mix");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let x = net.add_gate(GateKind::Xor, vec![a, b]);
        let m = net.add_gate(GateKind::Maj, vec![x, c, d]);
        let o = net.add_gate(GateKind::Or, vec![a, c, d]);
        let y = net.add_gate(GateKind::And, vec![m, o]);
        net.set_output("y", y);
        net
    }

    #[test]
    fn mapping_preserves_function() {
        let net = mixed_network();
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 16, 3), Ok(()));
    }

    #[test]
    fn mapped_gates_are_library_cells_only() {
        let net = mixed_network();
        let mapped = map_network(&net);
        for id in mapped.network.signals() {
            let kind = &mapped.network.node(id).kind;
            assert!(
                matches!(
                    kind,
                    GateKind::Input
                        | GateKind::Const(_)
                        | GateKind::Inv
                        | GateKind::Nand
                        | GateKind::Nor
                        | GateKind::Xor
                        | GateKind::Xnor
                        | GateKind::Maj
                ),
                "non-library gate {kind:?} survived mapping"
            );
            if matches!(
                kind,
                GateKind::Nand | GateKind::Nor | GateKind::Xor | GateKind::Xnor
            ) {
                assert_eq!(
                    mapped.network.node(id).fanins.len(),
                    2,
                    "two-input cells only"
                );
            }
        }
    }

    #[test]
    fn maj_and_xor_are_preserved_directly() {
        let net = mixed_network();
        let mapped = map_network(&net);
        let h = mapped.histogram();
        assert_eq!(h.get(&CellKind::Maj3), Some(&1), "MAJ preserved");
        assert!(
            h.get(&CellKind::Xor2).copied().unwrap_or(0) >= 1,
            "XOR preserved"
        );
    }

    #[test]
    fn mux_maps_to_nand_nand() {
        let mut net = Network::new("mux");
        let s = net.add_input("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let y = net.add_gate(GateKind::Mux, vec![s, a, b]);
        net.set_output("y", y);
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 8, 1), Ok(()));
        let h = mapped.histogram();
        assert_eq!(h.get(&CellKind::Nand2), Some(&3));
        assert_eq!(h.get(&CellKind::Inv), Some(&1));
    }

    #[test]
    fn lut_expansion_is_equivalent() {
        let mut net = Network::new("lut");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        // A random-ish 3-input function.
        let t = TruthTable::from_fn(3, |r| {
            [true, false, false, true, true, false, true, false][r]
        });
        let l = net.add_gate(GateKind::Lut(t), vec![a, b, c]);
        net.set_output("y", l);
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 8, 5), Ok(()));
    }

    #[test]
    fn wide_gates_binarize() {
        let mut net = Network::new("wide");
        let ins: Vec<SignalId> = (0..7).map(|i| net.add_input(format!("i{i}"))).collect();
        let a = net.add_gate(GateKind::And, ins.clone());
        let x = net.add_gate(GateKind::Xor, ins.clone());
        let y = net.add_gate(GateKind::Or, vec![a, x]);
        net.set_output("y", y);
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 16, 2), Ok(()));
    }

    #[test]
    fn double_inverters_are_cleaned() {
        let mut net = Network::new("ii");
        let a = net.add_input("a");
        let b = net.add_input("b");
        // and(a,b) followed by nand-style use: the INV-INV pair between
        // consecutive ANDs must disappear.
        let t1 = net.add_gate(GateKind::And, vec![a, b]);
        let t2 = net.add_gate(GateKind::And, vec![t1, a]);
        net.set_output("y", t2);
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 8, 4), Ok(()));
        let _h = mapped.histogram();
        // NAND(a,b) -> INV -> NAND(.., a) -> INV: 2 NAND + 2 INV before
        // cleaning; the output INV stays, the internal pair is kept only if
        // structurally needed. Ensure we are not worse than the naive form.
        assert!(mapped.gate_count() <= 4);
    }
}
