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

/// Shannon-expands a LUT into MUX structures over its inputs, pruned at
/// constant cofactors ([`TruthTable::shannon`]): [`lut_mux`] folds two
/// equal constants without emitting anything, so the cells are those of
/// the full expansion.
fn emit_lut(
    net: &mut Network,
    table: &TruthTable,
    fanins: &[SignalId],
    strash: &mut Strash,
) -> SignalId {
    let root = table.shannon(Cofactor::Const, |i, hi, lo| {
        lut_mux(net, strash, fanins[i], hi, lo)
    });
    match root {
        Cofactor::Const(v) => net.add_const(v),
        Cofactor::Signal(s) => s,
    }
}

/// A LUT cofactor during [`emit_lut`]: a constant, or the cell computing
/// it.
#[derive(Clone, Copy)]
enum Cofactor {
    Const(bool),
    Signal(SignalId),
}

/// Constant-aware MUX `sel ? hi : lo` over two LUT cofactors.
fn lut_mux(
    net: &mut Network,
    strash: &mut Strash,
    sel: SignalId,
    hi: Cofactor,
    lo: Cofactor,
) -> Cofactor {
    use Cofactor::{Const, Signal};
    Signal(match (hi, lo) {
        (Const(true), Const(true)) | (Const(false), Const(false)) => return hi,
        (Const(true), Const(false)) => sel,
        (Const(false), Const(true)) => inv(net, strash, sel),
        // sel + lo
        (Const(true), Signal(lo)) => or2(net, strash, sel, lo),
        // sel'·lo
        (Const(false), Signal(lo)) => {
            let ns = inv(net, strash, sel);
            and2(net, strash, ns, lo)
        }
        // sel' + hi
        (Signal(hi), Const(true)) => {
            let ns = inv(net, strash, sel);
            or2(net, strash, ns, hi)
        }
        (Signal(hi), Const(false)) => and2(net, strash, sel, hi),
        (Signal(hi), Signal(lo)) => {
            let ns = inv(net, strash, sel);
            let n1 = hashed(net, strash, 2, GateKind::Nand, &[sel, hi]);
            let n2 = hashed(net, strash, 2, GateKind::Nand, &[ns, lo]);
            hashed(net, strash, 2, GateKind::Nand, &[n1, n2])
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{equiv_sim, XorShift64};

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

    /// The unpruned `2^n` Shannon expansion through [`lut_mux`].
    fn full_lut(
        net: &mut Network,
        strash: &mut Strash,
        t: &TruthTable,
        fanins: &[SignalId],
        fixed: usize,
        row: usize,
    ) -> Cofactor {
        if fixed == fanins.len() {
            return Cofactor::Const(t.value(row));
        }
        let i = fanins.len() - 1 - fixed;
        let hi = full_lut(net, strash, t, fanins, fixed + 1, row | 1 << i);
        let lo = full_lut(net, strash, t, fanins, fixed + 1, row);
        lut_mux(net, strash, fanins[i], hi, lo)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `emit_lut` emits exactly the full expansion's cells, in order,
        /// over input and inverter fanins.
        #[test]
        fn emit_lut_matches_the_full_expansion(
            n in 0u32..17,
            seed in proptest::prelude::any::<u64>()
        ) {
            let t = skewed_table(n, seed);
            let mut rng = XorShift64::new(!seed);
            let mut net = Network::new("lut");
            let mut strash = Strash::default();
            let inputs: Vec<SignalId> = (0..n).map(|i| net.add_input(format!("i{i}"))).collect();
            let fanins: Vec<SignalId> = inputs
                .iter()
                .map(|&x| match rng.next_u64() % 3 {
                    0 => inv(&mut net, &mut strash, x),
                    _ => x,
                })
                .collect();
            let (mut full, mut full_strash) = (net.clone(), strash.clone());
            let pruned_root = emit_lut(&mut net, &t, &fanins, &mut strash);
            let full_root = match full_lut(&mut full, &mut full_strash, &t, &fanins, 0, 0) {
                Cofactor::Const(v) => full.add_const(v),
                Cofactor::Signal(s) => s,
            };
            net.set_output("y", pruned_root);
            full.set_output("y", full_root);
            proptest::prop_assert_eq!(logic::write_blif(&net), logic::write_blif(&full));
        }
    }
}
