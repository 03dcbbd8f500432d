//! The multi-level Boolean logic network: the common circuit representation
//! shared by benchmark generators, decomposition engines, baselines and the
//! technology mapper.

use crate::truth::TruthTable;
use std::fmt;

/// Identifier of a signal (equivalently, of the node driving it).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SignalId(pub u32);

impl SignalId {
    /// Index as `usize` for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Pad value for unused [`strash_key`] slots; never a real signal index
/// (signals are dense arena indices far below `u32::MAX`).
pub const STRASH_PAD: SignalId = SignalId(u32::MAX);

/// Builds the fixed-arity structural-hash key shared by the gate emitters
/// (`decomp::Emitter`, the techmap covering pass): gates carry at most
/// three fanins, so keying on `(code, [SignalId; 3])` padded with
/// [`STRASH_PAD`] avoids allocating a `Vec` per lookup.
///
/// Returns `None` for gates outside structural hashing (code 0, or wider
/// than three fanins). Callers sort commutative fanins *before* calling —
/// this helper never reorders (MUX-like gates are order-sensitive).
pub fn strash_key(code: u8, fanins: &[SignalId]) -> Option<(u8, [SignalId; 3])> {
    if code == 0 || fanins.len() > 3 {
        return None;
    }
    let mut key = [STRASH_PAD; 3];
    key[..fanins.len()].copy_from_slice(fanins);
    Some((code, key))
}

/// The function computed by a node from its fanins.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GateKind {
    /// Primary input (no fanins).
    Input,
    /// Constant driver (no fanins).
    Const(bool),
    /// Buffer (1 fanin).
    Buf,
    /// Inverter (1 fanin).
    Inv,
    /// n-ary conjunction (≥ 1 fanins).
    And,
    /// n-ary disjunction (≥ 1 fanins).
    Or,
    /// n-ary negated conjunction.
    Nand,
    /// n-ary negated disjunction.
    Nor,
    /// n-ary parity (exclusive or).
    Xor,
    /// Complement of n-ary parity.
    Xnor,
    /// Three-input majority.
    Maj,
    /// Multiplexer: fanins are `[select, then, else]`.
    Mux,
    /// Arbitrary function of the fanins given by a truth table.
    Lut(TruthTable),
}

impl GateKind {
    /// Short lowercase tag used in reports and BLIF names.
    pub fn tag(&self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Const(_) => "const",
            GateKind::Buf => "buf",
            GateKind::Inv => "inv",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Maj => "maj",
            GateKind::Mux => "mux",
            GateKind::Lut(_) => "lut",
        }
    }
}

/// One node of a [`Network`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetNode {
    /// The function this node computes.
    pub kind: GateKind,
    /// Driving signals, in positional order (see [`GateKind`] for meaning).
    pub fanins: Vec<SignalId>,
    /// Optional user-facing name (BLIF identifier).
    pub name: Option<String>,
}

/// Per-gate-type node counts, the decomposition metric of Table I.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct GateCounts {
    pub and: usize,
    pub or: usize,
    pub xor: usize,
    pub xnor: usize,
    pub maj: usize,
    pub mux: usize,
    pub inv: usize,
    pub buf: usize,
    pub lut: usize,
    pub constant: usize,
    pub input: usize,
    pub nand: usize,
    pub nor: usize,
}

impl GateCounts {
    /// Total count of *logic* nodes, as reported in Table I of the paper:
    /// AND + OR + XOR + XNOR + MAJ (decomposition node types). Inverters are
    /// free on complemented edges and MUX nodes are expanded by the
    /// factoring stage, so the paper's totals cover these five types.
    pub fn decomposition_total(&self) -> usize {
        self.and + self.or + self.xor + self.xnor + self.maj
    }

    /// Total of all function-bearing nodes (everything except inputs,
    /// buffers and constants).
    pub fn logic_total(&self) -> usize {
        self.and
            + self.or
            + self.nand
            + self.nor
            + self.xor
            + self.xnor
            + self.maj
            + self.mux
            + self.inv
            + self.lut
    }
}

impl fmt::Display for GateCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AND {} OR {} XOR {} XNOR {} MAJ {} (total {})",
            self.and,
            self.or,
            self.xor,
            self.xnor,
            self.maj,
            self.decomposition_total()
        )
    }
}

/// A combinational multi-level logic network.
///
/// Nodes are stored in topological order by construction: a node's fanins
/// must already exist when the node is added. Primary outputs are named
/// references to signals.
///
/// A [`SignalId`] is the dense arena index of its node (`0..len()`), so
/// passes that rebuild a network keep their per-signal state (old-to-new
/// signal maps, levels, liveness) in `Vec`s indexed by
/// [`SignalId::index`] rather than in hash maps.
///
/// # Example
///
/// ```
/// use logic::{Network, GateKind};
/// let mut net = Network::new("xor_gate");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let x = net.add_gate(GateKind::Xor, vec![a, b]);
/// net.set_output("y", x);
/// assert_eq!(net.simulate(&[0b1100, 0b1010])[0] & 0xF, 0b0110);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    name: String,
    nodes: Vec<NetNode>,
    inputs: Vec<SignalId>,
    outputs: Vec<(String, SignalId)>,
}

impl Network {
    /// Creates an empty network with the given model name.
    pub fn new(name: impl Into<String>) -> Network {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input and returns its signal.
    pub fn add_input(&mut self, name: impl Into<String>) -> SignalId {
        let id = self.push(NetNode {
            kind: GateKind::Input,
            fanins: vec![],
            name: Some(name.into()),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a gate node over existing signals and returns its signal.
    ///
    /// # Panics
    ///
    /// Panics if a fanin does not exist yet (networks are built in
    /// topological order) or the fanin count does not fit the gate kind.
    pub fn add_gate(&mut self, kind: GateKind, fanins: Vec<SignalId>) -> SignalId {
        for f in &fanins {
            assert!(
                f.index() < self.nodes.len(),
                "fanin {f:?} does not exist yet"
            );
        }
        match &kind {
            GateKind::Input => panic!("use add_input for primary inputs"),
            GateKind::Const(_) => assert!(fanins.is_empty(), "constants take no fanins"),
            GateKind::Buf | GateKind::Inv => {
                assert_eq!(fanins.len(), 1, "{} takes one fanin", kind.tag())
            }
            GateKind::Maj => assert_eq!(fanins.len(), 3, "maj takes three fanins"),
            GateKind::Mux => assert_eq!(fanins.len(), 3, "mux takes [sel, then, else]"),
            GateKind::Lut(t) => {
                assert_eq!(t.num_inputs() as usize, fanins.len(), "LUT arity mismatch")
            }
            GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => {
                assert!(
                    !fanins.is_empty(),
                    "{} needs at least one fanin",
                    kind.tag()
                )
            }
        }
        self.push(NetNode {
            kind,
            fanins,
            name: None,
        })
    }

    /// Adds a constant driver.
    pub fn add_const(&mut self, value: bool) -> SignalId {
        self.add_gate(GateKind::Const(value), vec![])
    }

    fn push(&mut self, node: NetNode) -> SignalId {
        let id = SignalId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Declares `signal` as the primary output `name`.
    pub fn set_output(&mut self, name: impl Into<String>, signal: SignalId) {
        assert!(signal.index() < self.nodes.len(), "unknown signal");
        self.outputs.push((name.into(), signal));
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Primary outputs as (name, signal) pairs.
    pub fn outputs(&self) -> &[(String, SignalId)] {
        &self.outputs
    }

    /// Read access to a node.
    pub fn node(&self, id: SignalId) -> &NetNode {
        &self.nodes[id.index()]
    }

    /// All signals in topological order.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.nodes.len() as u32).map(SignalId)
    }

    /// Number of nodes of any kind.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Name of a signal: its declared name, or a positional fallback.
    pub fn signal_name(&self, id: SignalId) -> String {
        self.nodes[id.index()]
            .name
            .clone()
            .unwrap_or_else(|| format!("n{}", id.0))
    }

    /// Sets a display name on a node.
    pub fn set_signal_name(&mut self, id: SignalId, name: impl Into<String>) {
        self.nodes[id.index()].name = Some(name.into());
    }

    /// Number of fanouts per signal (outputs count as one fanout each).
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for f in &node.fanins {
                counts[f.index()] += 1;
            }
        }
        for (_, s) in &self.outputs {
            counts[s.index()] += 1;
        }
        counts
    }

    /// Bit-parallel simulation: `patterns[i]` carries 64 assignments of
    /// input `i` (one per bit). Returns one word per primary output.
    ///
    /// Every gate costs word operations, LUTs included: a LUT evaluates as
    /// a mux tree over its fanin words along [`TruthTable::shannon`], with
    /// constant cofactors cut off, not row by row.
    ///
    /// # Panics
    ///
    /// Panics if `patterns.len()` differs from the number of inputs.
    pub fn simulate(&self, patterns: &[u64]) -> Vec<u64> {
        assert_eq!(patterns.len(), self.inputs.len(), "pattern arity mismatch");
        let mut values = vec![0u64; self.nodes.len()];
        let mut next_input = 0usize;
        for (idx, node) in self.nodes.iter().enumerate() {
            let v = |s: SignalId| values[s.index()];
            values[idx] = match &node.kind {
                GateKind::Input => {
                    let p = patterns[next_input];
                    next_input += 1;
                    p
                }
                GateKind::Const(b) => {
                    if *b {
                        u64::MAX
                    } else {
                        0
                    }
                }
                GateKind::Buf => v(node.fanins[0]),
                GateKind::Inv => !v(node.fanins[0]),
                GateKind::And => node.fanins.iter().fold(u64::MAX, |acc, &f| acc & v(f)),
                GateKind::Or => node.fanins.iter().fold(0, |acc, &f| acc | v(f)),
                GateKind::Nand => !node.fanins.iter().fold(u64::MAX, |acc, &f| acc & v(f)),
                GateKind::Nor => !node.fanins.iter().fold(0, |acc, &f| acc | v(f)),
                GateKind::Xor => node.fanins.iter().fold(0, |acc, &f| acc ^ v(f)),
                GateKind::Xnor => !node.fanins.iter().fold(0, |acc, &f| acc ^ v(f)),
                GateKind::Maj => {
                    let (a, b, c) = (v(node.fanins[0]), v(node.fanins[1]), v(node.fanins[2]));
                    (a & b) | (b & c) | (a & c)
                }
                GateKind::Mux => {
                    let (s, t, e) = (v(node.fanins[0]), v(node.fanins[1]), v(node.fanins[2]));
                    (s & t) | (!s & e)
                }
                // Bitwise Shannon expansion: a mux over fanin words per
                // non-constant cofactor, a constant word per constant one.
                GateKind::Lut(table) => table.shannon(
                    |c| if c { u64::MAX } else { 0 },
                    |i, hi, lo| {
                        let k = v(node.fanins[i]);
                        (k & hi) | (!k & lo)
                    },
                ),
            };
        }
        self.outputs
            .iter()
            .map(|(_, s)| values[s.index()])
            .collect()
    }

    /// Per-type node counts.
    pub fn gate_counts(&self) -> GateCounts {
        let mut c = GateCounts::default();
        for node in &self.nodes {
            match &node.kind {
                GateKind::Input => c.input += 1,
                GateKind::Const(_) => c.constant += 1,
                GateKind::Buf => c.buf += 1,
                GateKind::Inv => c.inv += 1,
                GateKind::And => c.and += 1,
                GateKind::Or => c.or += 1,
                GateKind::Nand => c.nand += 1,
                GateKind::Nor => c.nor += 1,
                GateKind::Xor => c.xor += 1,
                GateKind::Xnor => c.xnor += 1,
                GateKind::Maj => c.maj += 1,
                GateKind::Mux => c.mux += 1,
                GateKind::Lut(_) => c.lut += 1,
            }
        }
        c
    }

    /// Logic depth: the longest input-to-output path counting every
    /// non-buffer logic node as one level.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for (idx, node) in self.nodes.iter().enumerate() {
            let in_level = node
                .fanins
                .iter()
                .map(|f| level[f.index()])
                .max()
                .unwrap_or(0);
            let own = match node.kind {
                GateKind::Input | GateKind::Const(_) | GateKind::Buf => 0,
                _ => 1,
            };
            level[idx] = in_level + own;
            max = max.max(level[idx]);
        }
        max
    }

    /// Returns a structurally cleaned copy: dead nodes removed, constants
    /// propagated, buffers bypassed, double inverters collapsed, and
    /// single-fanin AND/OR/XOR reduced to buffers (then removed).
    ///
    /// The pass is repeated so that simplifications exposing further dead
    /// logic (e.g. a collapsed inverter pair) are fully cleaned up. The
    /// loop stops at the first of:
    ///
    /// - **identical pass:** the first pass returns its input unchanged
    ///   (same inputs, outputs, and node kinds and fanins at every index).
    ///   The pass depends on nothing else but the input and model names,
    ///   which it copies, so a second pass would return the same network;
    ///   the first pass's result is returned at once.
    /// - **non-shrinking pass:** a later pass does not lower the node
    ///   count; the network it was given is returned.
    /// - **pass cap:** nine passes have run; the last result is returned.
    pub fn cleaned(&self) -> Network {
        let mut current = self.cleaned_once();
        if current.same_structure(self) {
            return current;
        }
        for _ in 0..8 {
            let next = current.cleaned_once();
            if next.len() >= current.len() {
                return current;
            }
            current = next;
        }
        current
    }

    /// Whether `other` has the same inputs and outputs and, at every
    /// index, the same node kind and fanins. Node names are not compared.
    fn same_structure(&self, other: &Network) -> bool {
        self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.nodes.len() == other.nodes.len()
            && self
                .nodes
                .iter()
                .zip(&other.nodes)
                .all(|(a, b)| a.kind == b.kind && a.fanins == b.fanins)
    }

    fn cleaned_once(&self) -> Network {
        let mut out = Network::new(self.name.clone());
        // Mark live nodes (reachable from outputs).
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<SignalId> = self.outputs.iter().map(|(_, s)| *s).collect();
        while let Some(s) = stack.pop() {
            if live[s.index()] {
                continue;
            }
            live[s.index()] = true;
            stack.extend(self.nodes[s.index()].fanins.iter().copied());
        }
        // old signal -> new signal
        let mut map = SignalMap::new(self);
        // Inputs are always preserved to keep the interface stable.
        for &pi in &self.inputs {
            map.insert(pi, out.add_input(self.signal_name(pi)));
        }
        let mut const_cache = [None; 2];
        for (idx, node) in self.nodes.iter().enumerate() {
            let id = SignalId(idx as u32);
            if !live[idx] || map.contains(id) {
                continue;
            }
            let fanins: Vec<SignalId> = node.fanins.iter().map(|&f| map[f]).collect();
            let new = out.rewrite_gate(node.kind.clone(), fanins, &mut const_cache);
            map.insert(id, new);
        }
        for (name, s) in &self.outputs {
            out.set_output(name.clone(), map[*s]);
        }
        out
    }

    /// Adds a gate applying local simplifications; used by [`Self::cleaned`]
    /// and by decomposition emitters. `const_cache[v]` holds the
    /// constant-`v` driver already added by this pass, if any.
    fn rewrite_gate(
        &mut self,
        kind: GateKind,
        fanins: Vec<SignalId>,
        const_cache: &mut [Option<SignalId>; 2],
    ) -> SignalId {
        let mut get_const = |net: &mut Network, v: bool| {
            *const_cache[usize::from(v)].get_or_insert_with(|| net.add_const(v))
        };
        let value_of = |net: &Network, s: SignalId| match net.node(s).kind {
            GateKind::Const(b) => Some(b),
            _ => None,
        };
        match kind {
            GateKind::Buf => fanins[0],
            GateKind::Inv => {
                let f = fanins[0];
                match &self.node(f).kind {
                    GateKind::Const(b) => {
                        let b = !*b;
                        get_const(self, b)
                    }
                    GateKind::Inv => self.node(f).fanins[0],
                    _ => self.add_gate(GateKind::Inv, fanins),
                }
            }
            GateKind::And | GateKind::Or => {
                let identity = matches!(kind, GateKind::And);
                let mut reduced = Vec::new();
                for f in fanins {
                    match value_of(self, f) {
                        Some(b) if b == identity => {}
                        Some(_) => return get_const(self, !identity),
                        None => {
                            if !reduced.contains(&f) {
                                reduced.push(f);
                            }
                        }
                    }
                }
                match reduced.len() {
                    0 => get_const(self, identity),
                    1 => reduced[0],
                    _ => self.add_gate(kind, reduced),
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut parity = matches!(kind, GateKind::Xnor);
                let mut reduced: Vec<SignalId> = Vec::new();
                for f in fanins {
                    match value_of(self, f) {
                        Some(b) => parity ^= b,
                        None => {
                            // x ⊕ x = 0: cancel pairs.
                            if let Some(pos) = reduced.iter().position(|&g| g == f) {
                                reduced.remove(pos);
                            } else {
                                reduced.push(f);
                            }
                        }
                    }
                }
                match (reduced.len(), parity) {
                    (0, p) => get_const(self, p),
                    (1, false) => reduced[0],
                    (1, true) => self.add_gate(GateKind::Inv, reduced),
                    (_, false) => self.add_gate(GateKind::Xor, reduced),
                    (_, true) => self.add_gate(GateKind::Xnor, reduced),
                }
            }
            GateKind::Mux => {
                let (s, t, e) = (fanins[0], fanins[1], fanins[2]);
                match value_of(self, s) {
                    Some(true) => t,
                    Some(false) => e,
                    None if t == e => t,
                    None => self.add_gate(GateKind::Mux, fanins),
                }
            }
            GateKind::Maj => {
                let (a, b, c) = (fanins[0], fanins[1], fanins[2]);
                let consts = [value_of(self, a), value_of(self, b), value_of(self, c)];
                // Maj(1, b, c) = b + c; Maj(0, b, c) = b · c, and symmetric.
                if a == b || consts[0].is_some() && consts[0] == consts[1] {
                    return a;
                }
                if b == c || consts[1].is_some() && consts[1] == consts[2] {
                    return b;
                }
                if a == c || consts[0].is_some() && consts[0] == consts[2] {
                    return a;
                }
                for (i, cv) in consts.iter().enumerate() {
                    if let Some(v) = cv {
                        let (x, y) = match i {
                            0 => (b, c),
                            1 => (a, c),
                            _ => (a, b),
                        };
                        let k = if *v { GateKind::Or } else { GateKind::And };
                        return self.add_gate(k, vec![x, y]);
                    }
                }
                self.add_gate(GateKind::Maj, fanins)
            }
            GateKind::Lut(table) => match table.as_constant() {
                Some(v) => get_const(self, v),
                None => self.add_gate(GateKind::Lut(table), fanins),
            },
            GateKind::Const(v) => get_const(self, v),
            other => self.add_gate(other, fanins),
        }
    }

    /// Adds a gate with the same local simplifications as [`Self::cleaned`]
    /// applies (constant folding, unit reduction, duplicate removal).
    pub fn add_gate_simplified(&mut self, kind: GateKind, fanins: Vec<SignalId>) -> SignalId {
        self.rewrite_gate(kind, fanins, &mut [None; 2])
    }
}

/// Per-signal table of a pass over one [`Network`]: a slot per signal,
/// indexed by [`SignalId::index`], so lookups never hash. Rebuilding
/// passes keep their old-to-new signal map in one.
#[derive(Clone, Debug)]
pub struct SignalMap<T>(Vec<Option<T>>);

impl<T: Copy> SignalMap<T> {
    /// An empty table with a slot for every signal of `net`.
    pub fn new(net: &Network) -> SignalMap<T> {
        SignalMap(vec![None; net.len()])
    }

    /// Sets the entry of `s`.
    pub fn insert(&mut self, s: SignalId, value: T) {
        self.0[s.index()] = Some(value);
    }

    /// Whether `s` has an entry.
    pub fn contains(&self, s: SignalId) -> bool {
        self.0[s.index()].is_some()
    }
}

impl<T> std::ops::Index<SignalId> for SignalMap<T> {
    type Output = T;

    /// The entry of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` has no entry (a pass reads a fanin before mapping it).
    fn index(&self, s: SignalId) -> &T {
        self.0[s.index()].as_ref().expect("signal is mapped")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn full_adder() -> Network {
        let mut net = Network::new("fa");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let cin = net.add_input("cin");
        let s1 = net.add_gate(GateKind::Xor, vec![a, b, cin]);
        let carry = net.add_gate(GateKind::Maj, vec![a, b, cin]);
        net.set_output("sum", s1);
        net.set_output("cout", carry);
        net
    }

    #[test]
    fn full_adder_simulates_correctly() {
        let net = full_adder();
        // Exhaustive over 8 rows packed into one word.
        let a = 0b10101010;
        let b = 0b11001100;
        let c = 0b11110000;
        let out = net.simulate(&[a, b, c]);
        for row in 0..8u32 {
            let (x, y, z) = (a >> row & 1, b >> row & 1, c >> row & 1);
            let total = x + y + z;
            assert_eq!(out[0] >> row & 1, total & 1, "sum row {row}");
            assert_eq!(out[1] >> row & 1, (total >= 2) as u64, "carry row {row}");
        }
    }

    #[test]
    fn gate_counts_and_depth() {
        let net = full_adder();
        let c = net.gate_counts();
        assert_eq!(c.xor, 1);
        assert_eq!(c.maj, 1);
        assert_eq!(c.decomposition_total(), 2);
        assert_eq!(net.depth(), 1);
    }

    #[test]
    fn cleaned_removes_dead_logic() {
        let mut net = Network::new("dead");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let _dead = net.add_gate(GateKind::And, vec![a, b]);
        let live = net.add_gate(GateKind::Or, vec![a, b]);
        net.set_output("y", live);
        let cleaned = net.cleaned();
        assert_eq!(cleaned.gate_counts().and, 0);
        assert_eq!(cleaned.gate_counts().or, 1);
        assert_eq!(cleaned.inputs().len(), 2);
    }

    #[test]
    fn cleaned_propagates_constants() {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let one = net.add_const(true);
        let and = net.add_gate(GateKind::And, vec![a, one]);
        let inv = net.add_gate(GateKind::Inv, vec![and]);
        let inv2 = net.add_gate(GateKind::Inv, vec![inv]);
        net.set_output("y", inv2);
        let cleaned = net.cleaned();
        // and(a, 1) = a; inv(inv(a)) = a: y is just the input.
        assert_eq!(cleaned.gate_counts().logic_total(), 0);
        let out = cleaned.simulate(&[0b10]);
        assert_eq!(out[0] & 0b11, 0b10);
    }

    #[test]
    fn cleaned_cancels_xor_pairs() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let x = net.add_gate(GateKind::Xor, vec![a, b, a]);
        net.set_output("y", x);
        let cleaned = net.cleaned();
        // a ⊕ b ⊕ a = b.
        assert_eq!(cleaned.gate_counts().logic_total(), 0);
        assert_eq!(cleaned.simulate(&[0, 0b1])[0] & 1, 1);
    }

    #[test]
    fn mux_and_maj_simplify() {
        let mut net = Network::new("m");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let one = net.add_const(true);
        let m = net.add_gate(GateKind::Maj, vec![a, b, one]);
        net.set_output("y", m);
        let cleaned = net.cleaned();
        // Maj(a, b, 1) = a + b.
        assert_eq!(cleaned.gate_counts().or, 1);
        assert_eq!(cleaned.gate_counts().maj, 0);
    }

    #[test]
    fn lut_simulation_matches_table() {
        let mut net = Network::new("l");
        let a = net.add_input("a");
        let b = net.add_input("b");
        // LUT computing a AND NOT b.
        let t = TruthTable::from_fn(2, |r| r & 1 == 1 && r & 2 == 0);
        let l = net.add_gate(GateKind::Lut(t), vec![a, b]);
        net.set_output("y", l);
        let out = net.simulate(&[0b1010, 0b1100]);
        assert_eq!(out[0] & 0xF, 0b0010);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn fanins_must_exist() {
        let mut net = Network::new("bad");
        net.add_gate(GateKind::Inv, vec![SignalId(3)]);
    }

    #[test]
    fn simulate_checks_arity() {
        let net = full_adder();
        let r = std::panic::catch_unwind(|| net.simulate(&[0, 0]));
        assert!(r.is_err());
    }

    /// One random node: `op` picks the shape; `a`, `b` and `c` pick fanins
    /// among the signals built so far (modulo their count), and `c` also
    /// sets constant values and LUT tables.
    type Recipe = (u8, usize, usize, usize);

    /// Builds a network rich in what [`Network::cleaned`] simplifies:
    /// constants, buffers, inverter pairs, duplicate and repeated XOR
    /// fanins, MAJ/MUX with constant fanins, constant LUTs, and dead
    /// logic (only `outputs` signals drawn from the back are observed).
    fn cleanup_network(inputs: usize, recipes: &[Recipe], outputs: usize) -> Network {
        let mut net = Network::new("cleanup");
        let mut pool: Vec<SignalId> = (0..inputs)
            .map(|i| net.add_input(format!("i{i}")))
            .collect();
        for &(op, a, b, c) in recipes {
            let pick = |i: usize| pool[i % pool.len()];
            let (x, y, z) = (pick(a), pick(b), pick(c));
            let s = match op % 14 {
                0 => net.add_const(c % 2 == 1),
                1 => net.add_gate(GateKind::Buf, vec![x]),
                2 => net.add_gate(GateKind::Inv, vec![x]),
                3 => {
                    let inv = net.add_gate(GateKind::Inv, vec![x]);
                    net.add_gate(GateKind::Inv, vec![inv])
                }
                4 => net.add_gate(GateKind::And, vec![x, y, z]),
                5 => net.add_gate(GateKind::Or, vec![x, y]),
                6 => net.add_gate(GateKind::Xor, vec![x, y, x]),
                7 => net.add_gate(GateKind::Xnor, vec![x, x]),
                8 => net.add_gate(GateKind::Xor, vec![x, y, z]),
                9 => {
                    let k = net.add_const(c % 2 == 1);
                    let mut fanins = vec![x, y];
                    fanins.insert(c / 2 % 3, k);
                    net.add_gate(GateKind::Maj, fanins)
                }
                10 => net.add_gate(GateKind::Maj, vec![x, y, z]),
                11 => {
                    let k = net.add_const(c % 2 == 1);
                    net.add_gate(GateKind::Mux, vec![k, x, y])
                }
                12 => net.add_gate(GateKind::Mux, vec![x, y, z]),
                _ => {
                    // Constant tables for c % 8 == 0 or 7.
                    let t =
                        TruthTable::from_fn(2, |r| c % 8 == 7 || (c % 8 != 0 && c >> r & 1 == 1));
                    net.add_gate(GateKind::Lut(t), vec![x, y])
                }
            };
            pool.push(s);
        }
        let n = pool.len();
        for (o, &s) in pool[n.saturating_sub(outputs)..].iter().enumerate() {
            net.set_output(format!("o{o}"), s);
        }
        net
    }

    /// `cleaned()` without the identical-pass exit: every result is
    /// confirmed by one more pass.
    fn cleaned_always_confirm(net: &Network) -> Network {
        let mut current = net.cleaned_once();
        for _ in 0..8 {
            let next = current.cleaned_once();
            if next.len() >= current.len() {
                return current;
            }
            current = next;
        }
        current
    }

    /// Equality of everything a network holds, node names included.
    fn identical(a: &Network, b: &Network) -> bool {
        a.name == b.name && a.inputs == b.inputs && a.outputs == b.outputs && a.nodes == b.nodes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// LUT simulation along the pruned walk matches a row lookup per
        /// pattern bit, for LUTs read off inputs, inverters and XORs.
        #[test]
        fn lut_simulation_matches_row_lookup(n in 0u32..17, seed in any::<u64>()) {
            let table = crate::truth::tests::skewed_table(n, seed);
            let mut rng = crate::XorShift64::new(seed ^ 0x51AB);
            let mut net = Network::new("lut");
            let inputs: Vec<SignalId> =
                (0..n + 2).map(|i| net.add_input(format!("i{i}"))).collect();
            let fanins: Vec<SignalId> = (0..n as usize)
                .map(|i| match rng.next_u64() % 3 {
                    0 => inputs[i],
                    1 => net.add_gate(GateKind::Inv, vec![inputs[i + 2]]),
                    _ => net.add_gate(GateKind::Xor, vec![inputs[i], inputs[i + 1]]),
                })
                .collect();
            let lut = net.add_gate(GateKind::Lut(table.clone()), fanins.clone());
            net.set_output("y", lut);
            for &f in &fanins {
                net.set_output(net.signal_name(f), f);
            }
            let patterns: Vec<u64> = inputs.iter().map(|_| rng.next_u64()).collect();
            let words = net.simulate(&patterns);
            let mut expected = 0u64;
            for bit in 0..64 {
                let row = (0..n as usize)
                    .fold(0, |row, i| row | ((words[i + 1] >> bit & 1) as usize) << i);
                expected |= u64::from(table.value(row)) << bit;
            }
            prop_assert_eq!(words[0], expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The identical-pass exit returns exactly what the always-confirm
        /// loop returns: on the raw network, on the same network with every
        /// gate named, and on an already-clean network (where the exit
        /// fires).
        #[test]
        fn cleaned_matches_the_always_confirm_loop(
            recipes in proptest::collection::vec(
                (any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>()),
                0..48,
            ),
            inputs in 1usize..6,
            outputs in 1usize..6,
        ) {
            let net = cleanup_network(inputs, &recipes, outputs);
            let mut named = net.clone();
            for id in net.signals().skip(inputs) {
                named.set_signal_name(id, format!("g{}", id.0));
            }
            let clean = cleaned_always_confirm(&net);
            for (label, x) in [("raw", &net), ("named", &named), ("clean", &clean)] {
                prop_assert!(
                    identical(&x.cleaned(), &cleaned_always_confirm(x)),
                    "{label}: cleaned() differs from the always-confirm loop"
                );
            }
        }
    }

    /// The identical-pass exit fires on a clean network and returns a copy
    /// that keeps the interface names but drops gate names, as a pass
    /// does.
    #[test]
    fn cleaned_returns_a_clean_network_after_one_pass() {
        let mut net = full_adder();
        let sum = net.outputs()[0].1;
        net.set_signal_name(sum, "s1");
        assert!(net.cleaned_once().same_structure(&net));
        let cleaned = net.cleaned();
        assert!(identical(&cleaned, &cleaned_always_confirm(&net)));
        assert_eq!(cleaned.signal_name(cleaned.inputs()[2]), "cin");
        assert_eq!(cleaned.node(sum).name, None);
    }
}
