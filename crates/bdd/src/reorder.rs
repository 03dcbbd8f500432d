//! Variable reordering: the in-place searches driving the manager's
//! adjacent-level swap primitive, the window-local size oracle that probes
//! them, and the variable-renaming primitive.
//!
//! The BDS decomposition engine reorders each local BDD before searching
//! for dominators (§IV-B of the BDS-MAJ paper: "As a first step, it
//! performs variable reordering to compact the size of the input BDD").
//! Since variables are decoupled from levels, reordering never copies the
//! function: [`window_reorder`] and [`sift_reorder`] drive
//! [`Manager::swap_levels`], which patches the affected nodes in place —
//! every outstanding [`Ref`] (the function under search included) keeps
//! denoting the same Boolean function, only its node count changes.
//!
//! The window search decides *which* arrangement to install without
//! building any: rearranging the variables of levels `[s, s + w)` leaves
//! every node outside those levels untouched (the nodes above `s` and below
//! `s + w` are distinct cofactors over variable *sets* the rearrangement
//! does not change), so a [`WindowOracle`] counts only the nodes the window
//! would hold, from the tabulated cofactors of the window's entry nodes.
//! The count is exact, so the search's decisions equal those of rebuilding
//! the function under every candidate order; only winners pay for swaps.
//!
//! [`Manager::permute`] remains as the *renaming* primitive: it builds a
//! genuinely different function (the composition with a variable
//! substitution), which is occasionally what a caller wants — but it is not
//! how reordering is implemented or probed.

use crate::hasher::BuildFxHasher;
use crate::manager::{ConvergeConfig, Manager, SiftConfig};
use crate::reference::Ref;
use crate::session::op;
use std::collections::hash_map::{Entry, HashMap};

impl Manager {
    /// Rebuilds `f` with every variable `v` replaced by `perm[v]` — a
    /// variable *renaming*, producing a (generally) different function.
    ///
    /// `perm` maps **variable index → variable index** (`perm[old] = new`)
    /// and must be a permutation of `0..perm.len()` covering the support
    /// of `f`.
    ///
    /// The per-call memo lives in the shared computed cache under a fresh
    /// `op::SCOPED` epoch, so no allocation happens per call.
    ///
    /// # Panics
    ///
    /// Panics if a support variable of `f` is outside `perm`; in debug
    /// builds, also if `perm` is not a permutation.
    pub fn permute(&mut self, f: Ref, perm: &[u32]) -> Ref {
        debug_assert!(
            is_permutation(perm),
            "permute: perm must be a permutation of 0..{}",
            perm.len()
        );
        let scope = self.new_scope();
        self.permute_rec(f, perm, scope)
    }

    fn permute_rec(&mut self, f: Ref, perm: &[u32], scope: u32) -> Ref {
        if f.is_const() {
            return f;
        }
        if let Some(r) = self.session.cache.lookup(op::SCOPED, f.raw(), scope, 1) {
            return r;
        }
        let v = self.top_var(f).expect("non-constant");
        let new_var = perm[v.index()];
        let (f0, f1) = self.shallow_cofactors(f, v);
        let lo = self.permute_rec(f0, perm, scope);
        let hi = self.permute_rec(f1, perm, scope);
        // The renamed variable may land *below* the children's new
        // positions, so rebuild with ITE (handles arbitrary targets).
        let vref = self.var(new_var);
        let r = self.ite(vref, hi, lo);
        self.session.cache.insert(op::SCOPED, f.raw(), scope, 1, r);
        r
    }
}

/// Result of an in-place reordering search.
#[derive(Clone, Debug)]
pub struct Reordered {
    /// The order the search left installed in the manager, as a
    /// **variable → level** map: `perm[var] = level` (the position of
    /// `var` in the decision order, 0 = root). This is a snapshot of
    /// [`Manager::var2level`]; use [`invert`]'s convention to read it the
    /// other way around. Always a permutation of `0..perm.len()`.
    pub perm: Vec<u32>,
    /// The searched function — the *same* `Ref` that was passed in:
    /// in-place reordering never rebuilds or renames it.
    pub function: Ref,
    /// Size of `function` under the installed order.
    pub size: usize,
}

/// Whether `perm` is a permutation of `0..perm.len()`.
fn is_permutation(perm: &[u32]) -> bool {
    let mut seen = vec![false; perm.len()];
    perm.iter()
        .all(|&p| (p as usize) < seen.len() && !std::mem::replace(&mut seen[p as usize], true))
}

/// Exact, read-only size oracle for rearrangements of one window of
/// adjacent levels — the probe behind [`window_reorder`].
///
/// Permuting the variables at levels `[s, s + w)` leaves every node of `f`
/// above `s` and below `s + w` in place (Rudell's locality of adjacent
/// swaps): a node at level `l` is a distinct cofactor of `f` over the
/// variables above `l` that depends on the variable at `l`, and outside
/// the window that variable *set* is the same under every arrangement. So
///
/// ```text
/// size(f under π) = size(f) − window_nodes(identity) + window_nodes(π)
/// ```
///
/// and only the window's own nodes need counting. They are computed from
/// the window's *entries* — `f` itself if it sits in the window, plus every
/// window node with a parent above `s` — each tabulated as its `2^w` exit
/// [`Ref`]s (one per assignment of the window variables, complement bits
/// folded in). Under an arrangement, level `s + i` holds one node per
/// distinct sub-table (entry × assignment of the variables above it) that
/// depends on its variable, counted modulo complement exactly as the
/// manager's complement-edge canonical form stores them. The count is built
/// bottom-up through a window-local unique table, so probes read the
/// manager but never create, reference or displace a node.
///
/// Use: [`WindowOracle::scan`] `f` once, then for each window
/// [`WindowOracle::load`] its start level and [`WindowOracle::probe`] any
/// of the [`WindowOracle::arrangements`]. A scan stays valid until the
/// order or `f`'s nodes change (an install, a collection that could
/// reclaim them).
#[derive(Clone, Debug)]
pub struct WindowOracle {
    window: usize,
    /// The `window!` arrangements in lexicographic order (identity first),
    /// flattened: arrangement `k` seats current window position
    /// `arrangements[k * window + i]` at level `start + i`.
    arrangements: Vec<u8>,
    /// Per arrangement, the bottom-up merge steps of every entry's table:
    /// levels `window - 1` down to `0`, level `i` contributing `2^i` pairs
    /// `(low index, high index)` into the `2^window` table.
    steps: Vec<(u32, u32)>,
    /// Size of the scanned function.
    size: usize,
    /// The scanned function's nodes as `(level, regular edge, top)`, sorted
    /// by level; `top` is one more than the shallowest parent's level (0
    /// for the root), so a node is a window entry iff `top <= start`.
    nodes: Vec<(u32, Ref, u32)>,
    /// `nodes[level_start[l]..level_start[l + 1]]` sit at level `l`.
    level_start: Vec<u32>,
    /// Scan scratch: arena index → position in `nodes` (pre-sort), and
    /// the DFS stack.
    seen: HashMap<u32, u32, BuildFxHasher>,
    stack: Vec<Ref>,
    /// The loaded window: its f-nodes (the identity's count) and the
    /// entries' exit tables, `2^window` `Ref`s per entry.
    current_nodes: usize,
    exits: Vec<Ref>,
    /// Probe scratch: the tables being reduced and the local unique table.
    work: Vec<u64>,
    unique: HashMap<(u64, u64), u64, BuildFxHasher>,
}

/// Window-local node refs share the manager's complement bit (bit 0) and
/// are told apart from manager [`Ref`]s (which fit in 32 bits) by this tag.
const LOCAL: u64 = 1 << 33;

impl WindowOracle {
    /// An oracle for windows of `window` levels, with its `window!`
    /// arrangements and their merge steps precomputed.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn new(window: usize) -> WindowOracle {
        assert!(window >= 2, "a window spans at least two levels");
        let count: usize = (2..=window).product();
        let mut arrangements = Vec::with_capacity(count * window);
        let mut steps = Vec::with_capacity(count * ((1 << window) - 1));
        arrangements.extend(0..window as u8);
        loop {
            let k = arrangements.len() - window;
            // Reducing level i merges the table entries that differ only in
            // the bit of position arrangement[i]; deeper levels' bits are
            // already folded into index 0 of their pairs.
            let mut folded = 0usize;
            for i in (0..window).rev() {
                let bit = 1usize << arrangements[k + i];
                for a in 0..1usize << window {
                    if a & (folded | bit) == 0 {
                        steps.push((a as u32, (a | bit) as u32));
                    }
                }
                folded |= bit;
            }
            arrangements.extend_from_within(k..);
            if !next_arrangement(&mut arrangements[k + window..]) {
                arrangements.truncate(k + window);
                break;
            }
        }
        WindowOracle {
            window,
            arrangements,
            steps,
            size: 0,
            nodes: Vec::new(),
            level_start: Vec::new(),
            seen: HashMap::default(),
            stack: Vec::new(),
            current_nodes: 0,
            exits: Vec::new(),
            work: Vec::new(),
            unique: HashMap::default(),
        }
    }

    /// Number of arrangements (`window!`); index 0 is the identity.
    pub fn arrangements(&self) -> usize {
        self.arrangements.len() / self.window
    }

    /// Arrangement `k` as window positions: it seats the variable now at
    /// level `start + arrangement(k)[i]` at level `start + i`.
    pub fn arrangement(&self, k: usize) -> &[u8] {
        &self.arrangements[k * self.window..(k + 1) * self.window]
    }

    /// Records `f`'s nodes with their levels and shallowest parents (one
    /// DFS). Returns `size(f)`.
    pub fn scan(&mut self, m: &Manager, f: Ref) -> usize {
        self.seen.clear();
        self.stack.clear();
        self.nodes.clear();
        if !f.is_const() {
            self.seen.insert(f.node().0, 0);
            self.nodes.push((m.level(f), f.regular(), 0));
            self.stack.push(f.regular());
        }
        while let Some(r) = self.stack.pop() {
            let node = m.node(r.node());
            let top = m.level_of_var(node.var) + 1;
            for child in [node.low, node.high] {
                if child.is_const() {
                    continue;
                }
                match self.seen.entry(child.node().0) {
                    Entry::Occupied(e) => {
                        let slot = &mut self.nodes[*e.get() as usize].2;
                        *slot = (*slot).min(top);
                    }
                    Entry::Vacant(e) => {
                        e.insert(self.nodes.len() as u32);
                        self.nodes.push((m.level(child), child.regular(), top));
                        self.stack.push(child.regular());
                    }
                }
            }
        }
        self.nodes.sort_unstable_by_key(|&(level, ..)| level);
        let n = m.num_vars() as usize;
        self.level_start.clear();
        self.level_start.resize(n + 1, 0);
        for &(level, ..) in &self.nodes {
            self.level_start[level as usize + 1] += 1;
        }
        for l in 0..n {
            self.level_start[l + 1] += self.level_start[l];
        }
        self.size = self.nodes.len();
        self.size
    }

    /// Number of levels in `[start, start + window)` holding nodes of the
    /// scanned function — the window's share of its support.
    pub(crate) fn occupied_levels(&self, start: usize) -> usize {
        self.level_start[start..=start + self.window]
            .windows(2)
            .filter(|b| b[0] < b[1])
            .count()
    }

    /// Tabulates the window `[start, start + window)` of the scanned
    /// function: its entries and their exit `Ref`s.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit in the manager's levels; the
    /// results are meaningless unless the order and the scanned function's
    /// nodes are unchanged since [`WindowOracle::scan`].
    pub fn load(&mut self, m: &Manager, start: usize) {
        let w = self.window;
        let range = self.level_start[start] as usize..self.level_start[start + w] as usize;
        self.current_nodes = range.len();
        self.exits.clear();
        let width = 1usize << w;
        for &(_, entry, top) in &self.nodes[range] {
            if top as usize > start {
                continue;
            }
            // Fill the table position by position: after step p, index a
            // < 2^(p+1) holds the cofactor under a's first p + 1 bits.
            let base = self.exits.len();
            self.exits.resize(base + width, entry);
            let table = &mut self.exits[base..];
            for p in 0..w {
                let v = m.var_at_level((start + p) as u32);
                for a in 0..1usize << p {
                    let (lo, hi) = m.shallow_cofactors(table[a], v);
                    table[a] = lo;
                    table[a | 1 << p] = hi;
                }
            }
        }
    }

    /// Size of the scanned function if the loaded window's variables were
    /// rearranged by arrangement `k`, with nothing built.
    pub fn probe(&mut self, k: usize) -> usize {
        let window_nodes = self.window_nodes(k);
        self.size - self.current_nodes + window_nodes
    }

    /// Nodes the loaded window's levels hold under arrangement `k`: every
    /// entry's table is reduced bottom-up, one merge per step, through a
    /// unique table keyed by `(low, high, level)` with the high edge kept
    /// regular — the manager's canonical form, in miniature.
    fn window_nodes(&mut self, k: usize) -> usize {
        let w = self.window;
        let per_arrangement = (1usize << w) - 1;
        let steps = &self.steps[k * per_arrangement..(k + 1) * per_arrangement];
        self.work.clear();
        self.work.extend(self.exits.iter().map(|r| r.raw() as u64));
        self.unique.clear();
        let mut created = 0u64;
        for table in self.work.chunks_exact_mut(1 << w) {
            let mut pairs = steps.iter();
            for level in (0..w as u64).rev() {
                for &(a, b) in pairs.by_ref().take(1 << level) {
                    let (lo, hi) = (table[a as usize], table[b as usize]);
                    if lo != hi {
                        let c = hi & 1;
                        let node = *self
                            .unique
                            .entry((lo ^ c, (hi ^ c) | level << 40))
                            .or_insert_with(|| {
                                created += 1;
                                LOCAL | created << 1
                            });
                        table[a as usize] = node | c;
                    }
                }
            }
        }
        created as usize
    }
}

/// Window-permutation minimization over the manager's live order: for each
/// sliding window of `window` adjacent *levels* (window-3 is the classic
/// CUDD `WINDOW3` heuristic), all `window!` orderings are evaluated and
/// the one minimizing `size(f)` is installed in place through
/// [`Manager::swap_levels`], until a full sweep yields no improvement or
/// `max_sweeps` is reached.
///
/// Candidates are probed with a [`WindowOracle`]: reordering a window
/// changes only the window's own levels, so each arrangement's exact size
/// is `size(f)` minus the window's nodes plus the nodes its arrangement
/// would hold, counted from the tabulated cofactors of the window's
/// entries. Probing reads the manager and builds nothing; `f` is walked
/// once up front and again only after an install. Only a winning
/// arrangement pays the swap primitive, whose cost scales with the whole
/// manager's population at the affected levels. Ties keep the current
/// order: a candidate must be strictly smaller.
///
/// The search runs in place: `f` is returned unchanged (same `Ref`, same
/// function) with the minimizing order left installed in the manager —
/// which also re-shapes every other function sharing these variables, as
/// dynamic reordering always does. An install's swaps displace nodes into
/// garbage, so the search protects `f` and offers the manager a
/// [`Manager::maybe_collect`] after each one. Functions the *caller*
/// holds across this call must be protected by the caller.
pub fn window_reorder(m: &mut Manager, f: Ref, window: usize, max_sweeps: usize) -> Reordered {
    let n = m.num_vars() as usize;
    if n < 2 || window < 2 {
        return Reordered {
            perm: m.var2level().to_vec(),
            function: f,
            size: m.size(f),
        };
    }
    m.protect(f);
    let window = window.min(n);
    let mut oracle = WindowOracle::new(window);
    let mut target = vec![0u32; window];
    let mut best_size = oracle.scan(m, f);
    for _ in 0..max_sweeps {
        let mut improved = false;
        for start in 0..=(n - window) {
            // size(f) depends only on the *relative* order of f's support
            // variables — exactly the levels holding f's nodes — so a
            // window with fewer than two of them cannot change it.
            if oracle.occupied_levels(start) < 2 {
                continue;
            }
            oracle.load(m, start);
            debug_assert_eq!(oracle.probe(0), best_size, "identity probe is size(f)");
            let mut best = 0;
            for k in 1..oracle.arrangements() {
                let s = oracle.probe(k);
                if s < best_size {
                    best_size = s;
                    best = k;
                    improved = true;
                }
            }
            if best != 0 {
                // Install the winner for real, by adjacent swaps. The probe
                // promised this size; the in-place machinery must deliver
                // exactly it (canonicity makes them equal).
                for (t, &p) in target.iter_mut().zip(oracle.arrangement(best)) {
                    *t = m.level2var()[start + p as usize];
                }
                restore_window(m, start, &target);
                debug_assert_eq!(m.size(f), best_size, "probe and swap must agree");
                // The swaps displaced nodes; f is protected, so a collection
                // leaves the rescan's nodes alive.
                m.maybe_collect();
                oracle.scan(m, f);
            }
        }
        if !improved {
            break;
        }
    }
    m.release(f);
    let perm = m.var2level().to_vec();
    debug_assert!(is_permutation(&perm));
    Reordered {
        perm,
        function: f,
        size: best_size,
    }
}

/// Rudell sifting scoped to a caller's function: protects `f`, runs one
/// sift pass actively moving only `f`'s support variables (the metric is
/// still the whole protected-root size, so other protected functions are
/// never sacrificed), and reports the order it installed. Like
/// [`window_reorder`] this is in place: the returned `function` is the
/// `f` that was passed in. The pass collects (see [`Manager::sift`]), so
/// call it only at quiescent points.
pub fn sift_reorder(m: &mut Manager, f: Ref, cfg: &SiftConfig) -> Reordered {
    m.protect(f);
    let support = m.support(f);
    m.sift_vars(cfg, &support);
    m.release(f);
    let perm = m.var2level().to_vec();
    debug_assert!(is_permutation(&perm));
    Reordered {
        perm,
        function: f,
        size: m.size(f),
    }
}

/// [`sift_reorder`] to convergence: protects `f` and repeats
/// budget-relaxed sift passes over its support
/// ([`Manager::sift_to_fixpoint`]'s contract, scoped like
/// [`Manager::sift_vars`]) until a pass improves the rooted size by less
/// than [`ConvergeConfig::min_gain`]. The converged size is never worse
/// than a single pass's — each pass parks every variable at its best
/// seen position, its start included. In place, and collecting, like
/// [`sift_reorder`].
pub fn sift_converge_reorder(m: &mut Manager, f: Ref, cfg: &ConvergeConfig) -> Reordered {
    m.protect(f);
    let support = m.support(f);
    m.sift_to_fixpoint_filtered(cfg, Some(&support));
    m.release(f);
    let perm = m.var2level().to_vec();
    debug_assert!(is_permutation(&perm));
    Reordered {
        perm,
        function: f,
        size: m.size(f),
    }
}

/// Bubbles the levels `[start, start + target.len())` into the variable
/// order given by `target` using adjacent swaps.
fn restore_window(m: &mut Manager, start: usize, target: &[u32]) {
    for (i, &want) in target.iter().enumerate() {
        let mut pos = (start + i..start + target.len())
            .find(|&p| m.level2var()[p] == want)
            .expect("window restore target must be a reordering of the window");
        while pos > start + i {
            m.swap_levels((pos - 1) as u32);
            pos -= 1;
        }
    }
}

/// Steps `a` to its lexicographic successor in place (Narayana's
/// algorithm); returns `false`, leaving `a` sorted descending, once it was
/// the last arrangement.
fn next_arrangement(a: &mut [u8]) -> bool {
    let Some(i) = (1..a.len()).rev().find(|&i| a[i - 1] < a[i]) else {
        return false;
    };
    let mut j = a.len() - 1;
    while a[j] <= a[i - 1] {
        j -= 1;
    }
    a.swap(i - 1, j);
    a[i..].reverse();
    true
}

/// Inverts a **position → value** list into a **value → position** list
/// (and vice versa — inversion is an involution): given
/// `map[pos] = val`, returns `inv` with `inv[val] = pos`. Used to flip a
/// `level2var` view into a `var2level` view of the same order.
///
/// # Panics
///
/// In debug builds, panics if `map` is not a permutation.
pub fn invert(map: &[u32]) -> Vec<u32> {
    debug_assert!(is_permutation(map), "invert: input must be a permutation");
    let mut inv = vec![0u32; map.len()];
    for (pos, &val) in map.iter().enumerate() {
        inv[val as usize] = pos as u32;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic order-sensitive function: x0·x1 + x2·x3 + x4·x5 is
    /// linear in the good order and exponential in the interleaved order.
    fn chain_and_or(m: &mut Manager, pairs: &[(u32, u32)]) -> Ref {
        let mut f = m.zero();
        for &(a, b) in pairs {
            let va = m.var(a);
            let vb = m.var(b);
            let ab = m.and(va, vb);
            f = m.or(f, ab);
        }
        f
    }

    #[test]
    fn permute_is_function_renaming() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        m.var(2);
        let f = m.ite(a, b, c);
        // Swap variables 1 and 2: ite(a, c, b).
        let g = m.permute(f, &[0, 2, 1]);
        let expect = m.ite(a, c, b);
        assert_eq!(g, expect);
    }

    #[test]
    fn permute_identity_is_noop() {
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..5).map(|i| m.var(i)).collect();
        let f = m.xor_all(vars);
        assert_eq!(m.permute(f, &[0, 1, 2, 3, 4]), f);
    }

    #[test]
    fn bad_order_is_exponentially_larger() {
        let mut m = Manager::new();
        for i in 0..6 {
            m.var(i);
        }
        let good = chain_and_or(&mut m, &[(0, 1), (2, 3), (4, 5)]);
        let bad = chain_and_or(&mut m, &[(0, 3), (1, 4), (2, 5)]);
        assert!(m.size(bad) > m.size(good), "interleaving must cost nodes");
        assert_eq!(m.size(good), 6);
    }

    #[test]
    fn window_reorder_recovers_good_order_in_place() {
        let mut m = Manager::new();
        for i in 0..6 {
            m.var(i);
        }
        // Interleaved pairing: worst case for the identity order.
        let bad = chain_and_or(&mut m, &[(0, 3), (1, 4), (2, 5)]);
        m.protect(bad);
        let before = m.size(bad);
        let result = window_reorder(&mut m, bad, 3, 8);
        assert!(
            result.size < before,
            "window reordering must shrink {before} nodes (got {})",
            result.size
        );
        assert_eq!(result.size, 6, "optimal pairing order reachable");
        // In-place: the same Ref, same function, new order installed.
        assert_eq!(result.function, bad);
        assert_eq!(m.size(bad), result.size);
        assert_eq!(result.perm, m.var2level().to_vec());
        for row in 0..64u32 {
            let assignment: Vec<bool> = (0..6).map(|i| row >> i & 1 == 1).collect();
            let want = (assignment[0] && assignment[3])
                || (assignment[1] && assignment[4])
                || (assignment[2] && assignment[5]);
            assert_eq!(m.eval(bad, &assignment), want, "row {row}");
        }
        m.release(bad);
    }

    #[test]
    fn window_reorder_on_symmetric_function_is_stable() {
        // Parity is order-independent: reordering must change nothing.
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..8).map(|i| m.var(i)).collect();
        let f = m.xor_all(vars);
        let before = m.size(f);
        let result = window_reorder(&mut m, f, 3, 4);
        assert_eq!(result.size, before);
        assert_eq!(result.function, f);
    }

    #[test]
    fn sift_reorder_matches_window_quality_on_pairing() {
        let mut m = Manager::new();
        for i in 0..6 {
            m.var(i);
        }
        let bad = chain_and_or(&mut m, &[(0, 3), (1, 4), (2, 5)]);
        let before = m.size(bad);
        let result = sift_reorder(&mut m, bad, &SiftConfig::default());
        assert_eq!(result.function, bad, "sift is in place");
        assert!(result.size < before, "{before} -> {}", result.size);
        assert_eq!(result.size, 6);
        assert_eq!(result.perm, m.var2level().to_vec());
    }

    #[test]
    fn permutations_enumerates_factorial() {
        for (w, count) in [(2, 2), (3, 6), (4, 24)] {
            let all: Vec<Vec<u8>> = WindowOracle::new(w)
                .arrangements
                .chunks(w)
                .map(<[u8]>::to_vec)
                .collect();
            assert_eq!(all.len(), count);
            assert_eq!(all[0], (0..w as u8).collect::<Vec<_>>(), "identity first");
            assert!(
                all.windows(2).all(|p| p[0] < p[1]),
                "lexicographic, no duplicates"
            );
        }
    }

    #[test]
    fn invert_roundtrips_and_flips_direction() {
        let level2var = vec![2u32, 0, 3, 1]; // level -> var
        let var2level = invert(&level2var); // var -> level
        assert_eq!(var2level, vec![1, 3, 0, 2]);
        assert_eq!(invert(&var2level), level2var, "inversion is an involution");
    }
}
