//! Small truth tables: the node-function representation used by BLIF LUTs
//! and by exhaustive equivalence checks.

use std::fmt;

/// A truth table over up to 16 inputs, stored as packed 64-bit words.
///
/// Bit `i` of the table is the function value on the assignment whose bits
/// are the binary digits of `i` (input 0 is the least significant digit).
/// Bits past the last row of a table under 64 rows are always clear.
///
/// Whole-table queries work a word at a time, and consumers that turn a
/// table into structure (BDDs, AIGs, mapped cells, simulation words) walk
/// it with [`TruthTable::shannon`], which stops at constant cofactors
/// instead of visiting all `2^n` rows.
///
/// # Example
///
/// ```
/// use logic::TruthTable;
/// let and2 = TruthTable::from_fn(2, |bits| bits == 0b11);
/// assert!(and2.value(0b11));
/// assert!(!and2.value(0b01));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_inputs: u32,
    words: Vec<u64>,
}

const MAX_INPUTS: u32 = 16;

/// Rows of input `i < 6` where that input is 1, as a 64-row word pattern:
/// the literal projections of the low inputs. Inputs 6 and up select
/// whole words (bit `i - 6` of the word index).
pub(crate) const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl TruthTable {
    /// Builds a table by evaluating `f` on every assignment (encoded as the
    /// bits of the row index).
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 16`.
    pub fn from_fn(num_inputs: u32, f: impl Fn(usize) -> bool) -> TruthTable {
        assert!(num_inputs <= MAX_INPUTS, "truth table too wide");
        let rows = 1usize << num_inputs;
        let mut words = vec![0u64; Self::word_count(num_inputs)];
        for (row, word) in words.iter_mut().enumerate() {
            for bit in 0..64 {
                let idx = row * 64 + bit;
                if idx < rows && f(idx) {
                    *word |= 1 << bit;
                }
            }
        }
        TruthTable { num_inputs, words }
    }

    /// Builds a table from packed words: row `r` is bit `r % 64` of word
    /// `r / 64`. Bits past the last row (tables of fewer than 64 rows) are
    /// cleared, so equal functions compare equal.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 16` or `words` does not hold exactly
    /// `max(1, 2^num_inputs / 64)` words.
    pub fn from_words(num_inputs: u32, mut words: Vec<u64>) -> TruthTable {
        assert!(num_inputs <= MAX_INPUTS, "truth table too wide");
        assert_eq!(
            words.len(),
            Self::word_count(num_inputs),
            "word count does not match the input count"
        );
        if num_inputs < 6 {
            words[0] &= Self::row_mask(num_inputs);
        }
        TruthTable { num_inputs, words }
    }

    /// Number of 64-bit words of a table over `num_inputs` inputs.
    pub fn word_count(num_inputs: u32) -> usize {
        (1usize << num_inputs).div_ceil(64)
    }

    /// The used bits of the single word of a table with `num_inputs < 6`
    /// inputs (all ones from 6 inputs up).
    fn row_mask(num_inputs: u32) -> u64 {
        if num_inputs >= 6 {
            u64::MAX
        } else {
            (1u64 << (1u32 << num_inputs)) - 1
        }
    }

    /// The constant table (true or false) over `num_inputs` inputs.
    pub fn constant(num_inputs: u32, value: bool) -> TruthTable {
        let word = if value { u64::MAX } else { 0 };
        TruthTable::from_words(num_inputs, vec![word; Self::word_count(num_inputs)])
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> u32 {
        self.num_inputs
    }

    /// Number of rows (`2^num_inputs`).
    pub fn num_rows(&self) -> usize {
        1 << self.num_inputs
    }

    /// Function value on the assignment encoded by `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn value(&self, row: usize) -> bool {
        assert!(row < self.num_rows(), "row out of range");
        self.words[row / 64] >> (row % 64) & 1 == 1
    }

    /// Whether rows `start .. start + 2^log_len` all hold the same value,
    /// and which. `start` must be a multiple of `2^log_len`: such a range
    /// is the sub-table left when every input from `log_len` up is fixed.
    /// Reads whole words, so it costs `2^log_len / 64` word compares at
    /// most.
    fn range_constant(&self, start: usize, log_len: u32) -> Option<bool> {
        let first = start / 64;
        let (bits, full) = if log_len >= 6 {
            let word = self.words[first];
            let rest = &self.words[first + 1..first + (1 << (log_len - 6))];
            if rest.iter().any(|&w| w != word) {
                return None;
            }
            (word, u64::MAX)
        } else {
            let mask = Self::row_mask(log_len);
            (self.words[first] >> (start % 64) & mask, mask)
        };
        match bits {
            0 => Some(false),
            b if b == full => Some(true),
            _ => None,
        }
    }

    /// Whether the table is constant, and which constant.
    pub fn as_constant(&self) -> Option<bool> {
        self.range_constant(0, self.num_inputs)
    }

    /// Number of true rows.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Complemented table.
    pub fn complement(&self) -> TruthTable {
        TruthTable::from_words(self.num_inputs, self.words.iter().map(|w| !w).collect())
    }

    /// Shannon expansion of the table, pruned at constant sub-tables.
    ///
    /// Fixes inputs from the last down to the first, `then` branch before
    /// `else` branch, and calls `mux(i, then, else)` to combine the two
    /// cofactors over input `i`. A sub-table that is constant — including
    /// every single row — becomes `leaf(value)` without further descent.
    /// Each sub-table is a contiguous, aligned row range, so the constant
    /// test reads whole words.
    ///
    /// For a consumer whose `mux` folds two equal constant branches to that
    /// constant without side effects (`ite(k, c, c) = c`), the result and
    /// every object built on the way are exactly those of the full `2^n`
    /// expansion, built in the same order: pruning only skips the calls
    /// that would have folded.
    ///
    /// # Errors
    ///
    /// Returns the first error `mux` returns; the walk stops there.
    pub fn try_shannon<T, E>(
        &self,
        leaf: impl Fn(bool) -> T,
        mut mux: impl FnMut(usize, T, T) -> Result<T, E>,
    ) -> Result<T, E> {
        fn walk<T, E>(
            table: &TruthTable,
            free: u32,
            row: usize,
            leaf: &impl Fn(bool) -> T,
            mux: &mut impl FnMut(usize, T, T) -> Result<T, E>,
        ) -> Result<T, E> {
            if let Some(value) = table.range_constant(row, free) {
                return Ok(leaf(value));
            }
            let i = free - 1;
            let hi = walk(table, i, row | 1 << i, leaf, mux)?;
            let lo = walk(table, i, row, leaf, mux)?;
            mux(i as usize, hi, lo)
        }
        walk(self, self.num_inputs, 0, &leaf, &mut mux)
    }

    /// Infallible [`Self::try_shannon`].
    pub fn shannon<T>(&self, leaf: impl Fn(bool) -> T, mut mux: impl FnMut(usize, T, T) -> T) -> T {
        let Ok(r) = self.try_shannon(leaf, |i, hi, lo| {
            Ok::<T, std::convert::Infallible>(mux(i, hi, lo))
        });
        r
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} in: ", self.num_inputs)?;
        let rows = self.num_rows().min(32);
        for r in (0..rows).rev() {
            write!(f, "{}", self.value(r) as u8)?;
        }
        if self.num_rows() > 32 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn and_table() {
        let t = TruthTable::from_fn(2, |b| b == 3);
        assert_eq!(t.count_ones(), 1);
        assert!(t.value(3));
        assert!(!t.value(0));
        assert_eq!(t.as_constant(), None);
    }

    #[test]
    fn constants() {
        let t = TruthTable::constant(3, true);
        assert_eq!(t.as_constant(), Some(true));
        assert_eq!(t.count_ones(), 8);
        let f = TruthTable::constant(0, false);
        assert_eq!(f.as_constant(), Some(false));
        assert_eq!(f.num_rows(), 1);
    }

    #[test]
    fn complement_roundtrip() {
        let t = TruthTable::from_fn(3, |b| b % 3 == 0);
        assert_eq!(t.complement().complement(), t);
        assert_eq!(t.count_ones() + t.complement().count_ones(), 8);
    }

    #[test]
    fn wide_table_crosses_word_boundary() {
        let t = TruthTable::from_fn(8, |b| b & 1 == 1);
        assert_eq!(t.count_ones(), 128);
        assert!(t.value(255));
        assert!(!t.value(254));
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn rejects_oversized_tables() {
        TruthTable::from_fn(17, |_| false);
    }

    #[test]
    fn from_words_clears_rows_past_the_table() {
        let t = TruthTable::from_words(2, vec![u64::MAX]);
        assert_eq!(t, TruthTable::constant(2, true));
        assert_eq!(t.words, [0b1111]);
        assert_eq!(t.complement(), TruthTable::constant(2, false));
        assert_eq!(TruthTable::constant(0, true).words, [1]);
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn from_words_rejects_a_wrong_word_count() {
        TruthTable::from_words(7, vec![0]);
    }

    /// Random tables skewed toward the shapes the pruned walk cuts short:
    /// sparse, one-hot OR, half constant.
    pub(crate) fn skewed_table(n: u32, seed: u64) -> TruthTable {
        let mut rng = crate::XorShift64::new(seed);
        let mut next = move || rng.next_u64();
        let rows = 1usize << n;
        match next() % 5 {
            // Sparse: a few minterms.
            0 => {
                let picks: Vec<usize> = (0..=next() % 4).map(|_| next() as usize % rows).collect();
                TruthTable::from_fn(n, |r| picks.contains(&r))
            }
            // One-hot OR of literals, like a written OR gate's cover.
            1 => {
                let (care, pol) = (next() as usize, next() as usize);
                TruthTable::from_fn(n, |r| !(r ^ pol) & care & (rows - 1) != 0)
            }
            // One half constant, the other random.
            2 => {
                let (value, half) = (next() & 1 == 1, next() as usize % rows.max(2) / 2);
                let words: Vec<u64> = (0..TruthTable::word_count(n)).map(|_| next()).collect();
                let dense = TruthTable::from_words(n, words);
                TruthTable::from_fn(n, |r| if r & half != 0 { value } else { dense.value(r) })
            }
            3 => {
                let words = (0..TruthTable::word_count(n)).map(|_| next()).collect();
                TruthTable::from_words(n, words)
            }
            _ => TruthTable::constant(n, next() & 1 == 1),
        }
    }

    /// The full `2^n` expansion the pruned walk replaces: every row is a
    /// leaf and every input fixed from the last down gets a mux.
    fn full_expansion<T>(
        t: &TruthTable,
        leaf: &impl Fn(bool) -> T,
        mux: &mut impl FnMut(usize, T, T) -> T,
    ) -> T {
        fn expand<T>(
            t: &TruthTable,
            fixed: usize,
            row: usize,
            leaf: &impl Fn(bool) -> T,
            mux: &mut impl FnMut(usize, T, T) -> T,
        ) -> T {
            let n = t.num_inputs() as usize;
            if fixed == n {
                return leaf(t.value(row));
            }
            let i = n - 1 - fixed;
            let hi = expand(t, fixed + 1, row | 1 << i, leaf, mux);
            let lo = expand(t, fixed + 1, row, leaf, mux);
            mux(i, hi, lo)
        }
        expand(t, 0, 0, leaf, mux)
    }

    /// A symbolic term for each mux, folding equal constant branches:
    /// the pruned walk must build exactly the terms of the full
    /// expansion, in the same order.
    #[derive(Clone, Debug, PartialEq)]
    enum Term {
        Const(bool),
        Node(usize),
    }

    fn log_terms(t: &TruthTable, pruned: bool) -> (Term, Vec<(usize, Term, Term)>) {
        let mut built = Vec::new();
        let mut mux = |i: usize, hi: Term, lo: Term| match (&hi, &lo) {
            (Term::Const(h), Term::Const(l)) if h == l => hi,
            _ => {
                built.push((i, hi, lo));
                Term::Node(built.len() - 1)
            }
        };
        let root = if pruned {
            t.shannon(Term::Const, mux)
        } else {
            full_expansion(t, &Term::Const, &mut mux)
        };
        (root, built)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The word-wise checks agree with row-by-row scans.
        #[test]
        fn word_checks_match_row_scans(n in 0u32..17, seed in proptest::prelude::any::<u64>()) {
            let t = skewed_table(n, seed);
            let rows: Vec<bool> = (0..t.num_rows()).map(|r| t.value(r)).collect();
            let scan = |rows: &[bool]| {
                let first = rows[0];
                rows.iter().all(|&v| v == first).then_some(first)
            };
            proptest::prop_assert_eq!(t.as_constant(), scan(&rows));
            let c = t.complement();
            proptest::prop_assert!((0..t.num_rows()).all(|r| c.value(r) != rows[r]));
            proptest::prop_assert_eq!(c.count_ones(), t.num_rows() - t.count_ones());
            for log_len in 0..=n {
                for (k, chunk) in rows.chunks(1 << log_len).enumerate() {
                    let range = t.range_constant(k << log_len, log_len);
                    proptest::prop_assert_eq!(range, scan(chunk));
                }
            }
        }

        /// The pruned walk builds the full expansion's terms in order, and
        /// the same function.
        #[test]
        fn shannon_builds_the_full_expansion(
            n in 0u32..17,
            seed in proptest::prelude::any::<u64>()
        ) {
            let t = skewed_table(n, seed);
            proptest::prop_assert_eq!(log_terms(&t, true), log_terms(&t, false));
            let eval = |row: usize| {
                t.shannon(|v| v, |i, hi, lo| if row >> i & 1 == 1 { hi } else { lo })
            };
            let stride = (t.num_rows() / 256).max(1);
            let mut rows = (0..t.num_rows()).step_by(stride);
            proptest::prop_assert!(rows.all(|r| eval(r) == t.value(r)));
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let t = TruthTable::from_fn(1, |b| b == 1);
        assert!(!format!("{t:?}").is_empty());
    }
}
