//! BLIF (Berkeley Logic Interchange Format) reading and writing.
//!
//! Supports the combinational subset used by the MCNC benchmarks: `.model`,
//! `.inputs`, `.outputs`, `.names` with SOP covers, and `.end`. Sequential
//! constructs (`.latch`) are rejected with an error.

use crate::network::{GateKind, Network, SignalId};
use crate::truth::{TruthTable, VAR_MASKS};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Error produced while parsing BLIF text.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseBlifError {
    line: usize,
    message: String,
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blif parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseBlifError {}

impl ParseBlifError {
    /// 1-based source line the error points at (never 0: every error path
    /// carries the line of a real directive or cover row).
    pub fn line(&self) -> usize {
        self.line
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseBlifError {
    ParseBlifError {
        line,
        message: message.into(),
    }
}

/// One `.names` block: output name, input names, and the SOP cover rows.
struct NamesBlock {
    line: usize,
    inputs: Vec<String>,
    output: String,
    /// Cover rows: the row's cube and its output value.
    cubes: Vec<(Cube, bool)>,
}

/// One cover row's input mask: the inputs it tests (`care`) and the values
/// it requires there (`ones`, a subset of `care`); bit `i` is input `i`.
#[derive(Clone, Copy, Debug, Default)]
struct Cube {
    care: u32,
    ones: u32,
}

impl Cube {
    /// Parses a mask of `0`, `1` and `-`; `None` on any other character.
    /// Bits past input 31 are dropped: covers that wide are rejected when
    /// their node is built.
    fn parse(mask: &str) -> Option<Cube> {
        let mut cube = Cube::default();
        for (i, ch) in mask.bytes().enumerate() {
            let bit = u32::try_from(i)
                .ok()
                .and_then(|i| 1u32.checked_shl(i))
                .unwrap_or(0);
            match ch {
                b'0' => cube.care |= bit,
                b'1' => {
                    cube.care |= bit;
                    cube.ones |= bit;
                }
                b'-' => {}
                _ => return None,
            }
        }
        Some(cube)
    }
}

/// What defines a signal name: primary input `k`, or `.names` block `b`
/// (both in file order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Definer {
    Input(usize),
    Block(usize),
}

/// Parses a BLIF model into a [`Network`].
///
/// The nodes of the result are LUTs carrying the exact cover function, so a
/// write/read round-trip is semantics-preserving. Each cover is filled a
/// 64-row word at a time (see [`cover_table`]), and the blocks are ordered
/// in time linear in the blocks and their fanins (see [`sweep_rounds`]).
///
/// # Errors
///
/// Returns [`ParseBlifError`] on malformed input (a cover mask character
/// other than `0`, `1` or `-` included), a signal defined twice, undefined
/// signals, combinational cycles, or unsupported constructs.
pub fn parse_blif(text: &str) -> Result<Network, ParseBlifError> {
    let mut model_name = String::from("model");
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<(usize, String)> = Vec::new();
    let mut blocks: Vec<NamesBlock> = Vec::new();
    // Every defined name, with the line of its definition.
    let mut definers: HashMap<String, (usize, Definer)> = HashMap::new();
    let mut define = |name: &str, line: usize, definer: Definer| match definers.entry(name.into()) {
        Entry::Occupied(first) => Err(err(
            line,
            format!(
                "signal {name} is defined twice (first at line {})",
                first.get().0
            ),
        )),
        Entry::Vacant(slot) => {
            slot.insert((line, definer));
            Ok(())
        }
    };

    // Join continuation lines ending in '\'.
    let mut logical_lines: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim_end();
        if pending.is_empty() {
            pending_line = i + 1;
        }
        if let Some(stripped) = line.strip_suffix('\\') {
            pending.push_str(stripped);
            pending.push(' ');
        } else {
            pending.push_str(line);
            let full = std::mem::take(&mut pending);
            if !full.trim().is_empty() {
                logical_lines.push((pending_line, full));
            }
        }
    }

    let mut idx = 0usize;
    while let Some((lineno, line)) = logical_lines.get(idx) {
        let lineno = *lineno;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&directive, rest)) = tokens.split_first() else {
            // Logical lines are non-empty by construction; an empty token
            // list is simply skipped rather than trusted not to occur.
            idx += 1;
            continue;
        };
        match directive {
            ".model" => {
                if let Some(name) = rest.first() {
                    model_name = (*name).to_string();
                }
                idx += 1;
            }
            ".inputs" => {
                for name in rest {
                    define(name, lineno, Definer::Input(input_names.len()))?;
                    input_names.push(name.to_string());
                }
                idx += 1;
            }
            ".outputs" => {
                output_names.extend(rest.iter().map(|s| (lineno, s.to_string())));
                idx += 1;
            }
            ".names" => {
                let Some((output, input_toks)) = rest.split_last() else {
                    return Err(err(lineno, ".names requires at least an output"));
                };
                define(output, lineno, Definer::Block(blocks.len()))?;
                let output = (*output).to_string();
                let inputs: Vec<String> = input_toks.iter().map(|s| s.to_string()).collect();
                let mut cubes = Vec::new();
                idx += 1;
                while let Some((cl, cline)) = logical_lines.get(idx) {
                    if cline.trim_start().starts_with('.') {
                        break;
                    }
                    let parts: Vec<&str> = cline.split_whitespace().collect();
                    let (mask, value) = if inputs.is_empty() {
                        match parts.as_slice() {
                            [value] => ("", *value),
                            _ => return Err(err(*cl, "constant cover row must be a single token")),
                        }
                    } else {
                        match parts.as_slice() {
                            [mask, value] => (*mask, *value),
                            _ => return Err(err(*cl, "cover row must be `<mask> <value>`")),
                        }
                    };
                    if mask.len() != inputs.len() {
                        return Err(err(*cl, "cover mask width mismatch"));
                    }
                    let Some(cube) = Cube::parse(mask) else {
                        return Err(err(*cl, "cover mask characters must be 0, 1 or -"));
                    };
                    let value = match value {
                        "1" => true,
                        "0" => false,
                        _ => return Err(err(*cl, "cover value must be 0 or 1")),
                    };
                    cubes.push((cube, value));
                    idx += 1;
                }
                blocks.push(NamesBlock {
                    line: lineno,
                    inputs,
                    output,
                    cubes,
                });
            }
            ".end" => break,
            ".latch" => return Err(err(lineno, "sequential BLIF (.latch) is not supported")),
            ".exdc" | ".gate" | ".subckt" => {
                return Err(err(lineno, format!("unsupported construct {directive}")))
            }
            other => return Err(err(lineno, format!("unknown directive {other}"))),
        }
    }

    // Build the network: inputs first, then the .names blocks in the order
    // of `sweep_rounds`.
    let definer = |name: &String| definers.get(name).map(|&(_, d)| d);
    let fanins: Vec<Vec<Option<Definer>>> = blocks
        .iter()
        .map(|b| b.inputs.iter().map(definer).collect())
        .collect();
    let rounds = sweep_rounds(&fanins);
    let mut net = Network::new(model_name);
    let input_ids: Vec<SignalId> = input_names
        .iter()
        .map(|name| net.add_input(name.clone()))
        .collect();
    let mut block_ids: Vec<Option<SignalId>> = vec![None; blocks.len()];
    let id_of = |block_ids: &[Option<SignalId>], d: Option<Definer>| match d? {
        Definer::Input(k) => input_ids.get(k).copied(),
        Definer::Block(b) => block_ids.get(b).copied().flatten(),
    };
    let last_round = rounds.iter().flatten().max().copied().unwrap_or(0);
    let mut by_round: Vec<Vec<usize>> = vec![Vec::new(); last_round + 1];
    for (b, round) in rounds.iter().enumerate() {
        if let Some(bucket) = round.and_then(|r| by_round.get_mut(r)) {
            bucket.push(b);
        }
    }
    for b in by_round.into_iter().flatten() {
        let (Some(block), Some(block_fanins)) = (blocks.get(b), fanins.get(b)) else {
            continue;
        };
        let ids: Vec<SignalId> = block_fanins
            .iter()
            .zip(&block.inputs)
            .map(|(&d, name)| {
                id_of(&block_ids, d)
                    .ok_or_else(|| err(block.line, format!("undefined signal {name}")))
            })
            .collect::<Result<_, _>>()?;
        let id = build_names_node(&mut net, ids, block)?;
        if let Some(slot) = block_ids.get_mut(b) {
            *slot = Some(id);
        }
    }
    // A block that never resolves has an undefined signal or sits on (or
    // behind) a cycle; report the first in file order.
    if let Some(b) = rounds.iter().position(Option::is_none) {
        if let (Some(block), Some(block_fanins)) = (blocks.get(b), fanins.get(b)) {
            let missing: Vec<&str> = block_fanins
                .iter()
                .zip(&block.inputs)
                .filter(|&(&d, _)| id_of(&block_ids, d).is_none())
                .map(|(_, name)| name.as_str())
                .collect();
            return Err(err(
                block.line,
                format!(
                    "undefined signal or combinational cycle (unresolved inputs of {}: {})",
                    block.output,
                    missing.join(", ")
                ),
            ));
        }
    }
    for (lineno, name) in &output_names {
        let id = definers
            .get(name)
            .and_then(|&(_, d)| id_of(&block_ids, Some(d)))
            .ok_or_else(|| err(*lineno, format!("undriven output {name}")))?;
        net.set_output(name.clone(), id);
    }
    Ok(net)
}

/// The round in which each `.names` block resolves when the blocks are
/// swept in file order, each sweep building every block whose fanins are
/// all defined; `None` for blocks that never resolve (an undefined fanin,
/// or a cycle upstream). `fanins[b]` holds the definer of each input of
/// block `b` (`None` when the name is undefined).
///
/// Primary inputs count as round 0, and a block resolves in the round
/// `max(1, max over its fanins of round(definer) + [definer comes later
/// in the file])`. Building the blocks by (round, file position) gives
/// the sweep's node order without the sweeps, which are quadratic on
/// files not written in topological order. The rounds are computed with
/// a worklist, not recursion, so chains deeper than the thread stack are
/// fine. Time is linear in the blocks and their fanins.
fn sweep_rounds(fanins: &[Vec<Option<Definer>>]) -> Vec<Option<usize>> {
    let mut rounds: Vec<Option<usize>> = vec![None; fanins.len()];
    // Per block, the fanins not yet resolved; an undefined fanin never is.
    let mut pending: Vec<usize> = vec![0; fanins.len()];
    // Per block, the blocks reading its output (once per fanin slot).
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); fanins.len()];
    let mut ready: Vec<usize> = Vec::new();
    for (b, (ins, count)) in fanins.iter().zip(pending.iter_mut()).enumerate() {
        for d in ins {
            match d {
                Some(Definer::Input(_)) => {}
                Some(Definer::Block(d)) => {
                    *count += 1;
                    if let Some(r) = readers.get_mut(*d) {
                        r.push(b);
                    }
                }
                None => *count += 1,
            }
        }
        if *count == 0 {
            ready.push(b);
        }
    }
    while let Some(b) = ready.pop() {
        let round = fanins
            .get(b)
            .into_iter()
            .flatten()
            .fold(1, |round, d| match d {
                Some(Definer::Block(d)) => {
                    let later = usize::from(*d > b);
                    let r = rounds.get(*d).copied().flatten().unwrap_or(0);
                    round.max(r + later)
                }
                _ => round,
            });
        if let Some(slot) = rounds.get_mut(b) {
            *slot = Some(round);
        }
        for &reader in readers.get(b).into_iter().flatten() {
            if let Some(count) = pending.get_mut(reader) {
                *count -= 1;
                if *count == 0 {
                    ready.push(reader);
                }
            }
        }
    }
    rounds
}

fn build_names_node(
    net: &mut Network,
    fanins: Vec<SignalId>,
    block: &NamesBlock,
) -> Result<SignalId, ParseBlifError> {
    if block.inputs.is_empty() {
        // Constant node: the cover is a (possibly empty) list of "1"/"0".
        let value = block.cubes.iter().any(|&(_, v)| v);
        let id = net.add_const(value);
        net.set_signal_name(id, block.output.clone());
        return Ok(id);
    }
    if block.inputs.len() > MAX_COVER_INPUTS {
        return Err(err(block.line, "cover with more than 16 inputs"));
    }
    // BLIF covers are either on-set or off-set, not mixed.
    let on_set = block.cubes.iter().all(|&(_, v)| v);
    if !on_set && block.cubes.iter().any(|&(_, v)| v) {
        return Err(err(block.line, "mixed on-set/off-set cover"));
    }
    let n = block.inputs.len() as u32;
    let table = cover_table(n, block.cubes.iter().map(|&(c, _)| c), on_set);
    let id = net.add_gate(GateKind::Lut(table), fanins);
    net.set_signal_name(id, block.output.clone());
    Ok(id)
}

/// The function of a cover over `n <= 16` inputs, filled a 64-row word at
/// a time: each cube is the AND of its literals' projections, the cubes
/// are ORed, and an off-set cover is complemented. Inputs 0–5 vary within
/// a word (the [`VAR_MASKS`] patterns); inputs 6 and up are bits of the
/// word index, so their literals select whole words.
fn cover_table(n: u32, cubes: impl Iterator<Item = Cube>, on_set: bool) -> TruthTable {
    let mut words = vec![0u64; TruthTable::word_count(n)];
    for cube in cubes {
        let mut within = u64::MAX;
        for (i, mask) in VAR_MASKS.iter().enumerate() {
            if cube.care >> i & 1 == 1 {
                within &= if cube.ones >> i & 1 == 1 {
                    *mask
                } else {
                    !*mask
                };
            }
        }
        let (care, ones) = ((cube.care >> 6) as usize, (cube.ones >> 6) as usize);
        for (w, word) in words.iter_mut().enumerate() {
            if w & care == ones {
                *word |= within;
            }
        }
    }
    if !on_set {
        words.iter_mut().for_each(|w| *w = !*w);
    }
    TruthTable::from_words(n, words)
}

/// Widest `.names` cover the reader accepts. The writer emits XOR/XNOR
/// gates wider than this as trees of 2-input blocks, since their cover
/// would need `2^(n-1)` rows.
const MAX_COVER_INPUTS: usize = 16;

/// Serializes a network to BLIF text. Every node becomes a `.names` block
/// with an on-set cover (LUTs emit their minterm list, structured gates emit
/// a canonical cover for their function), except XOR/XNOR gates wider than
/// the reader's cover limit, which become a balanced tree of 2-input XOR
/// blocks (see [`write_xor_tree`]).
pub fn write_blif(net: &Network) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // Every name in the file, built on the first wide XOR so the tree's
    // internal signals can be given fresh names.
    let mut taken: Option<HashSet<String>> = None;
    let _ = writeln!(out, ".model {}", net.name());
    let in_names: Vec<String> = net.inputs().iter().map(|&i| net.signal_name(i)).collect();
    let _ = writeln!(out, ".inputs {}", in_names.join(" "));
    let out_names: Vec<String> = net.outputs().iter().map(|(n, _)| n.clone()).collect();
    let _ = writeln!(out, ".outputs {}", out_names.join(" "));
    for id in net.signals() {
        let node = net.node(id);
        let name = net.signal_name(id);
        let fanin_names: Vec<String> = node.fanins.iter().map(|&f| net.signal_name(f)).collect();
        let header = if fanin_names.is_empty() {
            format!(".names {name}")
        } else {
            format!(".names {} {name}", fanin_names.join(" "))
        };
        let n = node.fanins.len();
        match &node.kind {
            GateKind::Input => {}
            GateKind::Const(v) => {
                let _ = writeln!(out, "{header}");
                if *v {
                    let _ = writeln!(out, "1");
                }
            }
            GateKind::Buf => {
                let _ = writeln!(out, "{header}\n1 1");
            }
            GateKind::Inv => {
                let _ = writeln!(out, "{header}\n0 1");
            }
            GateKind::And => {
                let _ = writeln!(out, "{header}\n{} 1", "1".repeat(n));
            }
            GateKind::Nand => {
                let _ = writeln!(out, "{header}");
                for i in 0..n {
                    let row: String = (0..n).map(|j| if j == i { '0' } else { '-' }).collect();
                    let _ = writeln!(out, "{row} 1");
                }
            }
            GateKind::Or => {
                let _ = writeln!(out, "{header}");
                for i in 0..n {
                    let row: String = (0..n).map(|j| if j == i { '1' } else { '-' }).collect();
                    let _ = writeln!(out, "{row} 1");
                }
            }
            GateKind::Nor => {
                let _ = writeln!(out, "{header}\n{} 1", "0".repeat(n));
            }
            GateKind::Xor | GateKind::Xnor if n > MAX_COVER_INPUTS => {
                let taken = taken.get_or_insert_with(|| {
                    net.signals()
                        .map(|s| net.signal_name(s))
                        .chain(out_names.iter().cloned())
                        .collect()
                });
                let invert = matches!(node.kind, GateKind::Xnor);
                write_xor_tree(&mut out, &name, fanin_names, invert, taken);
            }
            GateKind::Xor | GateKind::Xnor | GateKind::Maj | GateKind::Mux => {
                let _ = writeln!(out, "{header}");
                for row in 0..(1usize << n) {
                    let on = match &node.kind {
                        GateKind::Xor => row.count_ones() % 2 == 1,
                        GateKind::Xnor => row.count_ones() % 2 == 0,
                        GateKind::Maj => row.count_ones() >= 2,
                        GateKind::Mux => {
                            if row & 1 == 1 {
                                row >> 1 & 1 == 1
                            } else {
                                row >> 2 & 1 == 1
                            }
                        }
                        // bdslint: allow(panic-surface) -- the outer match arm
                        // restricts kind to Xor/Xnor/Maj/Mux; no input reaches this
                        _ => unreachable!(),
                    };
                    if on {
                        let mask: String = (0..n)
                            .map(|i| if row >> i & 1 == 1 { '1' } else { '0' })
                            .collect();
                        let _ = writeln!(out, "{mask} 1");
                    }
                }
            }
            GateKind::Lut(table) => {
                let _ = writeln!(out, "{header}");
                for row in 0..table.num_rows() {
                    if table.value(row) {
                        let mask: String = (0..n)
                            .map(|i| if row >> i & 1 == 1 { '1' } else { '0' })
                            .collect();
                        let _ = writeln!(out, "{mask} 1");
                    }
                }
            }
        }
    }
    // Alias buffers for outputs whose name differs from the driving node.
    for (name, s) in net.outputs() {
        let driver = net.signal_name(*s);
        if *name != driver {
            let _ = writeln!(out, ".names {driver} {name}\n1 1");
        }
    }
    out.push_str(".end\n");
    out
}

/// Writes the XOR of `fanins` (XNOR with `invert`) into `name` as a
/// balanced tree of 2-input XOR blocks, inverting only the root. Internal
/// signals are named `{name}_xor{k}`, skipping (and then claiming) every
/// name in `taken`.
fn write_xor_tree(
    out: &mut String,
    name: &str,
    fanins: Vec<String>,
    invert: bool,
    taken: &mut HashSet<String>,
) {
    use std::fmt::Write as _;
    let mut k = 0usize;
    let mut level = fanins;
    while level.len() > 2 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            match pair {
                [a, b] => {
                    let t = loop {
                        let t = format!("{name}_xor{k}");
                        k += 1;
                        if taken.insert(t.clone()) {
                            break t;
                        }
                    };
                    let _ = writeln!(out, ".names {a} {b} {t}\n01 1\n10 1");
                    next.push(t);
                }
                _ => next.extend(pair.iter().cloned()),
            }
        }
        level = next;
    }
    let rows = if invert { "00 1\n11 1" } else { "01 1\n10 1" };
    let _ = writeln!(out, ".names {} {name}\n{rows}", level.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a tiny model
.model adder
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
";

    #[test]
    fn parses_full_adder() {
        let net = parse_blif(SAMPLE).expect("parse");
        assert_eq!(net.name(), "adder");
        assert_eq!(net.inputs().len(), 3);
        assert_eq!(net.outputs().len(), 2);
        let out = net.simulate(&[0b10101010, 0b11001100, 0b11110000]);
        for row in 0..8u32 {
            let total = (0b10101010u64 >> row & 1)
                + (0b11001100u64 >> row & 1)
                + (0b11110000u64 >> row & 1);
            assert_eq!(out[0] >> row & 1, total & 1);
            assert_eq!(out[1] >> row & 1, (total >= 2) as u64);
        }
    }

    #[test]
    fn roundtrip_preserves_function() {
        let net = parse_blif(SAMPLE).unwrap();
        let text = write_blif(&net);
        let net2 = parse_blif(&text).expect("reparse");
        let p = [0x123456789abcdefu64, 0xfedcba9876543210, 0x0f0f0f0f0f0f0f0f];
        assert_eq!(net.simulate(&p), net2.simulate(&p));
    }

    #[test]
    fn offset_covers_supported() {
        let text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n";
        let net = parse_blif(text).unwrap();
        // y = NOT(a AND b)
        let out = net.simulate(&[0b1010, 0b1100]);
        assert_eq!(out[0] & 0xF, 0b0111);
    }

    #[test]
    fn constant_nodes() {
        let text = ".model m\n.inputs a\n.outputs y z\n.names y\n1\n.names z\n.end\n";
        let net = parse_blif(text).unwrap();
        let out = net.simulate(&[0]);
        assert_eq!(out[0], u64::MAX);
        assert_eq!(out[1], 0);
    }

    #[test]
    fn rejects_latches() {
        let text = ".model m\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n";
        let e = parse_blif(text).unwrap_err();
        assert!(e.to_string().contains("latch"));
    }

    #[test]
    fn rejects_cycles() {
        let text = ".model m\n.inputs a\n.outputs y\n.names y x\n1 1\n.names x y\n1 1\n.end\n";
        assert!(parse_blif(text).is_err());
    }

    #[test]
    fn continuation_lines() {
        let text = ".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let net = parse_blif(text).unwrap();
        assert_eq!(net.inputs().len(), 2);
    }

    #[test]
    fn writes_structured_gates() {
        use crate::network::GateKind;
        let mut net = Network::new("gates");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let m = net.add_gate(GateKind::Maj, vec![a, b, c]);
        let x = net.add_gate(GateKind::Xor, vec![a, m]);
        net.set_output("y", x);
        let text = write_blif(&net);
        let net2 = parse_blif(&text).unwrap();
        let p = [0xAAAA, 0xCCCC, 0xF0F0];
        assert_eq!(net.simulate(&p), net2.simulate(&p));
    }

    /// A 32-input XOR and XNOR, with an input named like the tree's first
    /// internal signal: both must write in size linear in the fanin count
    /// and read back to the same functions.
    #[test]
    fn wide_xor_writes_a_linear_tree_and_roundtrips() {
        use crate::network::GateKind;
        use crate::verify::equiv_sim;
        let mut net = Network::new("wide");
        let mut ins: Vec<SignalId> = (0..31).map(|i| net.add_input(format!("i{i}"))).collect();
        ins.push(net.add_input("x_xor0"));
        let x = net.add_gate(GateKind::Xor, ins.clone());
        net.set_signal_name(x, "x");
        let y = net.add_gate(GateKind::Xnor, ins.clone());
        net.set_output("x", x);
        net.set_output("y", y);
        let text = write_blif(&net);
        // 2 × 31 two-input blocks of 3 lines each, plus the header lines:
        // nowhere near the 2^31 rows of a flat cover.
        assert!(text.lines().count() < 250, "{} lines", text.lines().count());
        let redefines = |l: &str| l.starts_with(".names") && l.ends_with(" x_xor0");
        assert!(!text.lines().any(redefines), "tree reused an input's name");
        let back = parse_blif(&text).expect("wide XOR must round-trip");
        assert!(equiv_sim(&net, &back, 16, 0x5EED).is_ok());
        // Exactly one input flipped flips both outputs.
        let zeros = vec![0u64; 32];
        let mut one = zeros.clone();
        one[7] = u64::MAX;
        assert_eq!(back.simulate(&zeros), vec![0, u64::MAX]);
        assert_eq!(back.simulate(&one), vec![u64::MAX, 0]);
    }

    /// Gates at the reader's cover limit keep their flat cover.
    #[test]
    fn xor_at_cover_limit_keeps_flat_cover() {
        use crate::network::GateKind;
        let mut net = Network::new("flat");
        let ins: Vec<SignalId> = (0..16).map(|i| net.add_input(format!("i{i}"))).collect();
        let x = net.add_gate(GateKind::Xor, ins);
        net.set_output("x", x);
        let text = write_blif(&net);
        assert!(!text.contains("_xor"));
        let rows = text.lines().filter(|l| l.len() == 18 && l.ends_with(" 1"));
        assert_eq!(rows.count(), 1 << 15);
    }

    /// Row-by-row reference for a cover: a row is on when some cube's
    /// mask matches it character by character.
    fn reference_table(n: u32, masks: &[String], on_set: bool) -> TruthTable {
        TruthTable::from_fn(n, |row| {
            let covered = masks.iter().any(|mask| {
                mask.bytes().enumerate().all(|(i, ch)| match ch {
                    b'0' => row >> i & 1 == 0,
                    b'1' => row >> i & 1 == 1,
                    _ => true,
                })
            });
            covered == on_set
        })
    }

    /// The sweep the reader used to resolve `.names` blocks with, kept as
    /// the reference for `sweep_rounds`: repeated passes over the
    /// remaining blocks in file order, each building every block whose
    /// inputs are all defined. Returns the outputs in build order, or the
    /// first stuck block's line and unresolved inputs.
    fn reference_sweep(
        inputs: &[String],
        blocks: &[(usize, Vec<String>, String)],
    ) -> Result<Vec<String>, (usize, Vec<String>)> {
        let mut signals: HashSet<String> = inputs.iter().cloned().collect();
        let mut order = Vec::new();
        let mut remaining: Vec<&(usize, Vec<String>, String)> = blocks.iter().collect();
        while !remaining.is_empty() {
            let mut progressed = false;
            let mut still = Vec::new();
            for block in remaining {
                if block.1.iter().all(|i| signals.contains(i)) {
                    signals.insert(block.2.clone());
                    order.push(block.2.clone());
                    progressed = true;
                } else {
                    still.push(block);
                }
            }
            if !progressed {
                let block = still[0];
                let missing = block.1.iter().filter(|i| !signals.contains(*i));
                return Err((block.0, missing.cloned().collect()));
            }
            remaining = still;
        }
        Ok(order)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The word-wise cover fill matches the row-by-row reference on
        /// random on-set and off-set covers with don't-cares.
        #[test]
        fn cover_fill_matches_row_by_row(
            n in 0u32..17,
            seed in proptest::prelude::any::<u64>()
        ) {
            let mut rng = crate::XorShift64::new(seed);
            let on_set = rng.next_u64() & 1 == 1;
            // Dense masks for few cubes, sparse ones for many.
            let cubes = rng.next_u64() % 12;
            let dash_odds = 1 + rng.next_u64() % 4;
            let masks: Vec<String> = (0..cubes)
                .map(|_| {
                    (0..n)
                        .map(|_| match rng.next_u64() % (2 + dash_odds) {
                            0 => '0',
                            1 => '1',
                            _ => '-',
                        })
                        .collect()
                })
                .collect();
            let names: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
            let value = if on_set { '1' } else { '0' };
            let names = names.join(" ");
            let mut text = format!(".model m\n.inputs {names}\n.outputs y\n.names {names} y\n");
            for mask in &masks {
                // Constant covers (no inputs) have the value alone.
                text.push_str(format!("{mask} {value}").trim_start());
                text.push('\n');
            }
            let net = parse_blif(&text).expect("valid cover");
            // An empty cover is constant 0 whatever its polarity.
            let expected = reference_table(n, &masks, on_set || masks.is_empty());
            let y = net.outputs()[0].1;
            match &net.node(y).kind {
                GateKind::Lut(table) => proptest::prop_assert_eq!(table, &expected),
                // A cover without inputs is a constant node.
                GateKind::Const(v) if n == 0 => {
                    proptest::prop_assert_eq!(Some(*v), expected.as_constant())
                }
                other => proptest::prop_assert!(false, "unexpected node {other:?}"),
            }
        }

        /// Blocks build in the old sweep's order, and files it rejects fail
        /// at the same block with the same unresolved inputs, on shuffled
        /// block orders with undefined signals and cycles.
        #[test]
        fn resolution_matches_the_sweep(
            blocks in 1usize..40,
            seed in proptest::prelude::any::<u64>()
        ) {
            let mut rng = crate::XorShift64::new(seed);
            let inputs: Vec<String> =
                (0..1 + rng.next_u64() % 4).map(|i| format!("i{i}")).collect();
            // Block k reads the inputs and earlier blocks; in a third of
            // the files it may read any block (closing cycles), in another
            // third, rarely, an undefined name.
            let mode = rng.next_u64() % 3;
            let cyclic = mode == 1;
            let mut defs: Vec<(Vec<String>, String)> = (0..blocks)
                .map(|k| {
                    let fanins = (0..rng.next_u64() % 4)
                        .map(|_| {
                            let pick = rng.next_u64();
                            match pick % 16 {
                                0 if mode == 2 => "ghost".to_string(),
                                0..=5 => inputs[(pick >> 8) as usize % inputs.len()].clone(),
                                _ if k > 0 || cyclic => {
                                    let span = if cyclic { blocks } else { k };
                                    format!("s{}", (pick >> 8) as usize % span)
                                }
                                _ => inputs[0].clone(),
                            }
                        })
                        .collect();
                    (fanins, format!("s{k}"))
                })
                .collect();
            // Shuffle the file order.
            for i in (1..defs.len()).rev() {
                defs.swap(i, rng.next_u64() as usize % (i + 1));
            }
            let mut text = format!(".model m\n.inputs {}\n.outputs s0\n", inputs.join(" "));
            let mut located = Vec::new();
            for (fanins, out) in &defs {
                let line = text.lines().count() + 1;
                let header: Vec<&str> = fanins.iter().chain([out]).map(String::as_str).collect();
                text.push_str(&format!(".names {}\n", header.join(" ")));
                if !fanins.is_empty() {
                    text.push_str(&format!("{} 1\n", "1".repeat(fanins.len())));
                }
                located.push((line, fanins.clone(), out.clone()));
            }
            match (reference_sweep(&inputs, &located), parse_blif(&text)) {
                (Ok(order), Ok(net)) => {
                    let built: Vec<String> = net
                        .signals()
                        .filter(|&s| !net.inputs().contains(&s))
                        .map(|s| net.signal_name(s))
                        .collect();
                    proptest::prop_assert_eq!(built, order);
                }
                (Err((line, missing)), Err(e)) => {
                    proptest::prop_assert_eq!(e.line(), line);
                    let tail = format!(": {})", missing.join(", "));
                    proptest::prop_assert!(e.to_string().ends_with(&tail), "{e}");
                }
                (want, got) => {
                    let got = got.map(|net| net.len());
                    proptest::prop_assert!(false, "sweep {want:?}, reader {got:?}")
                }
            }
        }
    }

    #[test]
    fn second_definition_is_an_error() {
        let twice_input = ".model m\n.inputs a b\n.inputs a\n.outputs b\n.end\n";
        let e = parse_blif(twice_input).unwrap_err();
        assert_eq!(e.line(), 3, "{e}");
        assert!(
            e.to_string().contains("defined twice (first at line 2)"),
            "{e}"
        );
        let twice_names =
            ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end\n";
        let e = parse_blif(twice_names).unwrap_err();
        assert_eq!(e.line(), 6, "{e}");
        let names_over_input = ".model m\n.inputs a\n.outputs a\n.names a\n1\n.end\n";
        assert_eq!(parse_blif(names_over_input).unwrap_err().line(), 4);
    }

    /// A buffer chain written back to front resolves in one pass over the
    /// blocks; the sweep needed one round per block.
    #[test]
    fn reverse_ordered_chain_resolves() {
        let len = 20_000;
        let mut text = String::from(".model chain\n.inputs s0\n");
        text.push_str(&format!(".outputs s{len}\n"));
        for k in (1..=len).rev() {
            text.push_str(&format!(".names s{} s{k}\n1 1\n", k - 1));
        }
        let net = parse_blif(&text).expect("chain");
        assert_eq!(net.len(), len + 1);
        assert_eq!(net.simulate(&[0xF0]), vec![0xF0]);
    }
}
