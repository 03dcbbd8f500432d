//! BLIF (Berkeley Logic Interchange Format) reading and writing.
//!
//! Supports the combinational subset used by the MCNC benchmarks: `.model`,
//! `.inputs`, `.outputs`, `.names` with SOP covers, and `.end`. Sequential
//! constructs (`.latch`) are rejected with an error.

use crate::network::{GateKind, Network, SignalId};
use crate::truth::TruthTable;
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
    cubes: Vec<(String, char)>,
}

/// Parses a BLIF model into a [`Network`].
///
/// The nodes of the result are LUTs carrying the exact cover function, so a
/// write/read round-trip is semantics-preserving.
///
/// # Errors
///
/// Returns [`ParseBlifError`] on malformed input, undefined signals,
/// combinational cycles, or unsupported constructs.
pub fn parse_blif(text: &str) -> Result<Network, ParseBlifError> {
    let mut model_name = String::from("model");
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<(usize, String)> = Vec::new();
    let mut blocks: Vec<NamesBlock> = Vec::new();

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
                input_names.extend(rest.iter().map(|s| s.to_string()));
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
                            [value] => (String::new(), *value),
                            _ => return Err(err(*cl, "constant cover row must be a single token")),
                        }
                    } else {
                        match parts.as_slice() {
                            [mask, value] => ((*mask).to_string(), *value),
                            _ => return Err(err(*cl, "cover row must be `<mask> <value>`")),
                        }
                    };
                    if mask.len() != inputs.len() {
                        return Err(err(*cl, "cover mask width mismatch"));
                    }
                    let value = match value {
                        "1" => '1',
                        "0" => '0',
                        _ => return Err(err(*cl, "cover value must be 0 or 1")),
                    };
                    cubes.push((mask, value));
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

    // Build the network: inputs first, then .names blocks in dependency order.
    let mut net = Network::new(model_name);
    let mut signals: HashMap<String, SignalId> = HashMap::new();
    for name in &input_names {
        let id = net.add_input(name.clone());
        signals.insert(name.clone(), id);
    }
    let mut remaining: Vec<NamesBlock> = blocks;
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut still: Vec<NamesBlock> = Vec::new();
        for block in remaining {
            if block.inputs.iter().all(|i| signals.contains_key(i)) {
                let id = build_names_node(&mut net, &signals, &block)?;
                signals.insert(block.output.clone(), id);
                progressed = true;
            } else {
                still.push(block);
            }
        }
        if !progressed {
            // No progress with blocks remaining means an undefined signal
            // or a cycle; report the first stuck block. (If `still` were
            // somehow empty the loop would just terminate.)
            if let Some(block) = still.first() {
                let missing: Vec<&str> = block
                    .inputs
                    .iter()
                    .filter(|i| !signals.contains_key(*i))
                    .map(|s| s.as_str())
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
        remaining = still;
    }
    for (lineno, name) in &output_names {
        let id = *signals
            .get(name)
            .ok_or_else(|| err(*lineno, format!("undriven output {name}")))?;
        net.set_output(name.clone(), id);
    }
    Ok(net)
}

fn build_names_node(
    net: &mut Network,
    signals: &HashMap<String, SignalId>,
    block: &NamesBlock,
) -> Result<SignalId, ParseBlifError> {
    // The caller only hands over blocks whose inputs all resolved, but a
    // missing signal must surface as a parse error, not a panic.
    let fanins: Vec<SignalId> = block
        .inputs
        .iter()
        .map(|i| {
            signals
                .get(i)
                .copied()
                .ok_or_else(|| err(block.line, format!("undefined signal {i}")))
        })
        .collect::<Result<_, _>>()?;
    if block.inputs.is_empty() {
        // Constant node: the cover is a (possibly empty) list of "1"/"0".
        let value = block.cubes.iter().any(|(_, v)| *v == '1');
        let id = net.add_const(value);
        net.set_signal_name(id, block.output.clone());
        return Ok(id);
    }
    if block.inputs.len() > MAX_COVER_INPUTS {
        return Err(err(block.line, "cover with more than 16 inputs"));
    }
    // BLIF covers are either on-set or off-set, not mixed.
    let polarities: Vec<char> = block.cubes.iter().map(|(_, v)| *v).collect();
    let on_set = !polarities.contains(&'0');
    if !on_set && polarities.contains(&'1') {
        return Err(err(block.line, "mixed on-set/off-set cover"));
    }
    let masks: Vec<Vec<u8>> = block
        .cubes
        .iter()
        .map(|(m, _)| m.bytes().collect())
        .collect();
    let n = block.inputs.len() as u32;
    let covered = |row: usize| -> bool {
        masks.iter().any(|mask| {
            mask.iter().enumerate().all(|(i, &ch)| match ch {
                b'0' => row >> i & 1 == 0,
                b'1' => row >> i & 1 == 1,
                b'-' => true,
                _ => false,
            })
        })
    };
    let table = TruthTable::from_fn(n, |row| covered(row) == on_set);
    let id = net.add_gate(GateKind::Lut(table), fanins);
    net.set_signal_name(id, block.output.clone());
    Ok(id)
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
}
