//! Fuzzing the BLIF reader: `parse_blif` is the first thing that touches
//! bytes from outside the workspace, so it must be total — every input,
//! however hostile, yields `Ok(network)` or an `Err` pointing at a real
//! source line. It must never panic.

use logic::parse_blif;
use proptest::prelude::*;

/// Upper bound on the 1-based line an error may point at: one past the
/// last physical line (continuation joining attributes a run of `\`-lines
/// to its first physical line, so every recorded line number is a line
/// that exists in the input; +1 tolerates a trailing newline edge).
fn line_bound(text: &str) -> usize {
    text.lines().count() + 1
}

/// Fragments that steer random soup toward the parser's deeper paths.
fn blif_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(".model m".to_string()),
        Just(".inputs a b c".to_string()),
        Just(".outputs y".to_string()),
        Just(".names a b y".to_string()),
        Just(".names y".to_string()),
        Just(".latch a y re clk 0".to_string()),
        Just(".subckt foo".to_string()),
        Just(".end".to_string()),
        Just("11 1".to_string()),
        Just("1- 0".to_string()),
        Just("-".to_string()),
        Just("1".to_string()),
        Just("# comment".to_string()),
        Just("\\".to_string()),
        Just("".to_string()),
        // printable ASCII junk
        proptest::collection::vec(0x20u8..0x7f, 0..20).prop_map(|b| String::from_utf8(b).unwrap()),
        // arbitrary unicode junk (lossy decode of raw bytes)
        proptest::collection::vec(any::<u8>(), 0..12)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Raw byte soup (lossily decoded): total, with in-range error lines.
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse_blif(&text) {
            prop_assert!(e.line() >= 1, "error line must be 1-based: {e}");
            prop_assert!(
                e.line() <= line_bound(&text),
                "error line {} out of range for {} input lines",
                e.line(),
                text.lines().count()
            );
        }
    }

    /// Line soup built from BLIF-shaped fragments: reaches the directive
    /// and cover parsing paths that uniform bytes almost never hit.
    #[test]
    fn structured_soup_never_panics(
        lines in proptest::collection::vec(blif_fragment(), 0..40)
    ) {
        let text = lines.join("\n");
        if let Err(e) = parse_blif(&text) {
            prop_assert!(e.line() >= 1, "error line must be 1-based: {e}");
            prop_assert!(e.line() <= line_bound(&text));
        }
    }

    /// Mutations of a valid model: flip a byte anywhere in a well-formed
    /// BLIF file; the parser must still be total and point in range.
    #[test]
    fn mutated_valid_model_never_panics(pos in 0usize..200, byte in any::<u8>()) {
        let base = "\
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
        let mut bytes = base.as_bytes().to_vec();
        let i = pos % bytes.len();
        bytes[i] = byte;
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse_blif(&text) {
            prop_assert!(e.line() >= 1);
            prop_assert!(e.line() <= line_bound(&text));
        }
    }
}

/// The two error paths that used to report placeholder line 0.
#[test]
fn undriven_output_points_at_the_outputs_line() {
    let text = ".model m\n.inputs a\n.outputs ghost\n.end\n";
    let e = parse_blif(text).unwrap_err();
    assert_eq!(
        e.line(),
        3,
        "undriven output must cite the .outputs line: {e}"
    );
    assert!(e.to_string().contains("ghost"));
}

#[test]
fn malformed_mask_points_at_its_cover_row() {
    let text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n1x 1\n.end\n";
    let e = parse_blif(text).unwrap_err();
    assert_eq!(e.line(), 6, "a bad mask must cite its cover row: {e}");
    assert!(e.to_string().contains("0, 1 or -"), "{e}");
}

#[test]
fn cycle_error_points_at_a_names_block() {
    let text = ".model m\n.inputs a\n.outputs y\n.names y x\n1 1\n.names x y\n1 1\n.end\n";
    let e = parse_blif(text).unwrap_err();
    assert!(
        e.line() == 4 || e.line() == 6,
        "cycle must cite a .names line: {e}"
    );
    assert!(e.to_string().contains("cycle"));
}

/// Deterministic adversarial corpus under an explicit `catch_unwind`:
/// each entry targets a specific parse path that once indexed or
/// `unwrap`ped (bdslint's panic-surface rule now bans those outright,
/// and this test pins the behavioural claim independently of proptest's
/// harness).
#[test]
fn adversarial_corpus_never_panics() {
    let corpus: &[&str] = &[
        // Directive with no tokens after comment stripping.
        "#\n   # only comments\n\t\n",
        // `.names` with nothing after it (no output token).
        ".model m\n.names\n.end\n",
        // Cover rows with the wrong arity in both constant and gate form.
        ".model m\n.inputs a\n.outputs y\n.names y\n1 1 1\n.end\n",
        ".model m\n.inputs a\n.outputs y\n.names a y\n1\n.end\n",
        // Mask width mismatch and bad cover values.
        ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n",
        ".model m\n.inputs a\n.outputs y\n.names a y\n1 2\n.end\n",
        // A mask character other than 0, 1 or -.
        ".model m\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n.end\n",
        // A name defined twice: as an input and by a block, by two blocks.
        ".model m\n.inputs a\n.outputs a\n.names a\n1\n.end\n",
        ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names y\n.end\n",
        // Undefined fanin, self-loop, and a two-node cycle.
        ".model m\n.inputs a\n.outputs y\n.names ghost y\n1 1\n.end\n",
        ".model m\n.outputs y\n.names y y\n1 1\n.end\n",
        ".model m\n.outputs y\n.names x y\n1 1\n.names y x\n1 1\n.end\n",
        // Continuation-line pathologies: trailing `\` at EOF, a file of
        // only continuations, and a continuation into a directive.
        ".model m\\",
        "\\\n\\\n\\",
        ".inputs a \\\n.outputs y\n",
        // A 17-input cover (over the truth-table limit).
        ".model m\n.inputs a b c d e f g h i j k l n o p q r\n.outputs y\n.names a b c d e f g h i j k l n o p q r y\n11111111111111111 1\n.end\n",
        // Null bytes and CRLF line endings.
        ".model m\0\n.inputs a\r\n.outputs y\r\n.names a y\r\n1 1\r\n.end\r\n",
        // Unknown and unsupported directives.
        ".model m\n.clock c\n.end\n",
        ".model m\n.gate AND a=x b=y o=z\n.end\n",
    ];
    for (i, text) in corpus.iter().enumerate() {
        let outcome = std::panic::catch_unwind(|| parse_blif(text).map(|n| n.len()));
        assert!(
            outcome.is_ok(),
            "parse_blif panicked on corpus[{i}]: {text:?}"
        );
    }
}

/// Write-side totality: any network the parser accepts must serialize
/// and reparse without panicking, and the reparse must succeed.
#[test]
fn writer_is_total_on_parsed_fragments() {
    let accepted: &[&str] = &[
        ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
        ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n",
        ".model m\n.inputs a\n.outputs y z\n.names y\n1\n.names z\n.end\n",
        ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n",
    ];
    for (i, text) in accepted.iter().enumerate() {
        let net = parse_blif(text).unwrap_or_else(|e| panic!("corpus[{i}] must parse: {e}"));
        let outcome = std::panic::catch_unwind(|| logic::write_blif(&net));
        let written = outcome.unwrap_or_else(|_| panic!("write_blif panicked on corpus[{i}]"));
        parse_blif(&written).unwrap_or_else(|e| panic!("round-trip of corpus[{i}] failed: {e}"));
    }
}
