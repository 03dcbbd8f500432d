//! `bdsmaj` on a circuit whose degraded cones carry a 32-input XOR through
//! verbatim: the BLIF writer must emit it as a 2-input XOR tree, so the run
//! finishes with the degraded exit code instead of aborting on a `2^32`-row
//! cover.

use std::process::Command;

#[test]
fn c1355_under_step_limit_exits_degraded() {
    let out = Command::new(env!("CARGO_BIN_EXE_bdsmaj"))
        .args(["--bench", "C1355", "--step-limit", "2"])
        .output()
        .expect("spawn bdsmaj");
    let log = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "expected degraded exit; log:\n{log}"
    );
    assert!(log.contains("verify: equivalence confirmed"), "log:\n{log}");
    let blif = String::from_utf8_lossy(&out.stdout);
    assert!(
        blif.contains("_xor"),
        "the wide XOR must be written as a tree"
    );
    assert!(blif.trim_end().ends_with(".end"));
}
