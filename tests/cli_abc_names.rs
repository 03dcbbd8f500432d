//! `bdsmaj --flow abc` keeps the source interface: the AIG round trip
//! carries the primary input names through, so the written BLIF declares
//! the inputs of the model it was given.

use bds_maj::prelude::*;
use std::process::Command;

const FULL_ADDER: &str = "\
.model fa
.inputs a b c
.outputs s co
.names a b c s
100 1
010 1
001 1
111 1
.names a b c co
11- 1
1-1 1
-11 1
.end
";

fn run_abc(path: &std::path::Path, map: bool) -> (String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bdsmaj"));
    cmd.args(["--flow", "abc"]);
    if map {
        cmd.arg("--map");
    }
    let out = cmd.arg(path).output().expect("spawn bdsmaj");
    let log = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "log:\n{log}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), log)
}

#[test]
fn abc_flow_keeps_source_input_names() {
    let path = std::env::temp_dir().join(format!("bdsmaj_abc_names_{}.blif", std::process::id()));
    std::fs::write(&path, FULL_ADDER).expect("write input BLIF");
    let (blif, log) = run_abc(&path, false);
    let (mapped, map_log) = run_abc(&path, true);
    std::fs::remove_file(&path).expect("remove input BLIF");

    assert!(log.contains("verify: equivalence confirmed"), "log:\n{log}");
    assert!(blif.lines().any(|l| l == ".inputs a b c"), "BLIF:\n{blif}");
    assert!(
        mapped.lines().any(|l| l == ".inputs a b c"),
        "BLIF:\n{mapped}"
    );
    // Naming the inputs changes no cell: 17 gates as before.
    let net = parse_blif(FULL_ADDER).expect("valid BLIF");
    let mapped_net = map_network(&abc_flow(&net));
    assert_eq!(mapped_net.gate_count(), 17);
    assert_eq!(mapped, write_blif(&mapped_net.network));
    let line = format!("mapped: {}", report(&mapped_net, &Library::cmos22()));
    assert!(
        map_log.lines().any(|l| l == line),
        "want `{line}` in log:\n{map_log}"
    );
}
