//! `bdsmaj --flow dc --map` writes the DC flow's own mapping of its winner:
//! the mapped BLIF and the `mapped:` report line must equal mapping the
//! standalone `dc_flow` result afresh.

use bds_maj::prelude::*;
use std::process::Command;

fn check_dc_map(name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_bdsmaj"))
        .args(["--bench", name, "--flow", "dc", "--map"])
        .output()
        .expect("spawn bdsmaj");
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{name}: log:\n{log}");

    let net = bds_maj::circuits::suite::benchmark(name).expect("known benchmark");
    let lib = Library::cmos22();
    let mapped = map_network(&dc_flow(&net, &lib).network);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        write_blif(&mapped.network),
        "{name}: mapped BLIF differs"
    );
    let line = format!("mapped: {}", report(&mapped, &lib));
    assert!(
        log.lines().any(|l| l == line),
        "{name}: want `{line}` in log:\n{log}"
    );
}

/// alu2's DC winner is the AIG candidate; f51m's is the MAJ-free
/// re-expression of BDS-MAJ.
#[test]
fn dc_map_output_equals_standalone_mapping() {
    check_dc_map("alu2");
    check_dc_map("f51m");
}
