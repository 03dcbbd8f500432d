//! Writes two random two-level PLA circuits as BLIF files whose 800 OR
//! nodes are 16-input covers: the widest `.names` nodes the reader
//! accepts, and the shape where handling a LUT row by row costs `2^16`
//! steps per node.
//!
//! Run with: `cargo run --release --example pla_blif -- OUT_DIR`, then,
//! for instance, `bdsmaj --jobs 2 --map -o OUT OUT_DIR/*.blif`.

use bds_maj::circuits::control::{random_sop, SopConfig};
use bds_maj::prelude::*;

fn main() {
    let Some(dir) = std::env::args().nth(1) else {
        eprintln!("usage: pla_blif OUT_DIR");
        std::process::exit(2);
    };
    std::fs::create_dir_all(&dir).expect("create OUT_DIR");
    for k in 0..2 {
        // 16 product terms per output: each output is a 16-input OR.
        let net = random_sop(SopConfig {
            inputs: 41,
            outputs: 800,
            cubes_per_output: 16,
            literals_per_cube: 9,
            seed: 0x91A + k,
        });
        let path = std::path::Path::new(&dir).join(format!("pla{k}.blif"));
        std::fs::write(&path, write_blif(&net)).expect("write BLIF");
        println!("wrote {}", path.display());
    }
}
