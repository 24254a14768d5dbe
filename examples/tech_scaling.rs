//! The motivation of §1/§2.2: the same physical front-end loses IPC as the
//! process shrinks, because cycle time falls faster than SRAM access time —
//! and prestaging buys the loss back.
//!
//! Sweeps the SIA roadmap for a fixed 8 KB L1 machine and prints the L1
//! latency (Table 3 at the paper's nodes) and the resulting IPC with and
//! without CLGP.
//!
//! ```text
//! cargo run --release --example tech_scaling
//! ```

use fetch_prestaging::cacti::{latency_cycles, CacheGeometry};
use fetch_prestaging::prelude::*;

fn main() {
    let l1 = 8 << 10;
    let geom = CacheGeometry::new(l1, 64, 2, 1);

    println!(
        "{:<9} {:>7} {:>7} {:>10} {:>10} {:>8}",
        "node", "cyc/ns", "L1 lat", "base IPC", "CLGP IPC", "gain"
    );
    for node in [
        TechNode::T180,
        TechNode::T130,
        TechNode::T090,
        TechNode::T065,
        TechNode::T045,
    ] {
        let lat = latency_cycles(&geom, node);
        let run = |preset| {
            let spec = ExperimentSpec {
                presets: vec![preset],
                tech: node,
                l1_sizes: vec![l1],
                warmup_insts: 30_000,
                measure_insts: 120_000,
                exec_seed: 7,
                ..ExperimentSpec::default()
            };
            try_run_spec(&spec).expect("valid spec")[0][0].hmean_ipc()
        };
        let base = run(ConfigPreset::Base);
        let clgp = run(ConfigPreset::ClgpL0);
        println!(
            "{:<9} {:>7} {:>7} {:>10.3} {:>10.3} {:>7.1}%",
            node.label(),
            node.cycle_ns(),
            lat,
            base,
            clgp,
            100.0 * (clgp / base - 1.0)
        );
    }
    println!(
        "\nAs the node shrinks the L1 costs more cycles and the baseline sags;\n\
         CLGP's prestage buffer keeps the fetch path at one cycle, so its\n\
         advantage grows with the technology trend — the paper's motivation."
    );
}
