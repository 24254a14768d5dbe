//! The hardware-budget argument of §5.1: how much pipelined I-cache does it
//! take to match CLGP running from a tiny cache budget?
//!
//! Reproduces the paper's "equivalent performance at 6.4X our hardware
//! budget" comparison, including the CACTI area/energy overhead estimates
//! for pipelining that back it up.
//!
//! ```text
//! cargo run --release --example cache_budget
//! ```

use fetch_prestaging::cacti::{
    area_mm2, energy_nj_per_access, latency_cycles, pipelining_area_overhead, CacheGeometry,
};
use fetch_prestaging::prelude::*;

fn main() {
    let tech = TechNode::T090;
    let run = |preset, l1| {
        let spec = ExperimentSpec {
            presets: vec![preset],
            tech,
            l1_sizes: vec![l1],
            warmup_insts: 30_000,
            measure_insts: 120_000,
            exec_seed: 7,
            ..ExperimentSpec::default()
        };
        try_run_spec(&spec).expect("valid spec")[0][0].hmean_ipc()
    };

    // CLGP with 1 KB L1 + 512 B L0 + 1 KB pipelined prestage buffer:
    // 2.5 KB of storage in total.
    let clgp = run(ConfigPreset::ClgpL0Pb16, 1 << 10);
    println!("CLGP+L0+PB16, 1KB L1 (2.5KB total budget): HMEAN IPC {clgp:.3}\n");

    println!(
        "{:>6} {:>8} {:>8} {:>9} {:>10} {:>10}",
        "L1", "IPC", "budget", "vs CLGP", "area mm2", "nJ/access"
    );
    for &size in &[1usize << 10, 4 << 10, 16 << 10, 64 << 10] {
        let ipc = run(ConfigPreset::BasePipelined, size);
        let geom = CacheGeometry::new(size, 64, 2, 1);
        let stages = latency_cycles(&geom, tech);
        let area = area_mm2(&geom, tech) * pipelining_area_overhead(stages);
        let energy = energy_nj_per_access(&geom, tech);
        println!(
            "{:>6} {:>8.3} {:>7}x {:>8.1}% {:>10.4} {:>10.4}",
            prestage_bench_size(size),
            ipc,
            size as f64 / 2560.0,
            100.0 * (ipc / clgp - 1.0),
            area,
            energy
        );
    }
    println!(
        "\nA pipelined cache needs several times CLGP's total budget (plus the\n\
         pipelining latch/decode overhead shown) to close the gap — §5.1."
    );
}

fn prestage_bench_size(bytes: usize) -> String {
    if bytes < 1024 {
        format!("{bytes}B")
    } else {
        format!("{}K", bytes / 1024)
    }
}
