//! Quickstart: build a synthetic benchmark, run the no-prefetch baseline
//! and CLGP side by side, and print what the prestage buffer bought.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fetch_prestaging::prelude::*;

fn main() {
    // A gcc-like workload: big code footprint, the interesting case for
    // instruction prefetching.
    let profile = workload::by_name("gcc").expect("known benchmark");
    let w = workload::build_workload(&profile, 42);
    println!(
        "workload: {} ({} static instructions, {} basic blocks)",
        profile.name,
        w.program.num_insts(),
        w.program.num_blocks()
    );

    let tech = TechNode::T045;
    let l1 = 4 << 10; // 4 KB L1 — multi-cycle at this node (Table 3: 4 cycles)

    for preset in [
        ConfigPreset::Base,
        ConfigPreset::BasePipelined,
        ConfigPreset::FdpL0,
        ConfigPreset::ClgpL0,
    ] {
        let cfg = SimConfig::preset(preset, tech, l1).with_insts(50_000, 200_000);
        let s = Engine::new(cfg, &w, 7).run();
        println!(
            "{:<16} IPC {:.3} | fetch sources: PB {:>5.1}%  L0 {:>5.1}%  L1 {:>5.1}%  L2+ {:>4.1}%",
            preset.label(),
            s.ipc(),
            100.0 * s.front.fetch_share(s.front.fetch_pb),
            100.0 * s.front.fetch_share(s.front.fetch_l0),
            100.0 * s.front.fetch_share(s.front.fetch_l1),
            100.0
                * (s.front.fetch_share(s.front.fetch_l2) + s.front.fetch_share(s.front.fetch_mem)),
        );
    }
    println!(
        "\nCLGP serves most fetches from the one-cycle prestage buffer, so the\n\
         multi-cycle L1 hit latency stops mattering — the paper's core result."
    );
}
