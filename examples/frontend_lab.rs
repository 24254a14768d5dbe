//! Front-end laboratory: drive the decoupled front-end directly (no
//! back-end, no trace) to watch FDP and CLGP manage their buffers on a
//! hand-built instruction stream — the library-as-a-library use case.
//!
//! ```text
//! cargo run --release --example frontend_lab
//! ```

use fetch_prestaging::cache::{L2Config, L2System};
use fetch_prestaging::core::{
    ClgpPrefetcher, Delivery, FdpPrefetcher, FrontEnd, FrontendConfig, InstrPrefetcher,
    NoPrefetcher, PrefetcherKind,
};
use fetch_prestaging::prelude::*;

fn drive<P: InstrPrefetcher>(
    mut fe: FrontEnd<P>,
    l2: &mut L2System,
    blocks: &[(u64, u64, u32)],
) -> (u64, Vec<Delivery>) {
    let mut out = Vec::new();
    let mut pushed = 0usize;
    let mut done_at = 0;
    for now in 0..5_000u64 {
        for c in l2.tick(now) {
            fe.on_completion(&c);
        }
        fe.tick(now, l2, 16, &mut out);
        if pushed < blocks.len() && fe.has_queue_space() {
            let (seq, start, len) = blocks[pushed];
            fe.push_block(seq, start, len);
            pushed += 1;
        }
        let delivered: u32 = out.iter().map(|d| d.count).sum();
        let want: u32 = blocks.iter().map(|&(_, _, n)| n).sum();
        if delivered == want {
            done_at = now;
            break;
        }
    }
    (done_at, out)
}

fn main() {
    let tech = TechNode::T045;
    // A loop body of 3 lines executed 5 times, then an exit path: the
    // signature fetch pattern behind the paper's consumers counter.
    let mut blocks = Vec::new();
    let mut seq = 0;
    for _ in 0..5 {
        blocks.push((seq, 0x10000, 48)); // 3 lines
        seq += 1;
    }
    blocks.push((seq, 0x20000, 16));

    fn run_case<P: InstrPrefetcher>(
        tech: TechNode,
        pf: PrefetcherKind,
        blocks: &[(u64, u64, u32)],
    ) {
        let mut cfg = FrontendConfig::base(tech, 8 << 10);
        cfg.prefetcher = pf;
        if pf != PrefetcherKind::None {
            cfg.pb_entries = 4;
        }
        let fe = FrontEnd::<P>::new(cfg);
        let mut l2 = L2System::new(L2Config::for_node(tech));
        for line in 0..8u64 {
            l2.warm_fill(0x10000 + line * 64);
            l2.warm_fill(0x20000 + line * 64);
        }
        let (done, out) = drive(fe, &mut l2, blocks);
        let by_src = |s| {
            out.iter()
                .filter(|d| d.source == s)
                .map(|d| d.count)
                .sum::<u32>()
        };
        use fetch_prestaging::core::FetchSource::*;
        println!(
            "{:?}: finished at cycle {:>4} | insts from PB {:>3} L1 {:>3} L2 {:>3} Mem {:>3}",
            pf,
            done,
            by_src(PreBuffer),
            by_src(L1),
            by_src(L2),
            by_src(Mem)
        );
    }
    run_case::<NoPrefetcher>(tech, PrefetcherKind::None, &blocks);
    run_case::<FdpPrefetcher>(tech, PrefetcherKind::Fdp, &blocks);
    run_case::<ClgpPrefetcher>(tech, PrefetcherKind::Clgp, &blocks);
    println!(
        "\nCLGP pins the loop's three lines with its consumers counters and\n\
         re-serves them at one cycle; FDP re-fetches them from the multi-cycle\n\
         L1 after migrating them out of the buffer on first use."
    );
}
