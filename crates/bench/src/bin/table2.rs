//! Table 2: simulation parameters (the defaults of every run).

use prestage_bpred::StreamPredictorConfig;
use prestage_cacti::TechNode;
use prestage_core::config::{FETCH_WIDTH, L1_ASSOC, MAX_INFLIGHT, QUEUE_BLOCKS};
use prestage_core::FrontendConfig;
use prestage_sim::backend::{DCACHE_LATENCY, DCACHE_LINE, DCACHE_PORTS, RUU_SIZE};
use prestage_sim::BackendConfig;

fn main() {
    let fe = FrontendConfig::base(TechNode::T045, 8 << 10);
    let be = BackendConfig::default();
    let sp = StreamPredictorConfig::default();
    println!("# Table 2 — simulation parameters");
    println!(
        "Fetch/Issue/Commit      {FETCH_WIDTH}/{}/{} instructions",
        be.width, be.width
    );
    println!("RUU Size                {RUU_SIZE} instructions");
    println!(
        "Branch Predictor        {}K+{}K-entry stream pred., 1 cycle lat.",
        sp.l1_entries / 1024,
        sp.l2_entries / 1024
    );
    println!("RAS                     {}-entry", sp.ras_entries);
    println!("Fetch queue             {QUEUE_BLOCKS} fetch blocks, {MAX_INFLIGHT} line fetches in flight");
    println!("Pipeline depth          15 stages");
    println!(
        "L1 I-Cache              {L1_ASSOC}-way asc., 1 port, {}B/line",
        fe.line_bytes
    );
    println!(
        "L1 D-Cache              {}KB, {}-way, {DCACHE_LATENCY}-cyc lat, {DCACHE_PORTS} ports, {DCACHE_LINE}B/line",
        be.dcache_capacity >> 10,
        be.dcache_assoc,
    );
    println!("L2 Cache                1MB, 2-way asc., 1 port, 128B/line");
    println!("Mem. lat.               200 cycles");
    println!("L2 bus BW               64B/cycle");
    println!("Pre. Buffer / L0 cache  {}B/line", fe.line_bytes);
}
