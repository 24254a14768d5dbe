//! # prestage-cacti
//!
//! A calibrated, CACTI-3.0-flavoured analytical timing / area / energy model
//! for cache-like SRAM structures, together with the SIA technology roadmap
//! used by the paper *Effective Instruction Prefetching via Fetch Prestaging*
//! (Falcón, Ramirez, Valero — IPDPS 2005).
//!
//! The paper derives its cache latencies (its Table 3) by feeding CACTI 3.0
//! access times through the SIA cycle-time predictions (its Table 1).  CACTI
//! itself is an analytical model calibrated against SPICE; we reproduce the
//! same pipeline here:
//!
//! 1. [`tech`] — the SIA roadmap (feature size, clock frequency, cycle time),
//!    verbatim from Table 1 of the paper.
//! 2. [`delay`] — a structural delay model (decoder, wordline, bitline, sense
//!    amplifier, tag compare, output routing) with per-node scale factors,
//!    minimised over array organisations, **calibrated** so that
//!    `ceil(access_ns / cycle_ns)` reproduces the paper's Table 3 exactly for
//!    every (size, node) pair it lists.
//! 3. [`area`] / [`energy`] — first-order area and per-access energy
//!    estimates; the area model also prices pipelining, the overhead the
//!    paper argues about in §1 and §5.
//!
//! The top-level convenience API is [`latency_cycles`], which is what the
//! simulator uses for every storage structure.
//!
//! ```
//! use prestage_cacti::{latency_cycles, CacheGeometry, TechNode};
//!
//! let l1 = CacheGeometry::new(4 * 1024, 64, 2, 1);
//! assert_eq!(latency_cycles(&l1, TechNode::T090), 3); // Table 3, 4 KB @ 0.09um
//! assert_eq!(latency_cycles(&l1, TechNode::T045), 4); // Table 3, 4 KB @ 0.045um
//! ```

pub mod area;
pub mod delay;
pub mod energy;
pub mod geometry;
pub mod tech;

pub use area::{area_mm2, pipelining_area_overhead};
pub use delay::{access_time_ns, latency_cycles, latency_cycles_uncalibrated};
pub use energy::energy_nj_per_access;
pub use geometry::CacheGeometry;
pub use tech::{SiaEntry, TechNode, SIA_ROADMAP};

#[cfg(test)]
mod table3_tests {
    use super::*;

    /// Table 3 of the paper: L1 I-cache and L2 latencies per size and node.
    /// These anchors are the ground truth the whole model is calibrated to.
    const TABLE3: &[(usize, u32, u32)] = &[
        // (size bytes, cycles @ 0.09um, cycles @ 0.045um)
        (256, 1, 1),
        (512, 1, 2),
        (1024, 2, 3),
        (2048, 2, 4),
        (4096, 3, 4),
        (8192, 3, 4),
        (16384, 3, 4),
        (32768, 3, 4),
        (65536, 3, 5),
    ];

    #[test]
    fn table3_l1_matches_paper_exactly() {
        for &(size, c90, c45) in TABLE3 {
            let g = CacheGeometry::new(size, 64, 2, 1);
            assert_eq!(
                latency_cycles(&g, TechNode::T090),
                c90,
                "L1 {size}B @ 0.09um"
            );
            assert_eq!(
                latency_cycles(&g, TechNode::T045),
                c45,
                "L1 {size}B @ 0.045um"
            );
        }
    }

    #[test]
    fn table3_l2_matches_paper_exactly() {
        let l2 = CacheGeometry::new(1 << 20, 128, 2, 1);
        assert_eq!(latency_cycles(&l2, TechNode::T090), 17, "1MB L2 @ 0.09um");
        assert_eq!(latency_cycles(&l2, TechNode::T045), 24, "1MB L2 @ 0.045um");
    }

    #[test]
    fn one_cycle_prebuffer_sizes_match_section_5_1() {
        // §5.1: "we have determined pre-buffers and L0 cache sizes that could
        // be accessed in one cycle: 512 bytes at 0.09um and 256 bytes at
        // 0.045um."
        let b512 = CacheGeometry::fully_associative(512, 64, 1);
        let b256 = CacheGeometry::fully_associative(256, 64, 1);
        assert_eq!(latency_cycles(&b512, TechNode::T090), 1);
        assert_eq!(latency_cycles(&b256, TechNode::T045), 1);
        // ... and the next size up is *not* single cycle any more.
        let b1k = CacheGeometry::fully_associative(1024, 64, 1);
        assert!(latency_cycles(&b1k, TechNode::T045) > 1);
    }
}
