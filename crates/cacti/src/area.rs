//! First-order SRAM area model.
//!
//! The paper argues (§1, §5.1, citing Agarwal et al. DATE'03) that pipelining
//! a large cache costs extra area — latches, decoders, sense amplifiers,
//! precharge circuitry and multiplexers — and that CLGP reaches the same
//! performance from a much smaller cache budget.  This module provides the
//! numbers backing the "6.4X our hardware budget" style comparisons.

use crate::geometry::CacheGeometry;
use crate::tech::TechNode;

/// Area of one bit cell in square micrometres at the base 0.80 µm process.
/// (Roughly 100 λ² with λ = feature/2.)
const BITCELL_UM2_BASE: f64 = 25.0;
/// Overhead factor for decoders, sense amps and routing in an unpipelined
/// array.
const PERIPHERY_FACTOR: f64 = 1.35;
/// Extra area per added pipeline stage (latch banks, duplicated precharge
/// and decode circuitry), as a fraction of the unpipelined array area.
const PIPELINE_STAGE_OVERHEAD: f64 = 0.08;
/// Tag bits per line (address tag + valid + LRU bookkeeping), conservative.
const TAG_BITS_PER_LINE: f64 = 40.0;

/// Estimated silicon area in mm² of an unpipelined array.
pub fn area_mm2(g: &CacheGeometry, node: TechNode) -> f64 {
    let scale = node.feature_um() / 0.80;
    let cell = BITCELL_UM2_BASE * scale * scale;
    let port_growth = {
        // Each extra port grows the cell in both dimensions.
        let p = 1.0 + 0.6 * (g.ports.saturating_sub(1)) as f64;
        p * p
    };
    let bits = g.data_bits() as f64 + TAG_BITS_PER_LINE * g.lines() as f64;
    bits * cell * port_growth * PERIPHERY_FACTOR / 1.0e6
}

/// Multiplicative area overhead of pipelining an array into `stages` stages.
///
/// `stages == 1` means unpipelined (overhead 1.0).
pub fn pipelining_area_overhead(stages: u32) -> f64 {
    1.0 + PIPELINE_STAGE_OVERHEAD * stages.saturating_sub(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_scales_with_capacity() {
        let small = CacheGeometry::new(4 << 10, 64, 2, 1);
        let big = CacheGeometry::new(64 << 10, 64, 2, 1);
        let a_small = area_mm2(&small, TechNode::T090);
        let a_big = area_mm2(&big, TechNode::T090);
        assert!(a_big > 10.0 * a_small, "{a_big} vs {a_small}");
        assert!(a_big < 20.0 * a_small, "{a_big} vs {a_small}");
    }

    #[test]
    fn area_shrinks_with_node() {
        let g = CacheGeometry::new(32 << 10, 64, 2, 1);
        assert!(area_mm2(&g, TechNode::T045) < area_mm2(&g, TechNode::T090));
    }

    #[test]
    fn pipelining_costs_area() {
        assert_eq!(pipelining_area_overhead(1), 1.0);
        assert!(pipelining_area_overhead(4) > pipelining_area_overhead(2));
    }

    #[test]
    fn extra_ports_cost_area() {
        let p1 = CacheGeometry::new(32 << 10, 64, 2, 1);
        let p2 = CacheGeometry::new(32 << 10, 64, 2, 2);
        assert!(area_mm2(&p2, TechNode::T090) > 2.0 * area_mm2(&p1, TechNode::T090));
    }
}
