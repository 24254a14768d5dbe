//! First-order per-access energy model.
//!
//! Complements [`crate::area`]: it prices the paper's §1/§5 point that CLGP
//! serves most fetches from a tiny buffer rather than a large cache.

use crate::geometry::CacheGeometry;
use crate::tech::TechNode;

/// Energy per accessed bit at the 0.80 µm base process, in nanojoules.
const NJ_PER_BIT_BASE: f64 = 6.0e-4;
/// Fixed periphery energy per access (decoder, sense amps), base process.
const NJ_PERIPHERY_BASE: f64 = 0.35;

/// Estimated energy per read access in nanojoules.
///
/// An access reads one set: `assoc` data lines plus their tags; energy
/// scales with the bits activated and, weakly, with total capacity through
/// longer wires (modelled as a square-root term).
pub fn energy_nj_per_access(g: &CacheGeometry, node: TechNode) -> f64 {
    // Dynamic energy ~ C V^2: capacitance scales with feature size, V^2
    // roughly with feature as well in constant-field scaling.
    let scale = node.feature_um() / 0.80;
    let escale = scale * scale;
    let bits_activated = (g.assoc * g.line * 8) as f64 + 40.0 * g.assoc as f64;
    let wire_factor = (g.data_bits() as f64).sqrt() / (32768.0f64).sqrt();
    (NJ_PER_BIT_BASE * bits_activated + NJ_PERIPHERY_BASE * wire_factor) * escale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_associative_buffers_cost_more_per_line_but_less_total() {
        // A 256 B fully associative buffer activates all 4 ways, yet is far
        // cheaper per access than a 32 KB 2-way cache.
        let pb = CacheGeometry::fully_associative(256, 64, 1);
        let l1 = CacheGeometry::new(32 << 10, 64, 2, 1);
        let e_pb = energy_nj_per_access(&pb, TechNode::T045);
        let e_l1 = energy_nj_per_access(&l1, TechNode::T045);
        assert!(e_pb < e_l1, "{e_pb} vs {e_l1}");
    }

    #[test]
    fn energy_shrinks_with_node() {
        let g = CacheGeometry::new(16 << 10, 64, 2, 1);
        assert!(
            energy_nj_per_access(&g, TechNode::T045) < energy_nj_per_access(&g, TechNode::T090)
        );
    }
}
