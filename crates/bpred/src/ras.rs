//! Return address stack (8 entries per Table 2), `Copy` so a predictor
//! checkpoints it by value.

use prestage_isa::Addr;

/// Return address stack entries (Table 2).
pub const RAS_ENTRIES: usize = 8;

/// Circular return address stack.  Overflow silently wraps (overwriting the
/// oldest entry) and underflow returns the bottom value — the standard
/// hardware behaviours.  At 8 entries a full copy is cheaper than any
/// cleverness, and restoring one is exact even across overflows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReturnAddressStack {
    entries: [Addr; RAS_ENTRIES],
    /// Index of the next push slot.
    top: usize,
    /// Number of live entries (saturates at capacity).
    depth: usize,
}

impl ReturnAddressStack {
    pub fn push(&mut self, addr: Addr) {
        self.entries[self.top] = addr;
        self.top = (self.top + 1) % RAS_ENTRIES;
        self.depth = (self.depth + 1).min(RAS_ENTRIES);
    }

    /// Pop the predicted return target.  On underflow returns 0 (an
    /// unmapped address — the front-end treats it as a stream the dictionary
    /// cannot resolve and the misprediction machinery recovers).
    pub fn pop(&mut self) -> Addr {
        if self.depth == 0 {
            return 0;
        }
        self.top = (self.top + RAS_ENTRIES - 1) % RAS_ENTRIES;
        self.depth -= 1;
        self.entries[self.top]
    }

    pub fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = ReturnAddressStack::default();
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), 0x200);
        assert_eq!(r.pop(), 0x100);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn underflow_returns_zero() {
        let mut r = ReturnAddressStack::default();
        assert_eq!(r.pop(), 0);
        r.push(0x40);
        assert_eq!(r.pop(), 0x40);
        assert_eq!(r.pop(), 0);
    }

    #[test]
    fn overflow_wraps_oldest() {
        let mut r = ReturnAddressStack::default();
        // One push past capacity overwrites the oldest entry, 0x1.
        for addr in 1..=RAS_ENTRIES as Addr + 1 {
            r.push(addr);
        }
        assert_eq!(r.depth(), RAS_ENTRIES);
        for addr in (2..=RAS_ENTRIES as Addr + 1).rev() {
            assert_eq!(r.pop(), addr);
        }
        // Depth exhausted: the overwritten 0x1 is gone.
        assert_eq!(r.pop(), 0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut r = ReturnAddressStack::default();
        r.push(0xa);
        r.push(0xb);
        let snap = r;
        r.push(0xc);
        r.pop();
        r.pop();
        r = snap;
        assert_eq!(r.depth(), 2);
        assert_eq!(r.pop(), 0xb);
        assert_eq!(r.pop(), 0xa);
    }

    #[test]
    fn snapshot_survives_wraparound() {
        let mut r = ReturnAddressStack::default();
        for addr in 1..=RAS_ENTRIES as Addr + 1 {
            r.push(addr);
        }
        let snap = r;
        r.push(0x40);
        r.push(0x50);
        r = snap;
        assert_eq!(r.pop(), RAS_ENTRIES as Addr + 1);
        assert_eq!(r.pop(), RAS_ENTRIES as Addr);
    }
}
