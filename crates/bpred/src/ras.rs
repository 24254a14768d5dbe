//! Checkpointable return address stack (8 entries per Table 2).

use prestage_isa::Addr;

/// Circular return address stack.  Overflow silently wraps (overwriting the
/// oldest entry) and underflow returns the bottom value — the standard
/// hardware behaviours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReturnAddressStack {
    entries: Vec<Addr>,
    /// Index of the next push slot.
    top: usize,
    /// Number of live entries (saturates at capacity).
    depth: usize,
}

/// Largest supported RAS: snapshots inline this many entries so that
/// checkpointing — which the engine does for every on-path fetch block —
/// never touches the heap.
pub const MAX_RAS_ENTRIES: usize = 16;

/// A full copy of the RAS — at 8 entries, copying is cheaper than any
/// cleverness, and restoring is exact even across overflows.  The entries
/// live in a fixed inline array (`MAX_RAS_ENTRIES`) so taking a snapshot
/// is a flat memcpy with no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RasSnapshot {
    entries: [Addr; MAX_RAS_ENTRIES],
    top: usize,
    depth: usize,
}

impl RasSnapshot {
    /// Live entries at the time the snapshot was taken.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl ReturnAddressStack {
    pub fn new(capacity: usize) -> Self {
        assert!(
            (1..=MAX_RAS_ENTRIES).contains(&capacity),
            "RAS capacity {capacity} outside the supported 1..={MAX_RAS_ENTRIES}"
        );
        ReturnAddressStack {
            entries: vec![0; capacity],
            top: 0,
            depth: 0,
        }
    }

    /// The paper's configuration: 8 entries.
    pub fn paper_default() -> Self {
        Self::new(8)
    }

    pub fn push(&mut self, addr: Addr) {
        self.entries[self.top] = addr;
        self.top = (self.top + 1) % self.entries.len();
        self.depth = (self.depth + 1).min(self.entries.len());
    }

    /// Pop the predicted return target.  On underflow returns 0 (an
    /// unmapped address — the front-end treats it as a stream the dictionary
    /// cannot resolve and the misprediction machinery recovers).
    pub fn pop(&mut self) -> Addr {
        if self.depth == 0 {
            return 0;
        }
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.depth -= 1;
        self.entries[self.top]
    }

    pub fn depth(&self) -> usize {
        self.depth
    }

    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    pub fn snapshot(&self) -> RasSnapshot {
        let mut entries = [0; MAX_RAS_ENTRIES];
        entries[..self.entries.len()].copy_from_slice(&self.entries);
        RasSnapshot {
            entries,
            top: self.top,
            depth: self.depth,
        }
    }

    /// Restore from a snapshot taken on a RAS of the same capacity.
    pub fn restore(&mut self, snap: &RasSnapshot) {
        let n = self.entries.len();
        self.entries.copy_from_slice(&snap.entries[..n]);
        self.top = snap.top;
        self.depth = snap.depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = ReturnAddressStack::new(8);
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), 0x200);
        assert_eq!(r.pop(), 0x100);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn underflow_returns_zero() {
        let mut r = ReturnAddressStack::new(4);
        assert_eq!(r.pop(), 0);
        r.push(0x40);
        assert_eq!(r.pop(), 0x40);
        assert_eq!(r.pop(), 0);
    }

    #[test]
    fn overflow_wraps_oldest() {
        let mut r = ReturnAddressStack::new(2);
        r.push(0x1);
        r.push(0x2);
        r.push(0x3); // overwrites 0x1
        assert_eq!(r.pop(), 0x3);
        assert_eq!(r.pop(), 0x2);
        // Depth exhausted: the overwritten 0x1 is gone.
        assert_eq!(r.pop(), 0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut r = ReturnAddressStack::new(8);
        r.push(0xa);
        r.push(0xb);
        let snap = r.snapshot();
        r.push(0xc);
        r.pop();
        r.pop();
        r.restore(&snap);
        assert_eq!(r.depth(), 2);
        assert_eq!(r.pop(), 0xb);
        assert_eq!(r.pop(), 0xa);
    }

    #[test]
    fn snapshot_survives_wraparound() {
        let mut r = ReturnAddressStack::new(2);
        r.push(0x1);
        r.push(0x2);
        r.push(0x3);
        let snap = r.snapshot();
        r.push(0x4);
        r.push(0x5);
        r.restore(&snap);
        assert_eq!(r.pop(), 0x3);
        assert_eq!(r.pop(), 0x2);
    }
}
