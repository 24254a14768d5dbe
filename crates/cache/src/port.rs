//! Array-port occupancy: the timing difference between a non-pipelined
//! multi-cycle array and a pipelined one.
//!
//! The paper's central tension (§1) is that a large L1 either has a
//! multi-cycle *blocking* access (the array cannot accept a new access until
//! the previous one finishes) or is pipelined (a new access every cycle, but
//! each access still takes the full latency, lengthening the front-end and
//! thus the branch-misprediction penalty).  [`ArrayPort`] captures exactly
//! that: `start` returns when the access's data is available, while the
//! internal occupancy decides how soon the *next* access may begin.

/// One port of a storage array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayPort {
    /// Access latency in cycles (≥ 1).
    latency: u32,
    /// Pipelined arrays accept one access per cycle; non-pipelined arrays
    /// block for the full latency.
    pipelined: bool,
    /// First cycle at which a new access may start.
    free_at: u64,
}

impl ArrayPort {
    pub fn new(latency: u32, pipelined: bool) -> Self {
        assert!(latency >= 1);
        ArrayPort {
            latency,
            pipelined,
            free_at: 0,
        }
    }

    /// Earliest cycle ≥ `now` at which an access could start.
    pub fn next_start(&self, now: u64) -> u64 {
        now.max(self.free_at)
    }

    /// True if an access may start exactly at `now`.
    pub fn can_start(&self, now: u64) -> bool {
        self.next_start(now) == now
    }

    /// Begin an access at (or after) `now`; returns the cycle its data is
    /// ready.
    pub fn start(&mut self, now: u64) -> u64 {
        let begin = self.next_start(now);
        self.free_at = begin
            + if self.pipelined {
                1
            } else {
                self.latency as u64
            };
        begin + self.latency as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle_port_back_to_back() {
        let mut p = ArrayPort::new(1, false);
        assert_eq!(p.start(10), 11);
        assert_eq!(p.start(11), 12);
        assert_eq!(p.start(11), 13); // second access in cycle 11 waits
    }

    #[test]
    fn non_pipelined_blocks_for_full_latency() {
        let mut p = ArrayPort::new(4, false);
        assert_eq!(p.start(0), 4);
        assert!(!p.can_start(1));
        assert_eq!(p.next_start(1), 4);
        assert_eq!(p.start(1), 8); // starts at 4, data at 8
    }

    #[test]
    fn pipelined_accepts_every_cycle() {
        let mut p = ArrayPort::new(4, true);
        assert_eq!(p.start(0), 4);
        assert!(p.can_start(1));
        assert_eq!(p.start(1), 5);
        assert_eq!(p.start(2), 6);
        // Two starts in the same cycle still serialise by one cycle.
        assert_eq!(p.start(2), 7);
    }
}
