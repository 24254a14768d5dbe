//! Address arithmetic helpers.

/// A byte address in the simulated machine.
pub type Addr = u64;

/// Size of one instruction in bytes (Alpha AXP: fixed 4-byte encoding).
pub const INST_BYTES: u64 = 4;

/// Align `addr` down to a `line`-byte boundary.
///
/// # Panics
/// Panics (debug builds) if `line` is not a power of two.
#[inline]
pub fn align_line(addr: Addr, line: u64) -> Addr {
    debug_assert!(line.is_power_of_two());
    addr & !(line - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align() {
        assert_eq!(align_line(0x1234, 64), 0x1200);
        assert_eq!(align_line(0x1240, 64), 0x1240);
        assert_eq!(align_line(0x0, 64), 0x0);
    }
}
