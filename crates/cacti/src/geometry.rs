//! Cache geometry descriptions and candidate array organisations.

/// Physical description of a cache-like SRAM structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Line (block) size in bytes.
    pub line: usize,
    /// Associativity.  `usize::MAX` denotes fully associative; use
    /// [`CacheGeometry::fully_associative`] to construct such geometries.
    pub assoc: usize,
    /// Number of read/write ports.
    pub ports: usize,
}

impl CacheGeometry {
    /// A set-associative cache.
    ///
    /// # Panics
    /// Panics if any parameter is zero, not a power of two, or inconsistent
    /// (capacity smaller than one way of lines).
    pub fn new(capacity: usize, line: usize, assoc: usize, ports: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(assoc >= 1 && ports >= 1);
        assert!(
            capacity >= line * assoc,
            "capacity {capacity} too small for {assoc}-way of {line}B lines"
        );
        Self {
            capacity,
            line,
            assoc,
            ports,
        }
    }

    /// A fully associative buffer (all lines are ways of a single set).
    pub fn fully_associative(capacity: usize, line: usize, ports: usize) -> Self {
        assert!(capacity.is_power_of_two() && line.is_power_of_two());
        assert!(capacity >= line);
        Self {
            capacity,
            line,
            assoc: capacity / line,
            ports,
        }
    }

    /// Number of lines held.
    pub fn lines(&self) -> usize {
        self.capacity / self.line
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.capacity / (self.line * self.assoc)).max(1)
    }

    /// Total data bits stored.
    pub fn data_bits(&self) -> usize {
        self.capacity * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_and_lines() {
        let g = CacheGeometry::new(4096, 64, 2, 1);
        assert_eq!(g.lines(), 64);
        assert_eq!(g.sets(), 32);
    }

    #[test]
    fn fully_associative_has_one_set() {
        let g = CacheGeometry::fully_associative(256, 64, 1);
        assert_eq!(g.sets(), 1);
        assert_eq!(g.assoc, 4);
    }

    #[test]
    fn data_bits_counts_capacity() {
        let g = CacheGeometry::new(1024, 64, 2, 1);
        assert_eq!(g.data_bits(), 8192);
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        CacheGeometry::new(3000, 64, 2, 1);
    }

    #[test]
    #[should_panic]
    fn rejects_capacity_below_one_way() {
        CacheGeometry::new(64, 64, 2, 1);
    }
}
