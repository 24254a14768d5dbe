//! Set-associative cache array with true LRU.

use crate::lru::LruSet;
use prestage_isa::Addr;
use serde::{Deserialize, Serialize};

/// Hit/miss counters for one array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub fills: u64,
    pub evictions: u64,
    /// Prefetch-class fills dropped by the [`InsertionPolicy::Bypass`]
    /// policy (counted separately from `fills`, which only counts lines
    /// that actually entered the array).
    pub bypasses: u64,
}

/// Where a prefetch-class fill lands in the replacement order.
///
/// Demand fills always insert at MRU; this policy only governs fills tagged
/// [`FillClass::Prefetch`] — speculative lines whose usefulness is not yet
/// proven.  Per Jamet et al., naive MRU insertion of speculative lines can
/// erase a prefetcher's front-end gains by evicting demand-hot lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InsertionPolicy {
    /// Insert at MRU, exactly like a demand fill (the historical behavior).
    Mru,
    /// Insert at the LRU position: the line gets one reuse window before it
    /// becomes the preferred victim, so useless prefetches barely pollute.
    Lru,
    /// Do not insert at all — the speculative line is dropped (bypass).
    Bypass,
}

impl InsertionPolicy {
    pub fn all() -> [InsertionPolicy; 3] {
        [
            InsertionPolicy::Mru,
            InsertionPolicy::Lru,
            InsertionPolicy::Bypass,
        ]
    }

    /// Stable wire id (spec JSON / CLI).
    pub fn id(self) -> &'static str {
        match self {
            InsertionPolicy::Mru => "mru",
            InsertionPolicy::Lru => "lru",
            InsertionPolicy::Bypass => "bypass",
        }
    }

    /// Parse an [`id`](Self::id).
    pub fn from_id(s: &str) -> Option<InsertionPolicy> {
        Self::all().into_iter().find(|p| p.id() == s)
    }
}

/// The class of a cache fill: who is inserting the line and how sure they
/// are it will be used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillClass {
    /// A demand miss (or a line the front-end already consumed): insert at
    /// MRU unconditionally.
    Demand,
    /// A speculative (prefetched) line: insertion is governed by the policy.
    Prefetch(InsertionPolicy),
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

/// A set-associative cache directory (tags only — this simulator never needs
/// data values, just presence and replacement state).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    line_shift: u32,
    sets: usize,
    assoc: usize,
    /// `tags[set * assoc + way]` — stored as line numbers.
    tags: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    lru: Vec<LruSet>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build a cache of `capacity` bytes with `line`-byte lines, `assoc`
    /// ways.
    ///
    /// # Panics
    /// Panics on non-power-of-two capacity/line, a capacity smaller than
    /// one way of lines, or an associativity yielding a non-power-of-two
    /// set count — sets are mask-indexed (`& (sets - 1)`), so a
    /// non-power-of-two count would silently alias addresses into the
    /// wrong sets instead of using the whole array.
    pub fn new(capacity: usize, line: usize, assoc: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "cache capacity must be a power of two (mask-indexed sets), got {capacity}"
        );
        assert!(
            line.is_power_of_two(),
            "cache line size must be a power of two, got {line}"
        );
        assert!(assoc >= 1);
        let lines = capacity / line;
        assert!(lines >= assoc, "capacity below one way");
        let sets = lines / assoc;
        assert!(
            sets.is_power_of_two() && sets * assoc == lines,
            "associativity {assoc} over {lines} lines yields {sets} sets, which is \
             not a power of two — set indexing uses `& (sets - 1)` and would \
             silently alias"
        );
        SetAssocCache {
            line_shift: line.trailing_zeros(),
            sets,
            assoc,
            tags: vec![0; lines],
            valid: vec![false; lines],
            dirty: vec![false; lines],
            lru: (0..sets).map(|_| LruSet::new(assoc)).collect(),
            stats: CacheStats::default(),
        }
    }

    /// Fully associative helper.
    pub fn fully_associative(capacity: usize, line: usize) -> Self {
        let ways = capacity / line;
        Self::new(capacity, line, ways)
    }

    #[inline]
    fn line_num(&self, addr: Addr) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line_num: u64) -> usize {
        (line_num as usize) & (self.sets - 1)
    }

    fn find(&self, addr: Addr) -> Option<(usize, usize)> {
        let ln = self.line_num(addr);
        let set = self.set_of(ln);
        let base = set * self.assoc;
        (0..self.assoc)
            .find(|&w| self.valid[base + w] && self.tags[base + w] == ln)
            .map(|w| (set, w))
    }

    /// Demand access: returns `true` on hit and updates LRU.
    pub fn lookup(&mut self, addr: Addr) -> bool {
        match self.find(addr) {
            Some((set, way)) => {
                self.lru[set].touch(way);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Tag probe with no LRU update and no accounting: the extra tag port
    /// FDP's Enqueue Cache Probe Filtering uses, and the presence check of
    /// assertions.  Having no side effect lets a prefetcher probe on a
    /// cycle where it then stalls without that cycle changing any state.
    pub fn contains(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Insert the line containing `addr`; evicts LRU if the set is full.
    /// Returns the evicted line's base address and dirty flag, if any.
    /// Filling an already-present line refreshes its LRU position instead.
    ///
    /// Equivalent to [`fill_with`](Self::fill_with) with
    /// [`FillClass::Demand`] — demand fills always insert at MRU.
    pub fn fill(&mut self, addr: Addr) -> Option<(Addr, bool)> {
        self.fill_with(addr, FillClass::Demand)
    }

    /// Classed insert: demand fills behave exactly like [`fill`](Self::fill)
    /// always has; prefetch-class fills follow their [`InsertionPolicy`].
    ///
    /// * `Prefetch(Mru)` is bit-identical to a demand fill.
    /// * `Prefetch(Lru)` inserts the line at the LRU position (and leaves
    ///   the replacement order untouched when the line is already present —
    ///   a speculative fill must not promote a line it did not bring in).
    /// * `Prefetch(Bypass)` drops the line entirely and counts a bypass.
    pub fn fill_with(&mut self, addr: Addr, class: FillClass) -> Option<(Addr, bool)> {
        if let FillClass::Prefetch(InsertionPolicy::Bypass) = class {
            self.stats.bypasses += 1;
            return None;
        }
        let at_lru = matches!(class, FillClass::Prefetch(InsertionPolicy::Lru));
        self.stats.fills += 1;
        if let Some((set, way)) = self.find(addr) {
            if !at_lru {
                self.lru[set].touch(way);
            }
            return None;
        }
        let ln = self.line_num(addr);
        let set = self.set_of(ln);
        let base = set * self.assoc;
        let way = (0..self.assoc)
            .find(|&w| !self.valid[base + w])
            .unwrap_or_else(|| self.lru[set].lru());
        let victim = if self.valid[base + way] {
            self.stats.evictions += 1;
            Some((
                self.tags[base + way] << self.line_shift,
                self.dirty[base + way],
            ))
        } else {
            None
        };
        self.tags[base + way] = ln;
        self.valid[base + way] = true;
        self.dirty[base + way] = false;
        if at_lru {
            self.lru[set].demote(way);
        } else {
            self.lru[set].touch(way);
        }
        victim
    }

    /// Mark the line containing `addr` dirty (store hit).  No-op on absence.
    pub fn set_dirty(&mut self, addr: Addr) {
        if let Some((set, way)) = self.find(addr) {
            self.dirty[set * self.assoc + way] = true;
        }
    }

    /// Remove the line containing `addr` if present.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        if let Some((set, way)) = self.find(addr) {
            self.valid[set * self.assoc + way] = false;
            true
        } else {
            false
        }
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    pub fn line_bytes(&self) -> usize {
        1 << self.line_shift
    }

    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(1024, 64, 2);
        assert!(!c.lookup(0x40));
        c.fill(0x40);
        assert!(c.lookup(0x40));
        assert!(c.lookup(0x7f)); // same line
        assert!(!c.lookup(0x80)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 sets, 2 ways, 64B lines => lines mapping to set0: 0x000, 0x080…
        let mut c = SetAssocCache::new(256, 64, 2);
        c.fill(0x000);
        c.fill(0x100); // same set 0
        assert!(c.lookup(0x000)); // make 0x000 MRU
        let victim = c.fill(0x200); // evicts LRU = 0x100
        assert_eq!(victim, Some((0x100, false)));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = SetAssocCache::new(256, 64, 2);
        c.fill(0x000);
        c.fill(0x100);
        // 0x000 is LRU; probing it must NOT refresh it.
        assert!(c.contains(0x000));
        let victim = c.fill(0x200);
        assert_eq!(victim, Some((0x000, false)));
        assert_eq!(
            *c.stats(),
            CacheStats {
                fills: 3,
                evictions: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn refill_of_present_line_refreshes() {
        let mut c = SetAssocCache::new(256, 64, 2);
        c.fill(0x000);
        c.fill(0x100);
        c.fill(0x000); // refresh, not duplicate
        let victim = c.fill(0x200);
        assert_eq!(victim, Some((0x100, false)));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = SetAssocCache::new(128, 64, 2);
        c.fill(0x000);
        c.set_dirty(0x000);
        c.fill(0x080);
        let victim = c.fill(0x100);
        assert_eq!(victim, Some((0x000, true)));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = SetAssocCache::new(256, 64, 4);
        c.fill(0x00);
        c.fill(0x40);
        assert!(c.invalidate(0x00));
        assert!(!c.invalidate(0x00));
        assert_eq!(c.occupancy(), 1);
        assert!(c.contains(0x40));
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut c = SetAssocCache::fully_associative(256, 64);
        for i in 0..4u64 {
            c.fill(i * 0x1000); // wildly different indices all coexist
        }
        assert_eq!(c.occupancy(), 4);
        let victim = c.fill(0x9000);
        assert!(victim.is_some());
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_pow2_set_count_is_rejected() {
        // Regression: 4096 B / 64 B lines = 64 lines; 3 ways → 21 sets.
        // Set indexing is `& (sets - 1)`, so this used to silently alias
        // (and strand sets) instead of failing; now it refuses by name.
        let _ = SetAssocCache::new(4096, 64, 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be a power of two")]
    fn non_pow2_capacity_is_rejected_by_name() {
        let _ = SetAssocCache::new(1536, 64, 2);
    }

    #[test]
    fn capacity_reporting() {
        let c = SetAssocCache::new(32 << 10, 64, 2);
        assert_eq!(c.line_bytes(), 64);
        assert_eq!(c.assoc(), 2);
    }

    #[test]
    fn prefetch_mru_fill_matches_demand_fill() {
        let mut a = SetAssocCache::new(256, 64, 2);
        let mut b = SetAssocCache::new(256, 64, 2);
        for addr in [0x000u64, 0x100, 0x000, 0x200, 0x300] {
            let va = a.fill(addr);
            let vb = b.fill_with(addr, FillClass::Prefetch(InsertionPolicy::Mru));
            assert_eq!(va, vb);
        }
        assert_eq!(a.stats(), b.stats());
        for addr in [0x000u64, 0x100, 0x200, 0x300] {
            assert_eq!(a.contains(addr), b.contains(addr));
        }
    }

    #[test]
    fn prefetch_lru_fill_is_preferred_victim() {
        let mut c = SetAssocCache::new(256, 64, 2);
        c.fill(0x000); // demand, MRU
        c.fill_with(0x100, FillClass::Prefetch(InsertionPolicy::Lru));
        // The speculative line is the victim even though it arrived last.
        let victim = c.fill(0x200);
        assert_eq!(victim, Some((0x100, false)));
        assert!(c.contains(0x000));
    }

    #[test]
    fn prefetch_lru_refill_does_not_promote() {
        let mut c = SetAssocCache::new(256, 64, 2);
        c.fill(0x000);
        c.fill(0x100); // 0x000 is now LRU
        c.fill_with(0x000, FillClass::Prefetch(InsertionPolicy::Lru));
        // 0x000 stays LRU: a speculative re-fill must not refresh it.
        let victim = c.fill(0x200);
        assert_eq!(victim, Some((0x000, false)));
    }

    #[test]
    fn prefetch_bypass_drops_line() {
        let mut c = SetAssocCache::new(256, 64, 2);
        c.fill_with(0x000, FillClass::Prefetch(InsertionPolicy::Bypass));
        assert!(!c.contains(0x000));
        assert_eq!(c.stats().bypasses, 1);
        assert_eq!(c.stats().fills, 0);
    }

    #[test]
    fn insertion_policy_ids_round_trip() {
        for p in InsertionPolicy::all() {
            assert_eq!(InsertionPolicy::from_id(p.id()), Some(p));
        }
        assert_eq!(InsertionPolicy::from_id("plru"), None);
    }
}
