//! True-LRU replacement state for one cache set.
//!
//! Associativities here are small (2-way L1s, up to 16-entry fully
//! associative buffers), so an explicit rank vector beats cleverer schemes:
//! rank 0 = MRU, rank `assoc-1` = LRU.

/// LRU ranks for the ways of one set.
#[derive(Debug, Clone)]
pub struct LruSet {
    /// `rank[way]` — 0 is most recently used.
    rank: Vec<u8>,
}

impl LruSet {
    pub fn new(assoc: usize) -> Self {
        assert!((1..=255).contains(&assoc));
        LruSet {
            rank: (0u8..=u8::MAX).take(assoc).collect(),
        }
    }

    /// Mark `way` most recently used.
    pub fn touch(&mut self, way: usize) {
        let old = self.rank[way];
        for r in &mut self.rank {
            if *r < old {
                *r += 1;
            }
        }
        self.rank[way] = 0;
    }

    /// The least recently used way.
    pub fn lru(&self) -> usize {
        // `rank` is a permutation of 0..assoc (maintained by `touch`), so
        // the way holding the maximum rank is the LRU way.  Ranks are
        // distinct, so the maximum is unique and no tie-break applies.
        self.rank
            .iter()
            .enumerate()
            .max_by_key(|&(_, &r)| r)
            .map(|(way, _)| way)
            .unwrap_or(0)
    }

    /// Mark `way` least recently used (the dual of [`touch`](Self::touch)).
    ///
    /// Used by the insert-at-LRU fill policy for speculative lines: the way
    /// drops to rank `assoc-1`, every way that was colder than it warms by
    /// one rank, and the permutation invariant is preserved.
    pub fn demote(&mut self, way: usize) {
        let old = self.rank[way];
        for r in &mut self.rank {
            if *r > old {
                *r -= 1;
            }
        }
        // prestage: allow(truncating-cast, new() asserts assoc <= 255 so len-1 fits u8)
        self.rank[way] = (self.rank.len() - 1) as u8;
    }

    /// Current rank of a way (0 = MRU).
    pub fn rank_of(&self, way: usize) -> u8 {
        self.rank[way]
    }

    /// Set a way's rank, as read by [`rank_of`](Self::rank_of).  Restoring
    /// every way from one saved set keeps the ranks a permutation.
    pub fn set_rank(&mut self, way: usize, rank: u8) {
        self.rank[way] = rank;
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.rank.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_set_is_identity_permutation() {
        let l = LruSet::new(4);
        assert_eq!(l.lru(), 3);
        assert_eq!(l.rank_of(0), 0);
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut l = LruSet::new(4);
        l.touch(3);
        assert_eq!(l.rank_of(3), 0);
        assert_eq!(l.lru(), 2); // previous rank-2 way is now LRU
        l.touch(0);
        l.touch(1);
        l.touch(2);
        assert_eq!(l.lru(), 3);
    }

    #[test]
    fn repeated_touch_is_stable() {
        let mut l = LruSet::new(3);
        l.touch(1);
        l.touch(1);
        l.touch(1);
        assert_eq!(l.rank_of(1), 0);
        assert_eq!(l.lru(), 2);
    }

    #[test]
    fn ranks_stay_a_permutation() {
        let mut l = LruSet::new(8);
        // Arbitrary touch sequence.
        for i in [3usize, 1, 4, 1, 5, 2, 6, 5, 3, 5, 7, 0] {
            l.touch(i);
            let mut seen = [false; 8];
            for w in 0..8 {
                let r = l.rank_of(w) as usize;
                assert!(!seen[r], "duplicate rank");
                seen[r] = true;
            }
        }
    }

    #[test]
    fn demote_moves_to_lru() {
        let mut l = LruSet::new(4);
        l.touch(2); // ranks: 2->0, 0->1, 1->2, 3->3
        l.demote(2);
        assert_eq!(l.rank_of(2), 3);
        assert_eq!(l.lru(), 2);
        // Ways that were colder than the demoted way each warmed by one.
        assert_eq!(l.rank_of(0), 0);
        assert_eq!(l.rank_of(1), 1);
        assert_eq!(l.rank_of(3), 2);
    }

    #[test]
    fn demote_of_lru_is_identity() {
        let mut l = LruSet::new(3);
        let lru = l.lru();
        let before: Vec<u8> = (0..3).map(|w| l.rank_of(w)).collect();
        l.demote(lru);
        let after: Vec<u8> = (0..3).map(|w| l.rank_of(w)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn demote_preserves_permutation() {
        let mut l = LruSet::new(8);
        for (t, d) in [(3usize, 1usize), (4, 4), (0, 7), (5, 2), (6, 6)] {
            l.touch(t);
            l.demote(d);
            let mut seen = [false; 8];
            for w in 0..8 {
                let r = l.rank_of(w) as usize;
                assert!(!seen[r], "duplicate rank after demote");
                seen[r] = true;
            }
        }
    }
}
