//! True-LRU replacement state, one `u8` rank per way.
//!
//! Associativities here are small (2-way L1s, up to 16-entry fully
//! associative buffers), so an explicit rank per way beats cleverer
//! schemes: rank 0 = MRU, rank `assoc-1` = LRU.  A table keeps the ranks
//! of all its sets in one flat vector indexed `[set * assoc + way]`, like
//! its tags; the functions below act on one set's `assoc`-long slice,
//! whose ranks they keep a permutation of `0..assoc`.

/// Fresh ranks for `sets` sets of `assoc` ways: every set ranks its ways
/// in way order (way 0 MRU, way `assoc-1` LRU).
///
/// # Panics
/// If `assoc` is 0 or above 255, the most a `u8` rank can order.
pub(crate) fn ranks(sets: usize, assoc: usize) -> Vec<u8> {
    assert!(
        (1..=255).contains(&assoc),
        "LRU associativity must be 1..=255, got {assoc}"
    );
    let mut ranks = Vec::with_capacity(sets * assoc);
    for _ in 0..sets {
        ranks.extend((0u8..=u8::MAX).take(assoc));
    }
    ranks
}

/// Mark `way` most recently used.
#[inline]
pub(crate) fn touch(set: &mut [u8], way: usize) {
    let old = set[way];
    for r in set.iter_mut() {
        if *r < old {
            *r += 1;
        }
    }
    set[way] = 0;
}

/// The least recently used way.
#[inline]
pub(crate) fn lru(set: &[u8]) -> usize {
    // The ranks are a permutation of 0..assoc, so the way holding the
    // maximum rank is the LRU way.  Ranks are distinct, so the maximum is
    // unique and no tie-break applies.
    set.iter()
        .enumerate()
        .max_by_key(|&(_, &r)| r)
        .map_or(0, |(way, _)| way)
}

/// Mark `way` least recently used (the dual of [`touch`]).
///
/// Used by the insert-at-LRU fill policy for speculative lines: the way
/// drops to rank `assoc-1`, every way that was colder than it warms by
/// one rank, and the permutation invariant is preserved.
#[inline]
pub(crate) fn demote(set: &mut [u8], way: usize) {
    let old = set[way];
    for r in set.iter_mut() {
        if *r > old {
            *r -= 1;
        }
    }
    // prestage: allow(truncating-cast, `ranks` refuses assoc > 255 so len-1 fits u8)
    set[way] = (set.len() - 1) as u8;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_permutation(set: &[u8]) {
        let mut seen = vec![false; set.len()];
        for &r in set {
            assert!(!seen[r as usize], "duplicate rank in {set:?}");
            seen[r as usize] = true;
        }
    }

    #[test]
    fn fresh_set_is_identity_permutation() {
        let l = ranks(1, 4);
        assert_eq!(lru(&l), 3);
        assert_eq!(l[0], 0);
        // Every set of a table starts the same way.
        assert_eq!(ranks(3, 2), [0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut l = ranks(1, 4);
        touch(&mut l, 3);
        assert_eq!(l[3], 0);
        assert_eq!(lru(&l), 2); // previous rank-2 way is now LRU
        touch(&mut l, 0);
        touch(&mut l, 1);
        touch(&mut l, 2);
        assert_eq!(lru(&l), 3);
    }

    #[test]
    fn repeated_touch_is_stable() {
        let mut l = ranks(1, 3);
        touch(&mut l, 1);
        touch(&mut l, 1);
        touch(&mut l, 1);
        assert_eq!(l[1], 0);
        assert_eq!(lru(&l), 2);
    }

    #[test]
    fn ranks_stay_a_permutation() {
        let mut l = ranks(1, 8);
        // Arbitrary touch sequence.
        for i in [3usize, 1, 4, 1, 5, 2, 6, 5, 3, 5, 7, 0] {
            touch(&mut l, i);
            assert_permutation(&l);
        }
    }

    #[test]
    fn demote_moves_to_lru() {
        let mut l = ranks(1, 4);
        touch(&mut l, 2); // ranks: 2->0, 0->1, 1->2, 3->3
        demote(&mut l, 2);
        assert_eq!(l[2], 3);
        assert_eq!(lru(&l), 2);
        // Ways that were colder than the demoted way each warmed by one.
        assert_eq!(l[0], 0);
        assert_eq!(l[1], 1);
        assert_eq!(l[3], 2);
    }

    #[test]
    fn demote_of_lru_is_identity() {
        let mut l = ranks(1, 3);
        let before = l.clone();
        demote(&mut l, lru(&before));
        assert_eq!(before, l);
    }

    #[test]
    fn demote_preserves_permutation() {
        let mut l = ranks(1, 8);
        for (t, d) in [(3usize, 1usize), (4, 4), (0, 7), (5, 2), (6, 6)] {
            touch(&mut l, t);
            demote(&mut l, d);
            assert_permutation(&l);
        }
    }
}
