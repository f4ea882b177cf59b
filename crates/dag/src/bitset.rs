//! A dense fixed-capacity bitset.
//!
//! Transitive closures over code DAGs (paper Fig. 6 line 3) are the hot
//! analysis in balanced scheduling; representing `Pred(i)`/`Succ(i)` as
//! machine-word bitsets keeps the whole algorithm within the paper's
//! `O(n²·α(n))` bound with a tiny constant.

use std::fmt;

/// A fixed-capacity set of `usize` indices backed by `u64` words.
///
/// The [`Default`] value is an empty set of capacity 0.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Capacity (exclusive upper bound on indices).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `idx`. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= capacity`.
    pub fn insert(&mut self, idx: usize) -> bool {
        assert!(
            idx < self.capacity,
            "index {idx} out of capacity {}",
            self.capacity
        );
        let (w, b) = (idx / 64, idx % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `idx`. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= capacity`.
    pub fn remove(&mut self, idx: usize) -> bool {
        assert!(
            idx < self.capacity,
            "index {idx} out of capacity {}",
            self.capacity
        );
        let (w, b) = (idx / 64, idx % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test. Out-of-range indices are simply absent.
    #[must_use]
    pub fn contains(&self, idx: usize) -> bool {
        if idx >= self.capacity {
            return false;
        }
        self.words[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference (`self − other`).
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts every index in `0..capacity`.
    pub fn fill(&mut self) {
        for i in 0..self.words.len() {
            self.words[i] = u64::MAX;
        }
        self.trim_tail();
    }

    fn trim_tail(&mut self) {
        let excess = self.words.len() * 64 - self.capacity;
        if excess > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> excess;
            }
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates the contained indices in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            word: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the indices of a [`BitSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    word: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.word = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set whose capacity is one past the largest element
    /// (or 0 for an empty iterator).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert");
        assert!(s.contains(0));
        assert!(s.contains(64));
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn set_algebra() {
        let mut a: BitSet = [1usize, 2, 3, 70].into_iter().collect();
        let mut grow = BitSet::new(a.capacity());
        grow.insert(2);
        grow.insert(70);
        let b = grow;
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 70]);
        a.difference_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn fill_and_clear() {
        let mut s = BitSet::new(67);
        s.fill();
        assert_eq!(s.len(), 67);
        assert!(s.contains(66));
        assert!(!s.contains(67));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn iter_order_is_increasing() {
        let s: BitSet = [65usize, 3, 128, 0].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 65, 128]);
    }

    #[test]
    fn empty_capacity_zero() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.capacity(), 0);
    }

    #[test]
    fn debug_lists_elements() {
        let s: BitSet = [1usize, 5].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1, 5}");
    }

    #[test]
    fn from_iter_capacity() {
        let s: BitSet = [9usize].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        let e: BitSet = std::iter::empty().collect();
        assert_eq!(e.capacity(), 0);
    }
}
