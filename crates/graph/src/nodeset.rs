//! Dense bitset-backed node sets, for callers that keep id-indexed sets
//! of their own (the global baseline's coverage masks).
//!
//! # Invariants
//!
//! Every public operation maintains these, and callers rely on them:
//!
//! 1. **Dense words.** Membership of `NodeId(i)` is bit `i % 64` of word
//!    `i / 64`. There is no indirection; word index arithmetic is the
//!    whole addressing scheme.
//! 2. **Cached cardinality.** `len()` is O(1): the population count is
//!    maintained incrementally by `insert`/`remove` and recomputed by the
//!    word-level bulk operations (`union_with`, `intersect_with`,
//!    `difference_with`) from the words they just wrote.
//! 3. **No ghost bits.** Words beyond the highest set bit may exist (the
//!    backing vector never shrinks) but are always zero, so equality and
//!    hashing can compare the meaningful prefix and ignore capacity.
//!    Binary operations may therefore be applied between sets of
//!    different capacities.
//! 4. **Auto-growth.** `insert` grows the word vector on demand;
//!    `contains` beyond capacity is simply `false`. Protocol code can
//!    stay capacity-oblivious (locality: a node never needs to know
//!    `|Π|`).
//! 5. **Sorted iteration.** `iter()` yields members in increasing
//!    `NodeId` order, matching the ordering contract of
//!    [`Region`](crate::Region) and `BTreeSet<NodeId>` so the two
//!    representations are interchangeable byte-for-byte (see the
//!    differential property tests in `tests/properties.rs`).

use std::collections::BTreeSet;
use std::fmt;

use crate::{NodeId, Region};

/// Bits per backing word.
pub(crate) const WORD_BITS: usize = 64;

/// Number of `u64` words needed to cover `n` dense node ids.
#[inline]
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

/// A dense, growable bitset of [`NodeId`]s.
///
/// Membership is one bit test, and union, intersection and difference
/// are word-parallel (`|`, `&`, `& !`), so a set over ids below `n`
/// costs `n`/8 bytes and O(`n`/64) per bulk operation. That suits a
/// caller whose sets span most of the id range; a set the size of a
/// region is better kept as a sorted [`Region`].
///
/// # Example
///
/// ```
/// use precipice_graph::{NodeId, NodeSet};
///
/// let mut s = NodeSet::new();
/// s.insert(NodeId(3));
/// s.insert(NodeId(70));
/// assert!(s.contains(NodeId(3)));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId(3), NodeId(70)]);
/// ```
#[derive(Clone, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// The empty set, with no backing storage yet.
    pub fn new() -> Self {
        NodeSet {
            words: Vec::new(),
            len: 0,
        }
    }

    /// The empty set, pre-sized for node ids `0..n` so inserts in that
    /// range never reallocate.
    pub fn with_capacity(n: usize) -> Self {
        NodeSet {
            words: vec![0; words_for(n)],
            len: 0,
        }
    }

    /// Number of members (O(1), cached).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of node ids the current backing words can hold without
    /// growing.
    pub fn capacity(&self) -> usize {
        self.words.len() * WORD_BITS
    }

    /// Membership test: O(1).
    #[inline]
    pub fn contains(&self, p: NodeId) -> bool {
        let w = p.index() / WORD_BITS;
        self.words
            .get(w)
            .is_some_and(|word| word & (1 << (p.index() % WORD_BITS)) != 0)
    }

    /// Inserts `p`, growing the backing storage if needed. Returns `true`
    /// if `p` was not already a member.
    #[inline]
    pub fn insert(&mut self, p: NodeId) -> bool {
        let w = p.index() / WORD_BITS;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1 << (p.index() % WORD_BITS);
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `p`. Returns `true` if `p` was a member.
    #[inline]
    pub fn remove(&mut self, p: NodeId) -> bool {
        let w = p.index() / WORD_BITS;
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let mask = 1 << (p.index() % WORD_BITS);
        let present = *word & mask != 0;
        *word &= !mask;
        self.len -= usize::from(present);
        present
    }

    /// Empties the set, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The smallest member, if any — the deterministic component seed.
    pub fn min(&self) -> Option<NodeId> {
        for (i, &word) in self.words.iter().enumerate() {
            if word != 0 {
                let bit = word.trailing_zeros() as usize;
                return Some(NodeId::from_index(i * WORD_BITS + bit));
            }
        }
        None
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        self.recount();
    }

    /// `self ∩= other`.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
        self.recount();
    }

    /// `self ∖= other` (word-level AND-NOT).
    pub fn difference_with(&mut self, other: &NodeSet) {
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
        self.recount();
    }

    /// `true` if `self` and `other` share at least one member.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// `true` if every member of `self` is in `other`.
    pub fn is_subset_of(&self, other: &NodeSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates members in increasing id order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The backing words (low bit of word 0 is `NodeId(0)`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Recomputes the cached cardinality from the words.
    fn recount(&mut self) {
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Converts to the canonical sorted-slice [`Region`] representation.
    pub fn to_region(&self) -> Region {
        let mut nodes = Vec::with_capacity(self.len);
        nodes.extend(self.iter());
        Region::from_sorted_vec(nodes)
    }

    /// Converts to a `BTreeSet` (reference-implementation interop).
    pub fn to_btree_set(&self) -> BTreeSet<NodeId> {
        self.iter().collect()
    }
}

/// Iterator over the members of a [`NodeSet`], ascending.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId::from_index(self.word_idx * WORD_BITS + bit))
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Invariant 3: trailing words beyond the common prefix are zero.
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
    }
}

impl Eq for NodeSet {}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl From<&Region> for NodeSet {
    fn from(region: &Region) -> Self {
        let mut s = match region.as_slice().last() {
            Some(max) => NodeSet::with_capacity(max.index() + 1),
            None => NodeSet::new(),
        };
        for p in region.iter() {
            s.insert(p);
        }
        s
    }
}

impl From<&NodeSet> for Region {
    fn from(set: &NodeSet) -> Self {
        set.to_region()
    }
}

impl From<&BTreeSet<NodeId>> for NodeSet {
    fn from(set: &BTreeSet<NodeId>) -> Self {
        set.iter().copied().collect()
    }
}

fn fmt_members(set: &NodeSet, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{{")?;
    for (i, n) in set.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{n}")?;
    }
    write!(f, "}}")
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_members(self, f)
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_members(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new();
        assert!(s.insert(NodeId(5)));
        assert!(!s.insert(NodeId(5)));
        assert!(s.contains(NodeId(5)));
        assert!(!s.contains(NodeId(6)));
        assert!(!s.contains(NodeId(1000)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(NodeId(5)));
        assert!(!s.remove(NodeId(5)));
        assert!(!s.remove(NodeId(9999)));
        assert!(s.is_empty());
    }

    #[test]
    fn growth_across_word_boundaries() {
        let mut s = NodeSet::with_capacity(10);
        assert_eq!(s.capacity(), 64);
        s.insert(NodeId(200));
        assert!(s.capacity() >= 201);
        assert!(s.contains(NodeId(200)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let s = set(&[130, 0, 63, 64, 5]);
        let got: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 130]);
    }

    #[test]
    fn min_finds_lowest() {
        assert_eq!(set(&[200, 3, 70]).min(), Some(NodeId(3)));
        assert_eq!(NodeSet::new().min(), None);
    }

    #[test]
    fn bulk_operations() {
        let mut a = set(&[1, 2, 3, 100]);
        let b = set(&[2, 3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, set(&[1, 2, 3, 4, 100]));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, set(&[2, 3]));
        a.difference_with(&b);
        assert_eq!(a, set(&[1, 100]));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = NodeSet::with_capacity(1000);
        a.insert(NodeId(1));
        let b = set(&[1]);
        assert_eq!(a, b);
        assert_eq!(b, a);
        a.insert(NodeId(999));
        a.remove(NodeId(999));
        assert_eq!(a, b);
        assert_ne!(a, set(&[2]));
        assert_ne!(set(&[999]), b);
    }

    #[test]
    fn subset_and_intersects() {
        assert!(set(&[1, 64]).is_subset_of(&set(&[1, 2, 64])));
        assert!(!set(&[1, 200]).is_subset_of(&set(&[1, 2])));
        assert!(set(&[64]).intersects(&set(&[64, 65])));
        assert!(!set(&[1]).intersects(&set(&[65])));
        assert!(NodeSet::new().is_subset_of(&set(&[1])));
    }

    #[test]
    fn region_round_trip() {
        let r: Region = [NodeId(9), NodeId(2), NodeId(64)].into_iter().collect();
        let s = NodeSet::from(&r);
        assert_eq!(s.len(), 3);
        assert_eq!(Region::from(&s), r);
        let empty = NodeSet::from(&Region::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.to_region(), Region::empty());
    }

    #[test]
    fn btree_round_trip() {
        let b: BTreeSet<NodeId> = [NodeId(1), NodeId(65)].into();
        let s = NodeSet::from(&b);
        assert_eq!(s.to_btree_set(), b);
    }

    #[test]
    fn clear_keeps_allocation() {
        let mut s = set(&[1, 500]);
        let cap = s.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), cap);
        assert!(!s.contains(NodeId(1)));
    }

    #[test]
    fn display_matches_region_style() {
        assert_eq!(set(&[3, 1]).to_string(), "{n1, n3}");
        assert_eq!(format!("{:?}", set(&[2])), "{n2}");
    }
}
