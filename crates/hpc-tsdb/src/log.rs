//! Append-only shared log: the storage behind a series' sealed chunks,
//! its rollup buckets and its quarantine list.
//!
//! Elements live in frozen, fixed-size `Arc<[T]>` blocks plus one short
//! mutable tail. When the tail reaches [`BLOCK_LEN`] elements it is frozen
//! into a new block, so every block except the tail is full and immutable.
//! The list of blocks is itself behind one `Arc`: cloning a log bumps that
//! one refcount and copies only the tail, so a published
//! [`crate::ReadView`] shares all sealed history with the live series and
//! publication costs O(tail), not O(history). Pushing onto either side
//! afterwards touches only that side's tail; a freeze on a log whose block
//! list is shared first copies the list (one refcount bump per block, once
//! per [`BLOCK_LEN`] pushes), so a clone never observes the other's later
//! pushes.

use std::ops::{Index, Range};
use std::sync::Arc;

/// Elements per frozen block. A clone copies at most `BLOCK_LEN - 1`
/// tail elements; a log of `n` elements holds `n / BLOCK_LEN` blocks.
pub const BLOCK_LEN: usize = 64;

/// An append-only sequence of `T` whose history is shared between clones.
#[derive(Debug, Clone)]
pub struct Log<T> {
    /// Frozen blocks, oldest first; each holds exactly [`BLOCK_LEN`]
    /// elements. Shared between clones until one of them freezes a block.
    blocks: Arc<Vec<Arc<[T]>>>,
    /// Elements not yet frozen (always fewer than [`BLOCK_LEN`]).
    tail: Vec<T>,
}

impl<T> Default for Log<T> {
    fn default() -> Self {
        Log { blocks: Arc::new(Vec::new()), tail: Vec::new() }
    }
}

impl<T> Log<T> {
    /// An empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.blocks.len() * BLOCK_LEN + self.tail.len()
    }

    /// Whether the log holds no elements.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.tail.is_empty()
    }

    /// Append one element, freezing the tail into a new block when it
    /// fills.
    pub(crate) fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == BLOCK_LEN {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(BLOCK_LEN));
            Arc::make_mut(&mut self.blocks).push(full.into());
        }
    }

    /// The frozen blocks, oldest first. Clones of a log share these
    /// allocations until either side is rebuilt.
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> &[Arc<[T]>] {
        &self.blocks
    }

    /// The first element.
    pub(crate) fn first(&self) -> Option<&T> {
        self.blocks.first().map(|b| &b[0]).or_else(|| self.tail.first())
    }

    /// The last element.
    pub(crate) fn last(&self) -> Option<&T> {
        self.tail.last().or_else(|| self.blocks.last().map(|b| &b[BLOCK_LEN - 1]))
    }

    /// Elements in order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.range(0..self.len())
    }

    /// Elements at positions `r` (clamped to the log), in order. Costs
    /// O(1) to position, independent of how much history precedes `r`.
    pub(crate) fn range(&self, r: Range<usize>) -> Iter<'_, T> {
        let end = r.end.min(self.len());
        let start = r.start.min(end);
        let sealed = self.blocks.len() * BLOCK_LEN;
        let remaining = end - start;
        if start < sealed {
            let b = start / BLOCK_LEN;
            Iter {
                front: self.blocks[b][start % BLOCK_LEN..].iter(),
                blocks: self.blocks[b + 1..].iter(),
                tail: &self.tail,
                remaining,
            }
        } else {
            Iter { front: self.tail[start - sealed..].iter(), blocks: [].iter(), tail: &[], remaining }
        }
    }

    /// The index of the first element for which `pred` is false, assuming
    /// the log is partitioned by `pred` (every `true` before every
    /// `false`), as [`slice::partition_point`]. Binary search over the
    /// blocks' last elements, then within one block: O(log n).
    pub(crate) fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let b = self.blocks.partition_point(|blk| pred(&blk[BLOCK_LEN - 1]));
        match self.blocks.get(b) {
            Some(blk) => b * BLOCK_LEN + blk.partition_point(pred),
            None => b * BLOCK_LEN + self.tail.partition_point(pred),
        }
    }
}

impl<T: Clone> Log<T> {
    /// Copy the elements out into a `Vec`, in order.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }
}

impl<T: Clone> From<Vec<T>> for Log<T> {
    /// Rebuild a log from elements in order (compaction, snapshot
    /// recovery). The result shares nothing with any earlier log.
    fn from(v: Vec<T>) -> Self {
        let blocks = v.chunks_exact(BLOCK_LEN).map(Arc::from).collect();
        let tail = v.chunks_exact(BLOCK_LEN).remainder().to_vec();
        Log { blocks: Arc::new(blocks), tail }
    }
}

impl<T> Index<usize> for Log<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        let sealed = self.blocks.len() * BLOCK_LEN;
        if i < sealed {
            &self.blocks[i / BLOCK_LEN][i % BLOCK_LEN]
        } else {
            &self.tail[i - sealed]
        }
    }
}

impl<'a, T> IntoIterator for &'a Log<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// In-order iterator over a [`Log`] (or a range of it).
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    /// The slice currently being walked.
    front: std::slice::Iter<'a, T>,
    /// Whole blocks still to walk after `front`.
    blocks: std::slice::Iter<'a, Arc<[T]>>,
    /// The tail, walked after `blocks` (emptied once taken).
    tail: &'a [T],
    /// Elements left to yield.
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if let Some(x) = self.front.next() {
                self.remaining -= 1;
                return Some(x);
            }
            self.front = match self.blocks.next() {
                Some(b) => b.iter(),
                None if !self.tail.is_empty() => std::mem::take(&mut self.tail).iter(),
                None => return None,
            };
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    fn count(self) -> usize {
        self.remaining
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(n: usize) -> Log<usize> {
        let mut log = Log::new();
        for i in 0..n {
            log.push(i);
        }
        log
    }

    #[test]
    fn pushes_freeze_full_tails_into_blocks() {
        for n in [0, 1, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 3 * BLOCK_LEN + 17] {
            let log = log_of(n);
            assert_eq!(log.len(), n);
            assert_eq!(log.is_empty(), n == 0);
            assert_eq!(log.blocks().len(), n / BLOCK_LEN, "n = {n}");
            assert!(log.blocks().iter().all(|b| b.len() == BLOCK_LEN));
            assert_eq!(log.first(), (n > 0).then_some(&0));
            assert_eq!(log.last(), n.checked_sub(1).as_ref());
        }
    }

    #[test]
    fn iter_and_index_follow_push_order() {
        let n = 2 * BLOCK_LEN + 5;
        let log = log_of(n);
        assert!(log.iter().copied().eq(0..n));
        assert_eq!(log.iter().len(), n);
        for i in 0..n {
            assert_eq!(log[i], i);
        }
        assert_eq!((&log).into_iter().count(), n);
        // Ranges starting in a block, on a block boundary, in the tail,
        // and past the end.
        for (lo, hi) in [
            (3, BLOCK_LEN + 9),
            (BLOCK_LEN, 2 * BLOCK_LEN),
            (2 * BLOCK_LEN + 1, n),
            (n - 1, n + 40),
            (n + 3, n + 9),
            (7, 7),
        ] {
            let want: Vec<usize> = (lo.min(n)..hi.min(n)).collect();
            assert_eq!(log.range(lo..hi).copied().collect::<Vec<_>>(), want, "{lo}..{hi}");
            assert_eq!(log.range(lo..hi).len(), want.len());
        }
    }

    #[test]
    fn partition_point_matches_the_slice_search() {
        let n = 3 * BLOCK_LEN + 11;
        let log = log_of(n);
        let flat: Vec<usize> = (0..n).collect();
        for cut in [0, 1, BLOCK_LEN - 1, BLOCK_LEN, 2 * BLOCK_LEN + 3, 3 * BLOCK_LEN, n - 1, n, n + 5] {
            assert_eq!(log.partition_point(|&x| x < cut), flat.partition_point(|&x| x < cut));
        }
        assert_eq!(Log::<usize>::new().partition_point(|_| true), 0);
    }

    #[test]
    fn from_vec_round_trips() {
        for n in [0, 5, BLOCK_LEN, 2 * BLOCK_LEN + 77] {
            let v: Vec<usize> = (0..n).collect();
            let mut log = Log::from(v.clone());
            assert_eq!(log.to_vec(), v);
            assert_eq!(log.blocks().len(), n / BLOCK_LEN);
            // A rebuilt log keeps appending like a pushed one.
            for i in n..n + BLOCK_LEN {
                log.push(i);
            }
            assert!(log.iter().copied().eq(0..n + BLOCK_LEN));
            assert_eq!(log.blocks().len(), (n + BLOCK_LEN) / BLOCK_LEN);
        }
    }

    #[test]
    fn clones_share_blocks_and_never_see_each_others_pushes() {
        let n = 2 * BLOCK_LEN + 3;
        let mut original = log_of(n);
        let mut copy = original.clone();
        for (a, b) in original.blocks().iter().zip(copy.blocks()) {
            assert!(Arc::ptr_eq(a, b), "a clone shares every frozen block");
        }
        // Push the clone past a block boundary: the original is untouched.
        for i in 0..BLOCK_LEN {
            copy.push(1000 + i);
        }
        assert_eq!(original.len(), n);
        assert!(original.iter().copied().eq(0..n));
        assert_eq!(copy.len(), n + BLOCK_LEN);
        // And the reverse: pushes onto the original never reach the clone.
        original.push(7);
        assert_eq!(original.len(), n + 1);
        assert_eq!(copy[n], 1000);
        assert_eq!(original[n], 7);
        assert!(copy.iter().take(n).copied().eq(0..n));
    }
}
