//! Lazily sorted node rankings: a planner's strongest-first order, sorted
//! only as deep as the planner reads it.
//!
//! Algorithm 1 ranks every node and then takes nodes from the head of the
//! ranking until throughput stops rising; the sweep reference cuts its
//! per-site lists to a saturation budget. Both read a few dozen to a
//! thousand entries of a ranking that may hold 10⁶, so a [`NodeRanking`]
//! sorts its head on demand instead of the whole catalog up front.

use crate::resource::NodeId;
use std::cmp::Reverse;

/// How many entries the first read sorts. Every later extension at least
/// doubles the sorted head, so reading `k` entries runs about
/// `log2(k / FIRST_CHUNK)` selections over the unread entries.
const FIRST_CHUNK: usize = 256;

/// The rank order of `(key, id)` entries: key descending, ties to the
/// lower id.
pub(crate) fn rank(&(key, id): &(u64, NodeId)) -> (Reverse<u64>, NodeId) {
    (Reverse(key), id)
}

/// Node ids ranked by a `u64` key, highest key first, ties to the lower
/// id — the order `sort_unstable_by_key` on `(Reverse(key), id)` gives —
/// sorted only as deep as it has been read.
///
/// A read past the sorted head extends it: a `select_nth_unstable` over
/// the unread entries moves the next chunk in front of them, then only
/// that chunk is sorted. A read that reaches the last entry sorts the
/// rest in one plain sort. Because the id breaks every tie, no two
/// entries of distinct ids rank equal, so every prefix read here is the
/// prefix of the full sort, bit for bit.
///
/// [`Platform::rank_by_power`](crate::Platform::rank_by_power) builds the
/// strongest-first ranking; a planner with its own key (the heuristic's
/// scheduling power) builds one with [`NodeRanking::new`].
#[derive(Debug, Clone)]
pub struct NodeRanking {
    /// Every `(key, id)` entry. `entries[..head.len()]` is in rank order;
    /// every entry after it ranks below all of those, in no set order.
    entries: Vec<(u64, NodeId)>,
    /// The ids of the sorted head, in rank order.
    head: Vec<NodeId>,
}

impl NodeRanking {
    /// A ranking of `(key, id)` entries, highest key first, ties to the
    /// lower id. Nothing is sorted until the first read.
    pub fn new(entries: Vec<(u64, NodeId)>) -> Self {
        Self {
            entries,
            head: Vec::new(),
        }
    }

    /// Number of ranked ids.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the ranking holds no id.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The id at rank `i` (0 is the highest key), or `None` past the end.
    pub fn get(&mut self, i: usize) -> Option<NodeId> {
        self.sort_to(i.saturating_add(1));
        self.head.get(i).copied()
    }

    /// The first `m` ids in rank order; the whole ranking when `m` is
    /// past its length.
    pub fn prefix(&mut self, m: usize) -> &[NodeId] {
        self.sort_to(m);
        &self.head[..m.min(self.head.len())]
    }

    /// The ids in rank order, each sorted when the iterator reaches it.
    pub fn iter(&mut self) -> impl Iterator<Item = NodeId> + '_ {
        let mut i = 0;
        std::iter::from_fn(move || {
            let id = self.get(i)?;
            i += 1;
            Some(id)
        })
    }

    /// Sorts the head to at least `m` entries (all of them when `m` is
    /// past the length).
    fn sort_to(&mut self, m: usize) {
        let sorted = self.head.len();
        let n = self.entries.len();
        if m <= sorted || sorted == n {
            return;
        }
        let end = m.max(2 * sorted).max(FIRST_CHUNK).min(n);
        let unread = &mut self.entries[sorted..];
        if end == n {
            unread.sort_unstable_by_key(rank);
        } else {
            let (chunk, _, _) = unread.select_nth_unstable_by_key(end - sorted - 1, rank);
            chunk.sort_unstable_by_key(rank);
        }
        self.head
            .extend(self.entries[sorted..end].iter().map(|&(_, id)| id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` entries over `distinct` keys, ids dealt in a scrambled order.
    fn entries(n: u32, distinct: u64) -> Vec<(u64, NodeId)> {
        (0..n)
            .map(|i| {
                let id = (i * 7919) % n.max(1);
                (
                    u64::from(id).wrapping_mul(2_654_435_761) % distinct,
                    NodeId(id),
                )
            })
            .collect()
    }

    fn full_sort(mut e: Vec<(u64, NodeId)>) -> Vec<NodeId> {
        e.sort_unstable_by_key(rank);
        e.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn every_read_matches_the_full_sort_across_chunk_boundaries() {
        for n in [0u32, 1, 255, 256, 257, 1000] {
            for distinct in [1u64, 4, 1 << 40] {
                let want = full_sort(entries(n, distinct));
                let mut r = NodeRanking::new(entries(n, distinct));
                assert_eq!(r.len(), n as usize);
                for i in [0usize, 0, 3, 255, 256, 256, 257, 600, 999, 1000, 5000] {
                    assert_eq!(r.get(i), want.get(i).copied(), "n={n} d={distinct} i={i}");
                }
                assert_eq!(r.prefix(usize::MAX), want, "n={n} d={distinct}");
                assert_eq!(r.get(usize::MAX), None);
            }
        }
    }

    #[test]
    fn a_short_read_sorts_only_a_chunk() {
        let mut r = NodeRanking::new(entries(100_000, 1 << 40));
        assert!(r.head.is_empty(), "nothing is sorted before the first read");
        r.get(0);
        assert_eq!(r.head.len(), FIRST_CHUNK);
        r.get(FIRST_CHUNK);
        assert_eq!(
            r.head.len(),
            2 * FIRST_CHUNK,
            "an extension doubles the head"
        );
        assert_eq!(r.prefix(10_000).len(), 10_000);
        assert_eq!(r.head.len(), 10_000, "a long read sorts what it asks for");
        assert_eq!(r.iter().count(), 100_000);
    }
}
