//! Bounded top-k selection and the exact merge of ranked lists — the
//! building blocks of the query fast path.
//!
//! `AnswerSpec.max_documents` caps every STARTS result list, yet the
//! naive evaluator scored and fully sorted every candidate before
//! truncating. This module provides what lets the engine do only
//! `O(n log k)` work instead:
//!
//! * [`TopK`] — a bounded min-heap that keeps the best `k`
//!   `(doc, score)` pairs under the engine's result order (score
//!   descending via [`f64::total_cmp`], doc id ascending on ties), and
//!   whose floor is the Block-Max-WAND threshold;
//! * [`merge_ranked`] — the bounded k-way merge of per-shard ranked
//!   lists into the global order.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::doc::DocId;

/// A scored document inside the selector. Ordered so that "greater"
/// means "better placed in the result list": higher score first, lower
/// doc id on ties. `f64::total_cmp` makes the order total (NaN cannot
/// poison it).
#[derive(Debug, Clone, Copy)]
struct Entry {
    score: f64,
    doc: DocId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.doc.cmp(&self.doc))
    }
}

/// A bounded top-k selector: push any number of `(doc, score)` pairs,
/// keep only the best `k` under (score descending, doc id ascending).
///
/// ```
/// use starts_index::topk::TopK;
/// use starts_index::DocId;
///
/// let mut top = TopK::new(2);
/// for (doc, score) in [(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.9)] {
///     top.push(DocId(doc), score);
/// }
/// // Best two, ties broken by doc id.
/// assert_eq!(top.into_sorted_vec(), vec![(DocId(1), 0.9), (DocId(3), 0.9)]);
/// ```
#[derive(Debug)]
pub struct TopK {
    k: usize,
    floor: f64,
    heap: BinaryHeap<Reverse<Entry>>,
}

impl TopK {
    /// An empty selector keeping at most `k` entries.
    pub fn new(k: usize) -> Self {
        TopK::with_floor(k, f64::NEG_INFINITY)
    }

    /// A selector that additionally rejects every score strictly below
    /// `floor` (under [`f64::total_cmp`]), even while fewer than `k`
    /// entries are held — how a `min-doc-score` answer threshold seeds
    /// the selection before the heap fills.
    pub fn with_floor(k: usize, floor: f64) -> Self {
        TopK {
            k,
            floor,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offer one scored document.
    pub fn push(&mut self, doc: DocId, score: f64) {
        if !self.accepts(doc, score) {
            return;
        }
        if self.heap.len() == self.k {
            self.heap.pop();
        }
        self.heap.push(Reverse(Entry { score, doc }));
    }

    /// Whether [`TopK::push`] would keep `(doc, score)` right now: the
    /// score clears the floor and either a slot is free or the pair
    /// outranks the worst entry held.
    pub(crate) fn accepts(&self, doc: DocId, score: f64) -> bool {
        if self.k == 0 || score.total_cmp(&self.floor) == Ordering::Less {
            return false;
        }
        self.heap.len() < self.k
            || self
                .heap
                .peek()
                .is_some_and(|worst| Entry { score, doc } > worst.0)
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// The documents currently held, in no particular order.
    pub(crate) fn docs(&self) -> Vec<DocId> {
        self.heap.iter().map(|Reverse(e)| e.doc).collect()
    }

    /// The current selection threshold: any future offer scoring
    /// *strictly* below it cannot enter the result (an equal score may
    /// still win its doc-id tie-break). The heap-floor score once `k`
    /// entries are held, else the score floor (`-inf` without one);
    /// `+inf` for `k = 0`, which accepts nothing. This is the θ the
    /// Block-Max-WAND evaluator prunes against: blocks whose score
    /// upper bound falls strictly below it are skipped undecoded.
    pub fn threshold(&self) -> f64 {
        if self.k == 0 {
            f64::INFINITY
        } else if self.heap.len() == self.k {
            self.heap.peek().map_or(self.floor, |worst| worst.0.score)
        } else {
            self.floor
        }
    }

    /// The kept entries, best first — exactly the first `min(k, n)`
    /// elements a full sort of all pushed pairs would have produced.
    pub fn into_sorted_vec(self) -> Vec<(DocId, f64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|Reverse(e)| (e.doc, e.score))
            .collect()
    }
}

/// Merge per-shard ranked lists — each already sorted by (score
/// descending via [`f64::total_cmp`], doc id ascending) — into one list
/// under the same order, keeping at most `limit` entries when bounded.
///
/// This is the exact-merge step of a sharded search: a bounded k-way
/// heap merge over the list heads, `O(total log s)` for `s` lists, that
/// reproduces precisely the prefix a global sort of the concatenation
/// would have produced.
pub fn merge_ranked(lists: Vec<Vec<(DocId, f64)>>, limit: Option<usize>) -> Vec<(DocId, f64)> {
    let mut lists = lists;
    if lists.len() == 1 {
        let mut only = lists.pop().expect("one list");
        if let Some(k) = limit {
            only.truncate(k);
        }
        return only;
    }
    let total: usize = lists.iter().map(Vec::len).sum();
    let cap = limit.map_or(total, |k| k.min(total));
    let mut heads: Vec<std::vec::IntoIter<(DocId, f64)>> =
        lists.into_iter().map(Vec::into_iter).collect();
    // Max-heap on (Entry, list): pops best-placed entry first; the list
    // index tie-break is unreachable because doc ids are globally unique.
    let mut heap: BinaryHeap<(Entry, usize)> = BinaryHeap::with_capacity(heads.len());
    for (i, stream) in heads.iter_mut().enumerate() {
        if let Some((doc, score)) = stream.next() {
            heap.push((Entry { score, doc }, i));
        }
    }
    let mut out = Vec::with_capacity(cap);
    while out.len() < cap {
        let Some((entry, i)) = heap.pop() else { break };
        out.push((entry.doc, entry.score));
        if let Some((doc, score)) = heads[i].next() {
            heap.push((Entry { score, doc }, i));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sort(pairs: &[(u32, f64)], k: usize) -> Vec<(DocId, f64)> {
        let mut v: Vec<(DocId, f64)> = pairs.iter().map(|&(d, s)| (DocId(d), s)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn top_k_matches_full_sort() {
        let pairs = [
            (4, 0.5),
            (1, 0.9),
            (7, 0.5),
            (0, 0.1),
            (3, 0.9),
            (9, 0.0),
            (2, 0.5),
        ];
        for k in 0..=pairs.len() + 1 {
            let mut top = TopK::new(k);
            for &(d, s) in &pairs {
                top.push(DocId(d), s);
            }
            assert_eq!(top.into_sorted_vec(), full_sort(&pairs, k), "k={k}");
        }
    }

    #[test]
    fn top_k_is_total_on_nan() {
        let mut top = TopK::new(2);
        top.push(DocId(0), f64::NAN);
        top.push(DocId(1), 1.0);
        top.push(DocId(2), 2.0);
        // total_cmp sorts positive NaN above every number.
        let kept = top.into_sorted_vec();
        assert_eq!(kept[0].0, DocId(0));
        assert_eq!(kept[1].0, DocId(2));
    }

    #[test]
    fn merge_ranked_matches_global_sort() {
        let a = vec![(DocId(1), 0.9), (DocId(0), 0.5), (DocId(2), 0.5)];
        let b = vec![(DocId(4), 0.9), (DocId(3), 0.7)];
        let c: Vec<(DocId, f64)> = Vec::new();
        let all: Vec<(DocId, f64)> = a.iter().chain(&b).chain(&c).copied().collect();
        for k in 0..=all.len() + 1 {
            let merged = merge_ranked(vec![a.clone(), b.clone(), c.clone()], Some(k));
            let mut expect = all.clone();
            expect.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            expect.truncate(k);
            assert_eq!(merged, expect, "k={k}");
        }
        let unbounded = merge_ranked(vec![a.clone(), b.clone()], None);
        assert_eq!(unbounded.len(), 5);
        assert_eq!(unbounded[0], (DocId(1), 0.9));
        assert_eq!(unbounded[1], (DocId(4), 0.9));
    }

    #[test]
    fn merge_ranked_single_list_truncates() {
        let a = vec![(DocId(0), 0.9), (DocId(1), 0.1)];
        assert_eq!(
            merge_ranked(vec![a.clone()], Some(1)),
            vec![(DocId(0), 0.9)]
        );
        assert_eq!(merge_ranked(vec![a.clone()], None), a);
        assert!(merge_ranked(Vec::new(), Some(3)).is_empty());
    }
}
