//! Boolean filter evaluation: `and`, `or`, `and-not`, `prox`.
//!
//! §4.1.1: "If a source supports filter expressions, it must support all
//! these operators." Note there is deliberately **no** `not` operator —
//! "all queries always have a 'positive' component" — so the engine only
//! implements the binary `and-not`. The proximity operator is the
//! simplified compromise the workshop settled on: "unidirectional word
//! distance" (Example 3: `(t1 prox[3,T] t2)` means t1 followed by t2 with
//! at most three words in between; `T` makes order matter).

use crate::doc::DocId;
use crate::matchspec::TermSpec;

/// A Boolean filter-expression tree at the engine level.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolNode {
    /// A single term match.
    Term(TermSpec),
    /// Both sides must match.
    And(Box<BoolNode>, Box<BoolNode>),
    /// Either side matches.
    Or(Box<BoolNode>, Box<BoolNode>),
    /// Left matches and right does not.
    AndNot(Box<BoolNode>, Box<BoolNode>),
    /// The two terms co-occur within `distance` intervening words.
    /// `ordered` = the paper's `T` flag: left must precede right.
    Prox {
        /// Left term.
        left: TermSpec,
        /// Right term.
        right: TermSpec,
        /// Maximum number of words *between* the two terms.
        distance: u32,
        /// Whether left must appear before right.
        ordered: bool,
    },
}

impl BoolNode {
    /// Convenience constructor: `a and b`.
    pub fn and(a: BoolNode, b: BoolNode) -> Self {
        BoolNode::And(Box::new(a), Box::new(b))
    }
    /// Convenience constructor: `a or b`.
    pub fn or(a: BoolNode, b: BoolNode) -> Self {
        BoolNode::Or(Box::new(a), Box::new(b))
    }
    /// Convenience constructor: `a and-not b`.
    pub fn and_not(a: BoolNode, b: BoolNode) -> Self {
        BoolNode::AndNot(Box::new(a), Box::new(b))
    }

    /// All term specs in the tree (for capability checks and statistics).
    pub fn terms(&self) -> Vec<&TermSpec> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a TermSpec>) {
        match self {
            BoolNode::Term(t) => out.push(t),
            BoolNode::And(a, b) | BoolNode::Or(a, b) | BoolNode::AndNot(a, b) => {
                a.collect_terms(out);
                b.collect_terms(out);
            }
            BoolNode::Prox { left, right, .. } => {
                out.push(left);
                out.push(right);
            }
        }
    }
}

/// Intersect two sorted doc-id lists. The three set operations serve
/// the reference evaluator (`engine/oracle.rs`) only: filters run on the
/// cursor algebra of `filter.rs`.
pub(crate) fn intersect(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Union two sorted doc-id lists.
pub(crate) fn union(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `a \ b` over sorted doc-id lists.
pub(crate) fn difference(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0;
    for &d in a {
        while j < b.len() && b[j] < d {
            j += 1;
        }
        if j >= b.len() || b[j] != d {
            out.push(d);
        }
    }
    out
}

/// Whether two sorted position lists satisfy the prox condition:
/// some pair has at most `distance` words between the occurrences, with
/// left-before-right when `ordered`.
pub(crate) fn prox_match(left: &[u32], right: &[u32], distance: u32, ordered: bool) -> bool {
    // Positions are word indices; "at most d words in between" means
    // |p_r - p_l| - 1 <= d, i.e. |p_r - p_l| <= d + 1 (and p_r != p_l).
    let max_gap = u64::from(distance) + 1;
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let (l, r) = (u64::from(left[i]), u64::from(right[j]));
        if l == r {
            // Same position can only happen for the same token; not a
            // pair of distinct words. Each side's nearest distinct
            // partner is the other side's next position, so test both
            // before leaving this one: stepping only one side would
            // lose `(left[i], right[j + 1])`.
            let follows = |list: &[u32], from: usize| {
                list[from..]
                    .iter()
                    .map(|&p| u64::from(p))
                    .find(|&p| p > l)
                    .is_some_and(|p| p - l <= max_gap)
            };
            if follows(right, j) || (!ordered && follows(left, i)) {
                return true;
            }
            i += 1;
            j += 1;
            continue;
        }
        if l < r {
            if r - l <= max_gap {
                return true;
            }
            i += 1;
        } else {
            if !ordered && l - r <= max_gap {
                return true;
            }
            j += 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<DocId> {
        v.iter().map(|&x| DocId(x)).collect()
    }

    #[test]
    fn set_operations() {
        let a = ids(&[1, 3, 5, 7]);
        let b = ids(&[3, 4, 5, 8]);
        assert_eq!(intersect(&a, &b), ids(&[3, 5]));
        assert_eq!(union(&a, &b), ids(&[1, 3, 4, 5, 7, 8]));
        assert_eq!(difference(&a, &b), ids(&[1, 7]));
        assert_eq!(difference(&b, &a), ids(&[4, 8]));
    }

    #[test]
    fn set_operations_edge_cases() {
        let a = ids(&[1, 2]);
        let empty: Vec<DocId> = vec![];
        assert_eq!(intersect(&a, &empty), empty);
        assert_eq!(union(&a, &empty), a);
        assert_eq!(difference(&a, &empty), a);
        assert_eq!(difference(&empty, &a), empty);
        assert_eq!(intersect(&a, &a), a);
        assert_eq!(union(&a, &a), a);
        assert!(difference(&a, &a).is_empty());
    }

    #[test]
    fn prox_example_3_semantics() {
        // (t1 prox[3,T] t2): t1 followed by t2, at most 3 words between.
        assert!(prox_match(&[0], &[4], 3, true)); // 3 words between
        assert!(!prox_match(&[0], &[5], 3, true)); // 4 words between
        assert!(prox_match(&[0], &[1], 3, true)); // adjacent
        assert!(!prox_match(&[4], &[0], 3, true)); // wrong order
        assert!(prox_match(&[4], &[0], 3, false)); // unordered ok
    }

    #[test]
    fn prox_scans_all_pairs() {
        // Early left positions fail but a later one succeeds.
        assert!(prox_match(&[0, 50], &[54], 3, true));
        assert!(!prox_match(&[0, 50], &[100], 3, true));
        // Multiple rights.
        assert!(prox_match(&[10], &[2, 12], 1, true));
    }

    #[test]
    fn prox_distance_zero_means_adjacent() {
        assert!(prox_match(&[0], &[1], 0, true));
        assert!(!prox_match(&[0], &[2], 0, true));
    }

    #[test]
    fn prox_shared_positions_keep_their_successors() {
        // `a x a`: the term at 0 is followed by itself at 2, one word
        // between — a match the shared position 0 must not swallow.
        assert!(prox_match(&[0, 2], &[0, 2], 8, true));
        assert!(prox_match(&[0, 2], &[0, 2], 1, false));
        assert!(!prox_match(&[0, 2], &[0, 2], 0, false));
        // A lone shared position is no pair at all.
        assert!(!prox_match(&[3], &[3], 8, false));
        // Overlapping key sets (stem expansions): only the successor on
        // the right side counts when order matters.
        assert!(prox_match(&[4], &[4, 6], 1, true));
        assert!(!prox_match(&[4, 6], &[4], 1, true));
        assert!(prox_match(&[4, 6], &[4], 1, false));
    }

    /// Every pair, the slow way.
    fn prox_pairs(left: &[u32], right: &[u32], distance: u32, ordered: bool) -> bool {
        left.iter().any(|&l| {
            right.iter().any(|&r| {
                let (l, r) = (u64::from(l), u64::from(r));
                l != r && l.abs_diff(r) <= u64::from(distance) + 1 && (!ordered || l < r)
            })
        })
    }

    proptest::proptest! {
        #[test]
        fn prox_match_is_the_pair_scan(
            mut left in proptest::collection::vec(0u32..40, 0..12),
            mut right in proptest::collection::vec(0u32..40, 0..12),
            distance in 0u32..6,
            ordered in proptest::prelude::any::<bool>(),
        ) {
            // Sorted, shared positions likely, repeats allowed.
            left.sort_unstable();
            right.sort_unstable();
            proptest::prop_assert_eq!(
                prox_match(&left, &right, distance, ordered),
                prox_pairs(&left, &right, distance, ordered),
                "left={:?} right={:?} d={} ordered={}", left, right, distance, ordered
            );
        }
    }

    #[test]
    fn terms_collection() {
        let n = BoolNode::and(
            BoolNode::Term(TermSpec::fielded("author", "Ullman")),
            BoolNode::Prox {
                left: TermSpec::any("distributed"),
                right: TermSpec::any("databases"),
                distance: 3,
                ordered: true,
            },
        );
        let terms = n.terms();
        assert_eq!(terms.len(), 3);
        assert_eq!(terms[0].term, "Ullman");
        assert_eq!(terms[2].term, "databases");
    }
}
