//! The filter cursor algebra: one lazy, two-phase evaluator for Boolean
//! filter expressions (see `docs/performance.md` § Filters inside the
//! pruned loop).
//!
//! A [`BoolNode`] compiles once per query (per shard) into a
//! [`FilterCursor`]: `doc()` / `next_geq(target)` walk an
//! **approximation** of the matching set in doc order — a superset that
//! costs only block-cursor seeks — and `confirm()` settles the one
//! thing the approximation leaves open, the positional predicate of a
//! positively-occurring `prox`. Nothing is materialised: a caller that
//! wants ten documents pays for ten documents.
//!
//! | node      | approximation                       | `confirm`            |
//! |-----------|-------------------------------------|----------------------|
//! | `term`    | union of its keys' block cursors    | always true          |
//! | `cmp`     | forward scan of the stored values   | always true          |
//! | `and`     | leapfrog of both sides              | both sides           |
//! | `or`      | the smaller frontier                | a side sitting on it |
//! | `and-not` | left minus the *confirmed* right    | left                 |
//! | `prox`    | `left ∩ right`                      | the word distance    |
//!
//! The right side of `and-not` is confirmed while advancing: an
//! approximate exclusion would drop documents the filter admits.

use crate::blocks::{BlockCursor, EXHAUSTED};
use crate::boolean::{prox_match, BoolNode};
use crate::doc::DocId;
use crate::engine::{Engine, SpecKeys};
use crate::index::{Index, PostingsList};
use crate::matchspec::{CmpOp, TermSpec};
use crate::schema::{FieldId, ANY_FIELD};

/// A lazy cursor over the documents a filter expression admits.
pub(crate) struct FilterCursor<'a> {
    /// The approximation's frontier; [`EXHAUSTED`] past the end.
    cur: u32,
    /// Whether `confirm` can ever say no (a positional `prox` occurs
    /// positively below this node).
    two_phase: bool,
    advances: u64,
    kind: Kind<'a>,
}

enum Kind<'a> {
    /// Matches nothing (unknown field, unmatched term, `cmp` on `Any`).
    Empty,
    Keys(KeyUnion<'a>),
    Cmp {
        index: &'a Index,
        field: FieldId,
        op: CmpOp,
        query: &'a str,
    },
    And(Box<FilterCursor<'a>>, Box<FilterCursor<'a>>),
    Or(Box<FilterCursor<'a>>, Box<FilterCursor<'a>>),
    AndNot(Box<FilterCursor<'a>>, Box<FilterCursor<'a>>),
    Prox(Box<ProxPair<'a>>),
}

/// The union of one term's resolved vocabulary keys, each walked by its
/// own block cursor. Positions are read at the cursor's own posting —
/// for an unfielded term, whose lists are its field lists, mapped from
/// field-local onto document-global positions.
struct KeyUnion<'a> {
    cursors: Vec<(BlockCursor<'a>, FieldId, PostingsList<'a>)>,
    /// The index to map positions through, for an unfielded term.
    global: Option<&'a Index>,
}

impl<'a> KeyUnion<'a> {
    fn new(engine: &'a Engine, keys: &SpecKeys) -> Self {
        KeyUnion {
            cursors: engine
                .key_lists(keys)
                .map(|(field, l)| (BlockCursor::new(l.blocks()), field, l))
                .collect(),
            global: (keys.field == ANY_FIELD).then(|| engine.index()),
        }
    }

    fn next_geq(&mut self, target: u32) -> u32 {
        // One key is the overwhelmingly common resolution.
        if let [(c, _, _)] = self.cursors.as_mut_slice() {
            c.next_geq(target);
            return c.doc();
        }
        let mut min = EXHAUSTED;
        for (c, _, _) in &mut self.cursors {
            c.next_geq(target);
            min = min.min(c.doc());
        }
        min
    }

    /// Sorted positions of the term in `doc` (which must be the current
    /// frontier), decoded into `buf`: the one key's, or every key's
    /// merged.
    fn positions<'b>(&mut self, doc: u32, buf: &'b mut Vec<u32>) -> &'b [u32] {
        buf.clear();
        for (c, field, list) in &mut self.cursors {
            if c.doc() == doc {
                let start = buf.len();
                list.cursor_positions_into(c, buf);
                if let Some(index) = self.global {
                    index.to_global_positions(DocId(doc), *field, &mut buf[start..]);
                }
            }
        }
        if self.cursors.len() > 1 {
            buf.sort_unstable();
        }
        buf
    }
}

/// The two sides of a `prox` and its predicate.
struct ProxPair<'a> {
    left: KeyUnion<'a>,
    right: KeyUnion<'a>,
    distance: u32,
    ordered: bool,
    checks: u64,
    lbuf: Vec<u32>,
    rbuf: Vec<u32>,
}

impl Engine {
    /// Compile a filter expression into its cursor, positioned on the
    /// first document of the approximation.
    pub(crate) fn filter_cursor<'a>(&'a self, node: &'a BoolNode) -> FilterCursor<'a> {
        let (kind, two_phase) = match node {
            BoolNode::Term(spec) => (self.term_kind(spec), false),
            BoolNode::And(a, b) => {
                let (a, b) = (self.filter_cursor(a), self.filter_cursor(b));
                let two_phase = a.two_phase || b.two_phase;
                (Kind::And(Box::new(a), Box::new(b)), two_phase)
            }
            BoolNode::Or(a, b) => {
                let (a, b) = (self.filter_cursor(a), self.filter_cursor(b));
                let two_phase = a.two_phase || b.two_phase;
                (Kind::Or(Box::new(a), Box::new(b)), two_phase)
            }
            BoolNode::AndNot(a, b) => {
                let (a, b) = (self.filter_cursor(a), self.filter_cursor(b));
                let two_phase = a.two_phase;
                (Kind::AndNot(Box::new(a), Box::new(b)), two_phase)
            }
            BoolNode::Prox {
                left,
                right,
                distance,
                ordered,
            } => return self.prox_cursor(left, right, *distance, *ordered),
        };
        FilterCursor::positioned(kind, two_phase)
    }

    /// The cursor of `left prox[distance, ordered] right`. Both the
    /// filter operator and the ranking operator's positional test
    /// compile to this.
    pub(crate) fn prox_cursor<'a>(
        &'a self,
        left: &TermSpec,
        right: &TermSpec,
        distance: u32,
        ordered: bool,
    ) -> FilterCursor<'a> {
        // `prox` matches on the inverted index whatever the specs say
        // about comparisons, and an unknown field on either side
        // matches nothing.
        let (Some(l), Some(r)) = (self.resolve_spec(left), self.resolve_spec(right)) else {
            return FilterCursor::positioned(Kind::Empty, false);
        };
        let pair = ProxPair {
            left: KeyUnion::new(self, &l),
            right: KeyUnion::new(self, &r),
            distance,
            ordered,
            checks: 0,
            lbuf: Vec::new(),
            rbuf: Vec::new(),
        };
        // Without a positional store `prox` is plain co-occurrence (the
        // §4.1.1-sanctioned relaxation): the approximation is exact.
        FilterCursor::positioned(Kind::Prox(Box::new(pair)), self.index().has_positions())
    }

    fn term_kind<'a>(&'a self, spec: &'a TermSpec) -> Kind<'a> {
        if let Some(op) = spec.cmp {
            // Comparison modifiers match on stored field values, not
            // the inverted index, and need a concrete field.
            return match self.resolve_field(spec) {
                Some(field) if field != ANY_FIELD => Kind::Cmp {
                    index: self.index(),
                    field,
                    op,
                    query: spec.term.trim(),
                },
                _ => Kind::Empty,
            };
        }
        match self.resolve_spec(spec) {
            Some(keys) => Kind::Keys(KeyUnion::new(self, &keys)),
            None => Kind::Empty,
        }
    }
}

/// The first document at or past `target` that both sides reach, each
/// side given as its `next_geq`.
fn leapfrog(target: u32, mut a: impl FnMut(u32) -> u32, mut b: impl FnMut(u32) -> u32) -> u32 {
    let mut d = a(target);
    while d != EXHAUSTED {
        let e = b(d);
        if e == d {
            break;
        }
        d = a(e);
    }
    d
}

impl<'a> FilterCursor<'a> {
    fn positioned(kind: Kind<'a>, two_phase: bool) -> Self {
        let mut cursor = FilterCursor {
            cur: 0,
            two_phase,
            advances: 0,
            kind,
        };
        cursor.cur = cursor.seek(0);
        cursor
    }

    /// The current document of the approximation, or [`EXHAUSTED`].
    #[inline]
    pub(crate) fn doc(&self) -> u32 {
        self.cur
    }

    /// Move to the first approximate match at or past `target` and
    /// return it. A target at or before the current document is a
    /// no-op.
    #[inline]
    pub(crate) fn next_geq(&mut self, target: u32) -> u32 {
        if target > self.cur {
            self.advances += 1;
            self.cur = self.seek(target);
        }
        self.cur
    }

    /// Step past the current document.
    pub(crate) fn next(&mut self) -> u32 {
        self.next_geq(self.cur.saturating_add(1))
    }

    /// The first approximate match at or past `target`, children moved
    /// as far as that takes.
    fn seek(&mut self, target: u32) -> u32 {
        match &mut self.kind {
            Kind::Empty => EXHAUSTED,
            Kind::Keys(keys) => keys.next_geq(target),
            Kind::Cmp {
                index,
                field,
                op,
                query,
            } => (target..index.n_docs())
                .find(|&d| {
                    index
                        .doc_field(DocId(d), *field)
                        .is_some_and(|stored| op.test(stored.trim().cmp(query)))
                })
                .unwrap_or(EXHAUSTED),
            Kind::And(a, b) => leapfrog(target, |t| a.next_geq(t), |t| b.next_geq(t)),
            Kind::Or(a, b) => a.next_geq(target).min(b.next_geq(target)),
            Kind::AndNot(a, b) => {
                let mut d = a.next_geq(target);
                while d != EXHAUSTED && b.next_geq(d) == d && b.confirm() {
                    d = a.next();
                }
                d
            }
            Kind::Prox(p) => {
                let ProxPair { left, right, .. } = &mut **p;
                leapfrog(target, |t| left.next_geq(t), |t| right.next_geq(t))
            }
        }
    }

    /// Whether the filter really admits the current document — the
    /// second phase. Free unless a positional `prox` is involved.
    pub(crate) fn confirm(&mut self) -> bool {
        if !self.two_phase {
            return self.cur != EXHAUSTED;
        }
        let cur = self.cur;
        match &mut self.kind {
            Kind::And(a, b) => a.confirm() && b.confirm(),
            Kind::Or(a, b) => (a.cur == cur && a.confirm()) || (b.cur == cur && b.confirm()),
            Kind::AndNot(a, _) => a.confirm(),
            Kind::Prox(p) => {
                let p = &mut **p;
                p.checks += 1;
                prox_match(
                    p.left.positions(cur, &mut p.lbuf),
                    p.right.positions(cur, &mut p.rbuf),
                    p.distance,
                    p.ordered,
                )
            }
            Kind::Empty | Kind::Keys(_) | Kind::Cmp { .. } => unreachable!("single-phase leaf"),
        }
    }

    /// Whether the filter admits `doc`. Documents must be asked about
    /// in increasing order.
    pub(crate) fn matches(&mut self, doc: DocId) -> bool {
        self.next_geq(doc.0) == doc.0 && self.confirm()
    }

    /// The next `limit` admitted documents, in doc order.
    pub(crate) fn take(&mut self, limit: usize) -> Vec<DocId> {
        let mut out = Vec::new();
        while out.len() < limit && self.cur != EXHAUSTED {
            if self.confirm() {
                out.push(DocId(self.cur));
            }
            self.next();
        }
        out
    }

    /// Times this cursor has moved.
    pub(crate) fn advances(&self) -> u64 {
        self.advances
    }

    /// `prox` position-list comparisons made so far, anywhere below.
    pub(crate) fn positional_checks(&self) -> u64 {
        match &self.kind {
            Kind::Empty | Kind::Cmp { .. } | Kind::Keys(_) => 0,
            Kind::And(a, b) | Kind::Or(a, b) | Kind::AndNot(a, b) => {
                a.positional_checks() + b.positional_checks()
            }
            Kind::Prox(p) => p.checks,
        }
    }
}
