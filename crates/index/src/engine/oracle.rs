//! Reference evaluators — the oracles the property suites hold the real
//! ones to, and nothing a query path calls.
//!
//! * [`Engine::eval_filter_sets`]: Boolean filters by set algebra —
//!   every sub-expression materialised as a sorted `Vec<DocId>`, `prox`
//!   checked by a point lookup per document. The cursor algebra in
//!   `filter.rs` must drain to exactly these sets.
//! * [`Engine::eval_ranking_naive`] / [`Engine::search_naive`]: ranking
//!   by a per-document recursive tree walk over every candidate and a
//!   full sort. The top-k, pruned and sharded paths must return exactly
//!   its prefixes.
//! * [`Engine::scanned_keys`]: term resolution as it was before the fold
//!   table — every spec that is not a direct lookup walks the
//!   vocabulary with [`TermSpec::vocab_predicate`]. Both evaluators
//!   above resolve their terms this way, so they also hold the fold-table
//!   lookup to the walk it replaced.

use super::*;
use crate::boolean::{difference, intersect, prox_match, union};

impl Engine {
    /// The vocabulary keys a spec resolves to on the query path
    /// (`None` when the schema lacks its field).
    #[doc(hidden)]
    pub fn resolved_keys(&self, spec: &TermSpec) -> Option<Vec<String>> {
        let field = self.resolve_field(spec)?;
        Some(self.resolve_keys(field, spec))
    }

    /// [`Engine::resolved_keys`] by the reference resolution: every spec
    /// that needs more than a direct lookup walks the vocabulary.
    #[doc(hidden)]
    pub fn scanned_keys(&self, spec: &TermSpec) -> Option<Vec<String>> {
        let field = self.resolve_field(spec)?;
        Some(self.scanning_keys(field, spec))
    }

    fn scanning_keys(&self, field: FieldId, spec: &TermSpec) -> Vec<String> {
        let cfg = self.index.analyzer().config();
        if spec.needs_scan(cfg.stem, cfg.case) {
            self.scan_keys(field, spec)
        } else {
            self.resolve_keys(field, spec)
        }
    }

    /// The pre-fast-path evaluator: per-document recursive tree walk over
    /// a candidate set built by repeated two-way unions, followed by a
    /// full sort. Kept as the reference implementation — the property
    /// tests compare the fast path against it, and `x14_hotpath` uses it
    /// as the baseline the top-k pipeline is measured against.
    pub fn eval_ranking_naive(&self, node: &RankNode) -> Vec<(DocId, f64)> {
        let node = &*self.effective_ranking(node);
        // Candidate docs: any doc matching any leaf term.
        let mut candidates: Vec<DocId> = Vec::new();
        for spec in node.terms() {
            candidates = union(&candidates, &self.eval_term(spec));
        }
        let mut scores: Vec<(DocId, f64)> = candidates
            .into_iter()
            .map(|doc| (doc, self.score_node(node, doc)))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        self.ranking.finalize(&mut scores);
        scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scores
    }

    /// [`Engine::search`] the slow way: the filter set by set algebra,
    /// every member scored by the per-document walk (zero scores kept —
    /// the filter decides membership), one `finalize`, one full sort.
    #[doc(hidden)]
    pub fn search_naive(&self, filter: Option<&BoolNode>, ranking: Option<&RankNode>) -> Vec<Hit> {
        let scores = match (filter, ranking) {
            (None, None) => return Vec::new(),
            (Some(f), None) => {
                return self
                    .eval_filter_sets(f)
                    .into_iter()
                    .map(|doc| Hit { doc, score: None })
                    .collect()
            }
            (None, Some(r)) => self.eval_ranking_naive(r),
            (Some(f), Some(r)) => {
                let node = &*self.effective_ranking(r);
                let mut scores: Vec<(DocId, f64)> = self
                    .eval_filter_sets(f)
                    .into_iter()
                    .map(|doc| (doc, self.score_node(node, doc)))
                    .collect();
                self.ranking.finalize(&mut scores);
                scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                scores
            }
        };
        scores
            .into_iter()
            .map(|(doc, score)| Hit {
                doc,
                score: Some(score),
            })
            .collect()
    }

    /// Evaluate a Boolean filter expression by set algebra.
    #[doc(hidden)]
    pub fn eval_filter_sets(&self, node: &BoolNode) -> Vec<DocId> {
        match node {
            BoolNode::Term(spec) => self.eval_term(spec),
            BoolNode::And(a, b) => intersect(&self.eval_filter_sets(a), &self.eval_filter_sets(b)),
            BoolNode::Or(a, b) => union(&self.eval_filter_sets(a), &self.eval_filter_sets(b)),
            BoolNode::AndNot(a, b) => {
                difference(&self.eval_filter_sets(a), &self.eval_filter_sets(b))
            }
            BoolNode::Prox {
                left,
                right,
                distance,
                ordered,
            } => self.eval_prox(left, right, *distance, *ordered),
        }
    }

    /// Docs matching a term spec (sorted).
    fn eval_term(&self, spec: &TermSpec) -> Vec<DocId> {
        // Comparison modifiers match on stored field values, not the
        // inverted index (dates and the like).
        if let Some(op) = spec.cmp {
            return self.eval_cmp(spec, op);
        }
        let Some(field) = self.resolve_field(spec) else {
            return Vec::new();
        };
        self.docs_of_keys(field, &self.scanning_keys(field, spec))
    }

    fn eval_prox(
        &self,
        left: &TermSpec,
        right: &TermSpec,
        distance: u32,
        ordered: bool,
    ) -> Vec<DocId> {
        let (Some(lf), Some(rf)) = (self.resolve_field(left), self.resolve_field(right)) else {
            return Vec::new();
        };
        let lkeys = self.scanning_keys(lf, left);
        let rkeys = self.scanning_keys(rf, right);
        let ldocs = self.docs_of_keys(lf, &lkeys);
        let rdocs = self.docs_of_keys(rf, &rkeys);
        let both = intersect(&ldocs, &rdocs);
        if !self.index.has_positions() {
            // Built with [`PositionsMode::None`]: no positional store
            // exists, so proximity degrades to plain co-occurrence —
            // the §4.1.1-sanctioned relaxation for unsupported features.
            return both;
        }
        both.into_iter()
            .filter(|&doc| {
                let lpos = self.positions_of(doc, lf, &lkeys);
                let rpos = self.positions_of(doc, rf, &rkeys);
                prox_match(&lpos, &rpos, distance, ordered)
            })
            .collect()
    }

    /// The lists one key reads, each with its field: the key's own, or
    /// for an unfielded key the term's list in every field.
    fn lists_of(&self, field: FieldId, key: &str) -> Vec<(FieldId, PostingsList<'_>)> {
        if field == ANY_FIELD {
            self.index.field_lists(key).collect()
        } else {
            self.index
                .postings(field, key)
                .map(|l| (field, l))
                .into_iter()
                .collect()
        }
    }

    fn docs_of_keys(&self, field: FieldId, keys: &[String]) -> Vec<DocId> {
        let mut docs = Vec::new();
        for key in keys {
            for (_, postings) in self.lists_of(field, key) {
                let ids: Vec<DocId> = postings.docs().collect();
                docs = union(&docs, &ids);
            }
        }
        docs
    }

    /// A document's positions of the keys, document-global when
    /// unfielded.
    fn positions_of(&self, doc: DocId, field: FieldId, keys: &[String]) -> Vec<u32> {
        let mut pos = Vec::new();
        for key in keys {
            for (own, postings) in self.lists_of(field, key) {
                if let Some((i, _)) = postings.find(doc) {
                    let start = pos.len();
                    postings.positions_into(i, &mut pos);
                    if field == ANY_FIELD {
                        self.index.to_global_positions(doc, own, &mut pos[start..]);
                    }
                }
            }
        }
        pos.sort_unstable();
        pos
    }

    fn tf_df(&self, doc: DocId, field: FieldId, keys: &[String]) -> (u32, u32) {
        let mut tf = 0;
        let mut df = 0;
        for key in keys {
            df = df.max(self.df_of(field, key));
            for (_, postings) in self.lists_of(field, key) {
                tf += postings.tf_of(doc);
            }
        }
        (tf, df)
    }

    /// Fuzzy evaluation of a ranking node for one document.
    fn score_node(&self, node: &RankNode, doc: DocId) -> f64 {
        match node {
            RankNode::Term { spec, weight } => {
                let Some(field) = self.resolve_field(spec) else {
                    return 0.0;
                };
                let keys = self.scanning_keys(field, spec);
                let (tf, df) = self.tf_df(doc, field, &keys);
                if tf == 0 {
                    return 0.0;
                }
                weight * self.ranking.term_weight(&self.stats_for(doc, tf, df))
            }
            RankNode::List(children) => {
                // Weighted mean, per Example 4's 0.5·0.3 + 0.5·0.8 = 0.55
                // reading: leaf weights are relative importances.
                let mut num = 0.0;
                let mut den = 0.0;
                for c in children {
                    let w = leaf_weight(c);
                    // Leaf scores already include their weight; divide by
                    // the weight sum to make `list` a weighted average.
                    num += self.score_node(c, doc);
                    den += w;
                }
                if den > 0.0 {
                    num / den
                } else {
                    0.0
                }
            }
            RankNode::And(children) => {
                if children.is_empty() {
                    0.0
                } else {
                    children
                        .iter()
                        .map(|c| self.score_node(c, doc))
                        .fold(f64::INFINITY, f64::min)
                        .max(0.0)
                }
            }
            RankNode::Or(children) => children
                .iter()
                .map(|c| self.score_node(c, doc))
                .fold(0.0, f64::max),
            RankNode::AndNot(a, b) => {
                let pos = self.score_node(a, doc);
                let neg = self.score_node(b, doc).clamp(0.0, 1.0);
                pos * (1.0 - neg)
            }
            RankNode::Prox { left, right, .. } => {
                let base = self.score_node(left, doc).min(self.score_node(right, doc));
                if base <= 0.0 {
                    return 0.0;
                }
                // Positional check only when both sides are term leaves:
                // one document's worth of the lazy test.
                if admits(self.prox_test(node).as_mut(), doc) {
                    base
                } else {
                    0.0
                }
            }
        }
    }
}
