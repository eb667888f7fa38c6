//! The search engine: Boolean and vector-space evaluation over an index,
//! under one (proprietary) ranking algorithm.
//!
//! One `Engine` models one vendor's product. Its observable behaviour —
//! which query constructs work, how scores are scaled, what the actual
//! executed query was — is what the STARTS source layer
//! (`starts-source`) wraps and exports.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use starts_text::{Analyzer, AnalyzerConfig, CaseMode, Thesaurus};

use crate::blocks::{BlockCursor, BlockPostings, BlockView, BLOCK_DOCS, EXHAUSTED};
use crate::boolean::BoolNode;
use crate::doc::{DocId, Document};
use crate::filter::FilterCursor;
use crate::index::{Index, IndexBuilder, PositionsMode, PostingsList, TermBound, TermBounds};
use crate::matchspec::{CmpOp, TermSpec};
use crate::ranking::{PreparedWeight, RankingAlgorithm, TermDocStats};
use crate::schema::{FieldId, ANY_FIELD};
use crate::sharded::CollectionStats;
use crate::topk::TopK;

mod oracle;

/// A ranking-expression tree at the engine level. Leaves carry the
/// query-assigned weight (§4.1.1: "Each term in a ranking expression may
/// have an associated weight (a number between 0 and 1)").
#[derive(Debug, Clone, PartialEq)]
pub enum RankNode {
    /// A weighted term.
    Term {
        /// What to match.
        spec: TermSpec,
        /// Query weight in `[0, 1]` (1.0 when unspecified).
        weight: f64,
    },
    /// The `list` operator: "simply groups together a set of terms".
    List(Vec<RankNode>),
    /// Fuzzy `and` (Example 4 interprets it as `min`).
    And(Vec<RankNode>),
    /// Fuzzy `or` (`max`).
    Or(Vec<RankNode>),
    /// Fuzzy `and-not`: positive score attenuated by the negative one.
    AndNot(Box<RankNode>, Box<RankNode>),
    /// Proximity in a ranking expression: scored like `and`, zeroed when
    /// the proximity condition fails.
    Prox {
        /// Left term.
        left: Box<RankNode>,
        /// Right term (both must be `Term` leaves for the positional
        /// check; other shapes degrade to fuzzy `and`).
        right: Box<RankNode>,
        /// Max words between.
        distance: u32,
        /// Order matters.
        ordered: bool,
    },
}

impl RankNode {
    /// A weight-1 term leaf.
    pub fn term(spec: TermSpec) -> Self {
        RankNode::Term { spec, weight: 1.0 }
    }

    /// A weighted term leaf.
    pub fn weighted(spec: TermSpec, weight: f64) -> Self {
        RankNode::Term { spec, weight }
    }

    /// All term specs in the tree.
    pub fn terms(&self) -> Vec<&TermSpec> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect<'a>(&'a self, out: &mut Vec<&'a TermSpec>) {
        match self {
            RankNode::Term { spec, .. } => out.push(spec),
            RankNode::List(c) | RankNode::And(c) | RankNode::Or(c) => {
                for n in c {
                    n.collect(out);
                }
            }
            RankNode::AndNot(a, b) => {
                a.collect(out);
                b.collect(out);
            }
            RankNode::Prox { left, right, .. } => {
                left.collect(out);
                right.collect(out);
            }
        }
    }

    /// Flatten to a plain `list` of the leaves — the degradation the
    /// paper allows: "a source might choose to simply ignore the
    /// Boolean-like operators … and process a ranking expression like
    /// `("distributed" and "databases")` as if it were
    /// `list("distributed" "databases")`". `and-not` right-hand sides are
    /// dropped (they are not "desired" terms).
    pub fn flatten_to_list(&self) -> RankNode {
        let mut leaves = Vec::new();
        self.flatten_into(&mut leaves);
        RankNode::List(leaves)
    }

    fn flatten_into(&self, out: &mut Vec<RankNode>) {
        match self {
            RankNode::Term { .. } => out.push(self.clone()),
            RankNode::List(c) | RankNode::And(c) | RankNode::Or(c) => {
                for n in c {
                    n.flatten_into(out);
                }
            }
            RankNode::AndNot(a, _) => a.flatten_into(out),
            RankNode::Prox { left, right, .. } => {
                left.flatten_into(out);
                right.flatten_into(out);
            }
        }
    }
}

/// One search hit. `score` is `None` for filter-only queries (the result
/// is a set, not a rank — the Boolean model of §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The matching document.
    pub doc: DocId,
    /// The engine's raw score (`RawScore` in results), if ranked.
    pub score: Option<f64>,
}

/// Per-term, per-document statistics — one line of the `TermStats`
/// result attribute (§4.2): term frequency, the engine's term weight, and
/// the collection document frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct TermStat {
    /// `Term-frequency`: occurrences of the term in the document.
    pub tf: u32,
    /// `Term-weight`: the engine-assigned weight.
    pub weight: f64,
    /// `Document-frequency`: documents in the source containing the term.
    pub df: u32,
}

/// Engine configuration: the vendor's whole observable personality.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The text pipeline (tokenizer, case, stemming, stop words).
    pub analyzer: AnalyzerConfig,
    /// `RankingAlgorithmID` to use (see [`crate::ranking::ranking_by_id`]).
    pub ranking_id: String,
    /// Whether Boolean-like operators in ranking expressions get a fuzzy
    /// interpretation (`true`) or are ignored and flattened to `list`
    /// (`false`) — both behaviours are sanctioned by §4.1.1.
    pub fuzzy_ranking_ops: bool,
    /// The engine's thesaurus (for the `Thesaurus` modifier).
    pub thesaurus: Thesaurus,
    /// Shard count for [`crate::ShardedEngine`]: how many partitions the
    /// document set is split into, built in parallel and searched one
    /// after another. `0` (the default) resolves adaptively — the
    /// machine's available parallelism capped by corpus size (at least
    /// [`crate::sharded::MIN_DOCS_PER_AUTO_SHARD`] documents per shard),
    /// so 1-core containers and small corpora never pay a resolve pass
    /// per extra shard; `1` reproduces the monolithic engine; explicit
    /// `N ≥ 1` is an upper bound under the default
    /// [`ShardPolicy::Adaptive`] and honoured exactly under
    /// [`ShardPolicy::Exact`] (always clamped to the document count).
    /// Results are bit-identical at every setting — global collection
    /// statistics are broadcast to each shard. Ignored by the plain
    /// [`Engine`] constructors.
    pub shards: usize,
    /// How literally [`EngineConfig::shards`] is honoured (see
    /// [`ShardPolicy`]).
    pub shard_policy: ShardPolicy,
    /// Whether the index keeps the positional store (see
    /// [`PositionsMode`]). Vendors whose query surface never consults
    /// positions — no `prox` operator reachable — set
    /// [`PositionsMode::None`] and serve search exclusively from the
    /// block-compressed postings, dropping the positional frames
    /// entirely; `prox` then degrades to plain intersection (a
    /// degradation §4.1.1 sanctions for unsupported features).
    pub positions: PositionsMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            analyzer: AnalyzerConfig::default(),
            ranking_id: "Acme-1".to_string(),
            fuzzy_ranking_ops: true,
            thesaurus: Thesaurus::empty(),
            shards: 0,
            shard_policy: ShardPolicy::Adaptive,
            positions: PositionsMode::All,
        }
    }
}

/// How literally [`EngineConfig::shards`] is honoured by
/// [`crate::ShardedEngine::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// An explicit shard count is an *upper bound*: the effective count
    /// is additionally capped by the machine's available parallelism
    /// and by the block-span floor
    /// ([`crate::sharded::MIN_DOCS_PER_AUTO_SHARD`] documents per
    /// shard), so a 1-core container stops paying a query pass per
    /// shard for a build it cannot parallelize, and shards never shrink
    /// below the size where Block-Max skipping still has whole blocks
    /// to skip.
    /// Results stay bit-identical at every effective count, so the
    /// only observable difference is speed.
    #[default]
    Adaptive,
    /// The requested count is built exactly (clamped only to the
    /// document count) — for tests and benchmarks that must construct a
    /// specific physical layout regardless of the machine they run on.
    Exact,
}

/// A complete, queryable engine.
pub struct Engine {
    index: Index,
    ranking: Box<dyn RankingAlgorithm>,
    fuzzy_ranking_ops: bool,
    thesaurus: Thesaurus,
    doc_norms: Vec<f64>,
    /// Present when this engine is one shard of a [`crate::ShardedEngine`]:
    /// global statistics (df, N, average length) that replace the local
    /// index's, so each shard scores exactly as the monolithic engine
    /// would.
    collection: Option<Arc<CollectionStats>>,
    /// The dynamic-pruning sidecar: one entry per (field, term) with the
    /// extrema, whole-list and per block, of the exact term weights
    /// scoring can produce on this engine's documents.
    bounds: TermBounds,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n_docs", &self.index.n_docs())
            .field("ranking", &self.ranking.id())
            .field("fuzzy_ranking_ops", &self.fuzzy_ranking_ops)
            .finish()
    }
}

impl Engine {
    /// Index `docs` and build an engine per `config`.
    ///
    /// # Panics
    /// Panics if `config.ranking_id` is unknown — engines are constructed
    /// by the test/bench harness with known vendors.
    pub fn build(docs: &[Document], config: EngineConfig) -> Self {
        let mut builder =
            IndexBuilder::new(Analyzer::new(config.analyzer.clone())).positions(config.positions);
        for d in docs {
            builder.add(d);
        }
        Self::from_index(builder.build(), config)
    }

    /// Wrap an already-built index.
    pub fn from_index(index: Index, config: EngineConfig) -> Self {
        Self::from_index_with_stats(index, config, None)
    }

    /// Wrap an index that is one shard of a sharded collection: every
    /// statistic a ranking algorithm consumes (df, N, average document
    /// length, and the doc norms derived from them) comes from the global
    /// `collection` instead of the local shard.
    pub(crate) fn from_index_with_stats(
        index: Index,
        config: EngineConfig,
        collection: Option<Arc<CollectionStats>>,
    ) -> Self {
        let ranking = crate::ranking::ranking_by_id(&config.ranking_id)
            .unwrap_or_else(|| panic!("unknown RankingAlgorithmID {:?}", config.ranking_id));
        let doc_norms = if ranking.needs_doc_norms() {
            compute_doc_norms(&index, ranking.as_ref(), collection.as_deref())
        } else {
            vec![1.0; index.n_docs() as usize]
        };
        let bounds =
            compute_term_bounds(&index, ranking.as_ref(), collection.as_deref(), &doc_norms);
        Engine {
            index,
            ranking,
            fuzzy_ranking_ops: config.fuzzy_ranking_ops,
            thesaurus: config.thesaurus,
            doc_norms,
            collection,
            bounds,
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &Index {
        &self.index
    }

    /// The ranking algorithm.
    pub fn ranking(&self) -> &dyn RankingAlgorithm {
        self.ranking.as_ref()
    }

    /// The engine's thesaurus.
    pub fn thesaurus(&self) -> &Thesaurus {
        &self.thesaurus
    }

    /// Whether ranking-expression Boolean operators are fuzzy-interpreted.
    pub fn fuzzy_ranking_ops(&self) -> bool {
        self.fuzzy_ranking_ops
    }

    /// Execute a query: an optional filter expression, an optional
    /// ranking expression (§4.1.1: "a query need not contain a filter
    /// expression … similarly, a query need not contain a ranking
    /// expression").
    ///
    /// * filter only → the matching set, unscored, in doc order;
    /// * ranking only → all docs with positive scores, ranked;
    /// * both → the filter set, ranked by the ranking expression (docs
    ///   scoring 0 stay in the set — the filter decides membership);
    /// * neither → empty.
    ///
    /// The filter is never evaluated to a set of its own: it compiles
    /// to a lazy cursor (`filter.rs`) that this call drains.
    pub fn search(&self, filter: Option<&BoolNode>, ranking: Option<&RankNode>) -> Vec<Hit> {
        self.search_top_k(filter, ranking, None)
    }

    /// [`Engine::search`] with an optional result bound — the engine end
    /// of the `MaxNumberDocuments` fast path. With `limit: Some(k)` the
    /// engine selects the best `k` hits through a bounded heap instead
    /// of materializing and sorting the full result; the returned hits
    /// are exactly the first `k` the unbounded call would have produced.
    /// A filter costs what those `k` hits need of it: a filter-only
    /// query stops at its `k`-th document, and a filtered ranking runs
    /// the filter cursor as a required conjunct of the Block-Max-WAND
    /// loop, paying a `prox` position check only for documents about to
    /// enter the heap.
    pub fn search_top_k(
        &self,
        filter: Option<&BoolNode>,
        ranking: Option<&RankNode>,
        limit: Option<usize>,
    ) -> Vec<Hit> {
        self.search_top_k_hooked(filter, ranking, limit, &PruneHooks::NONE)
    }

    /// [`Engine::search_top_k`] with the query-scoped pruning context: a
    /// raw-score floor (seeded from `min-doc-score`, or carried from the
    /// shards searched before this one) and the telemetry counters.
    pub(crate) fn search_top_k_hooked(
        &self,
        filter: Option<&BoolNode>,
        ranking: Option<&RankNode>,
        limit: Option<usize>,
        hooks: &PruneHooks<'_>,
    ) -> Vec<Hit> {
        match (filter, ranking) {
            (None, None) => Vec::new(),
            (Some(f), None) => self
                .eval_filter_bounded(f, limit, hooks)
                .into_iter()
                .map(|doc| Hit { doc, score: None })
                .collect(),
            (filter, Some(r)) => {
                let mut scores = self.eval_ranked_raw(filter, r, limit, hooks);
                // `finalize` rescales monotonically (the §3.2 vendor
                // pins its top hit to 1000) and the best document —
                // of the filter set, when there is a filter — is
                // always inside the top k, so finalizing the selected
                // slice equals finalizing everything then truncating.
                self.ranking.finalize(&mut scores);
                scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                scores
                    .into_iter()
                    .map(|(doc, score)| Hit {
                        doc,
                        score: Some(score),
                    })
                    .collect()
            }
        }
    }

    /// Evaluate a Boolean filter expression to a sorted doc-id set.
    pub fn eval_filter(&self, node: &BoolNode) -> Vec<DocId> {
        self.eval_filter_bounded(node, None, &PruneHooks::NONE)
    }

    /// The first `limit` documents (all, when unbounded) the filter
    /// admits, in doc order: the cursor is walked that far and no
    /// further.
    pub(crate) fn eval_filter_bounded(
        &self,
        node: &BoolNode,
        limit: Option<usize>,
        hooks: &PruneHooks<'_>,
    ) -> Vec<DocId> {
        let mut cursor = self.filter_cursor(node);
        let docs = cursor.take(limit.unwrap_or(usize::MAX));
        hooks.count_filter(&cursor);
        docs
    }

    /// Evaluate a ranking expression: positive-scoring docs, best first.
    pub fn eval_ranking(&self, node: &RankNode) -> Vec<(DocId, f64)> {
        self.eval_ranking_top_k(node, None)
    }

    /// Evaluate a ranking expression, optionally bounded: the engine's
    /// one ranked evaluator, Block-Max WAND, then `finalize`. With
    /// `limit: Some(k)` the result is exactly the first `k` entries of
    /// the unbounded evaluation.
    pub fn eval_ranking_top_k(&self, node: &RankNode, limit: Option<usize>) -> Vec<(DocId, f64)> {
        let mut scores = self.eval_ranked_raw(None, node, limit, &PruneHooks::NONE);
        // `finalize` rescales monotonically (the §3.2 vendor pins its
        // top hit to 1000); the global maximum is always inside the top
        // k, so finalizing the selected slice equals finalizing
        // everything then truncating.
        self.ranking.finalize(&mut scores);
        scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scores
    }

    /// Ranked evaluation stopping short of `finalize`: raw scores
    /// sorted by (score desc, doc asc), at most `limit` of them. Without
    /// a filter the positive-scoring documents compete; with one, the
    /// filter decides membership and zero-scoring documents stay in.
    /// A [`crate::ShardedEngine`] merges these per-shard lists and
    /// applies the single global `finalize` afterwards.
    ///
    /// Every query runs the Block-Max-WAND loop, the filter cursor
    /// leading it. An unbounded one asks for every document of the
    /// index, with no score floor.
    pub(crate) fn eval_ranked_raw(
        &self,
        filter: Option<&BoolNode>,
        node: &RankNode,
        limit: Option<usize>,
        hooks: &PruneHooks<'_>,
    ) -> Vec<(DocId, f64)> {
        let node = &*self.effective_ranking(node);
        let mut leaves = Vec::new();
        self.resolve_leaves(node, &mut leaves);
        self.bound_at_query_time(&mut leaves, filter.is_some());
        let (k, floor) = match limit {
            Some(k) => (k, hooks.floor),
            None => (self.index.n_docs() as usize, f64::NEG_INFINITY),
        };
        let hooks = PruneHooks { floor, ..*hooks };
        self.eval_ranking_bmw(filter, node, &leaves, k, &hooks)
    }

    /// The ranking expression this engine actually evaluates: `node`
    /// itself, or — when the vendor ignores Boolean-like ranking
    /// operators — its leaves flattened to one `list`.
    fn effective_ranking<'a>(&self, node: &'a RankNode) -> Cow<'a, RankNode> {
        if self.fuzzy_ranking_ops {
            Cow::Borrowed(node)
        } else {
            Cow::Owned(node.flatten_to_list())
        }
    }

    /// The Block-Max-WAND evaluator (see `docs/performance.md` § Block-Max
    /// WAND): skip-capable block cursors, WAND pivot selection against the
    /// running threshold θ, and per-block score bounds propagated through
    /// the whole operator tree. Bit-identical to scoring every candidate
    /// (the oracle in `engine/oracle.rs`) by construction:
    ///
    /// * a document (or block of documents) is skipped only when its tree
    ///   score upper bound is strictly below θ — and θ is either the
    ///   seeded raw-score floor — a `min-doc-score`, or an earlier
    ///   shard's k-th score, below which `k` better docs already exist
    ///   (the floored heap rejects such docs anyway) — or the local heap
    ///   floor once the heap holds `k` entries (a doc strictly below it
    ///   can never displace an entry: ties break toward the smaller doc
    ///   ids already held);
    /// * the tree bound and a survivor's exact score are one function,
    ///   [`tree_score`], in its two modes: the bound reads dominating
    ///   leaf bounds where the exact score reads leaf values, through
    ///   the *same* float expression in the *same* accumulation order —
    ///   every operator involved (`+`, `/` by a shared positive
    ///   denominator, `min`, `max`) is monotone under IEEE
    ///   round-to-nearest, and the two operators whose exact form only
    ///   ever lowers a score (`and-not`'s attenuation, `prox`'s
    ///   positional test) are left out of the bound, so it dominates the
    ///   exact score *bit-wise*, with no epsilon slack at all (tighter
    ///   than the earlier flat-list pruner, which needed `(n+3)·ε` of
    ///   headroom for its reordered suffix sums);
    /// * survivors' leaf values are `weight × term_weight` of the leaf's
    ///   tf summed over its vocabulary keys, the one leaf value the
    ///   oracle computes.
    ///
    /// Skips never cross a block boundary the bound argument does not
    /// cover: a jump target is capped by every active leaf's covering
    /// block's last doc + 1, so each skipped doc's contributions are
    /// bounded by exactly the per-block maxima that were consulted.
    ///
    /// A `filter` joins the loop as a *required conjunct* and changes
    /// none of the above — it only removes candidates:
    ///
    /// * ranking cursors behind the filter's frontier jump to it (no
    ///   document before it can be a result), so a selective filter
    ///   leads the loop and a dense one costs a compare;
    /// * the filter is moved only after the block bounds have let the
    ///   pivot through, and its second phase ([`FilterCursor::confirm`],
    ///   the `prox` position check) runs last, only for a document whose
    ///   exact score the heap would take;
    /// * θ therefore only ever counts documents the filter admits, which
    ///   keeps the floor carried to the next shard sound;
    /// * the documents the ranking expression scores 0 but the filter
    ///   admits are owed to the result too (§4.1.1: the filter decides
    ///   membership). They can only matter while fewer than `k` positive
    ///   scores exist, so they are appended afterwards, in doc order, by
    ///   walking the filter until the heap is full — never by scoring
    ///   the filter set.
    fn eval_ranking_bmw(
        &self,
        filter: Option<&BoolNode>,
        node: &RankNode,
        leaves: &[LeafCtx<'_>],
        k: usize,
        hooks: &PruneHooks<'_>,
    ) -> Vec<(DocId, f64)> {
        let n = leaves.len();
        let mut cursors: Vec<Option<BlockCursor<'_>>> = leaves
            .iter()
            .map(|l| match l.blocks() {
                Some(b) if !b.is_empty() => Some(BlockCursor::with_bounds(b, l.block_max())),
                _ => None,
            })
            .collect();
        let total_postings: u64 = cursors
            .iter()
            .map(|c| c.as_ref().map_or(0, |c| c.len()))
            .sum();
        let mut sel = Selection::new(k, hooks.floor);
        let mut lead = filter.map(|f| self.filter_cursor(f));
        let mut ub = vec![0.0_f64; n];
        let mut vals = vec![0.0_f64; n];
        // Survivor scoring dominates BMW wall time, so fold each leaf's
        // per-(term, collection) ranking constants once up front instead
        // of recomputing them (two `ln` calls and a virtual dispatch)
        // for every surviving posting.
        let prepared: Vec<Option<PreparedWeight>> =
            leaves.iter().map(|l| self.prepare_leaf(l.df)).collect();
        // The overwhelmingly common query shape is a flat weighted list
        // of term leaves. Its tree walk — add each child slot in order,
        // divide by the constant denominator — is a plain loop, so run
        // that loop directly and skip the recursion. The accumulation
        // order is identical, so bounds and exact scores stay bit-equal
        // to the general walk.
        let flat_den: Option<f64> = match node {
            RankNode::List(children)
                if children.iter().all(|c| matches!(c, RankNode::Term { .. })) =>
            {
                let mut den = 0.0_f64;
                for c in children {
                    den += leaf_weight(c);
                }
                Some(den)
            }
            _ => None,
        };
        fn flat_list_eval(slots: &[f64], den: f64) -> f64 {
            let mut num = 0.0_f64;
            for &v in slots {
                num += v;
            }
            if den > 0.0 {
                num / den
            } else {
                0.0
            }
        }
        let tree_bound = |slots: &[f64]| -> f64 {
            match flat_den {
                Some(den) => flat_list_eval(slots, den),
                None => tree_score::<BOUND>(node, &mut LeafRow::bounds(slots)),
            }
        };
        // One positional test per `prox` node — lazy like the filter:
        // positions are compared only for survivors.
        let mut prox_tests = Vec::new();
        self.collect_prox_tests(node, &mut prox_tests);
        let mut tree_exact = |slots: &[f64], doc: DocId| -> f64 {
            match flat_den {
                Some(den) => flat_list_eval(slots, den),
                None => {
                    tree_score::<EXACT>(node, &mut LeafRow::scores(slots, doc, &mut prox_tests))
                }
            }
        };
        // Frontier cache: `docs[i]` mirrors `cursors[i].doc()` (exhausted
        // and absent cursors pin at `u32::MAX`), so ordering and the
        // prefix walk never touch the cursors themselves. `order` keeps
        // every leaf index sorted by its frontier doc — exhausted
        // cursors sink to the tail — and is repaired by insertion after
        // each advance instead of being rebuilt per iteration: only the
        // just-advanced prefix is ever out of place.
        let mut docs: Vec<u32> = cursors
            .iter()
            .map(|c| c.as_ref().map_or(u32::MAX, BlockCursor::doc))
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| docs[i]);
        // Pivot selection bounds a prefix by its leaves' whole-list
        // bounds — per-query constants — so the bound of a prefix
        // depends only on *which* leaves it holds. Trees small enough
        // for a table compute each leaf set's bound once (NaN = not
        // yet; a real bound is never NaN); the rest recompute.
        let mut prefix_bounds = if n <= 8 {
            vec![f64::NAN; 1 << n]
        } else {
            Vec::new()
        };
        loop {
            // The filter's frontier (cached by the cursor, so this is a
            // load; 0 without a filter, which never leads).
            let lead_doc = lead.as_ref().map_or(0, FilterCursor::doc);
            if order.is_empty() || lead_doc == EXHAUSTED {
                break;
            }
            if docs[order[0]] < lead_doc {
                for &i in &order {
                    if docs[i] >= lead_doc {
                        break;
                    }
                    let c = cursors[i].as_mut().expect("live cursor");
                    c.next_geq(lead_doc);
                    docs[i] = c.doc();
                }
                repair_frontier_order(&mut order, &docs);
            }
            if docs[order[0]] == u32::MAX {
                break;
            }
            let theta = sel.theta;
            // While θ is not positive a pivot is only ever ruled out by a
            // bound of 0, and pivot selection has just found the prefix's
            // whole-list bound positive: the per-block bounds have
            // nothing to add until the heap has filled.
            let block_bounds_prune = theta > 0.0;

            // --- WAND pivot selection -----------------------------------
            // Walk prefixes of the doc-sorted cursors, one equal-doc group
            // at a time. A doc `d` can only draw contributions from
            // cursors currently at or before `d`, so the tree bound over
            // prefix leaves (at their whole-list bounds) dominates every
            // doc before the *next* group. The bound must be evaluated at
            // every prefix: `and` (min) makes it non-monotone in the
            // active set, so a low bound here says nothing about the
            // next, larger prefix.
            let mut pivot: Option<(usize, u32)> = None; // (prefix end, doc)
            for s in ub.iter_mut() {
                *s = 0.0;
            }
            let mut j = 0;
            let mut members = 0usize; // the prefix, as a leaf bit set
            while j < n && docs[order[j]] != u32::MAX {
                let d = docs[order[j]];
                while j < n && docs[order[j]] == d {
                    ub[order[j]] = leaves[order[j]].bound;
                    if !prefix_bounds.is_empty() {
                        members |= 1 << order[j];
                    }
                    j += 1;
                }
                let bound = match prefix_bounds.get_mut(members) {
                    Some(known) => {
                        if known.is_nan() {
                            *known = tree_bound(&ub);
                        }
                        *known
                    }
                    None => tree_bound(&ub),
                };
                if !hopeless(bound, theta) {
                    pivot = Some((j, d));
                    break;
                }
            }
            let Some((prefix_end, pivot_doc)) = pivot else {
                break; // no prefix can reach θ: nothing left can compete
            };
            let next_doc = order.get(prefix_end).map_or(u32::MAX, |&i| docs[i]);

            if docs[order[0]] != pivot_doc {
                // Laggards sit before the pivot: a header-only lookup of
                // the blocks that *would* cover it, no decoding.
                for s in ub.iter_mut() {
                    *s = 0.0;
                }
                for &i in &order[..prefix_end] {
                    let c = cursors[i].as_ref().expect("live cursor");
                    ub[i] = match c.block_for(pivot_doc) {
                        Some(b) => (leaves[i].weight * c.block_max_score_at(b)).max(0.0),
                        // List ends before the pivot: contributes nothing
                        // to any doc from the pivot on.
                        None => 0.0,
                    };
                }
                if block_bounds_prune && hopeless(tree_bound(&ub), theta) {
                    let mut jump = next_doc;
                    for &i in &order[..prefix_end] {
                        let c = cursors[i].as_ref().expect("live cursor");
                        if let Some(b) = c.block_for(pivot_doc) {
                            jump = jump.min(c.block_last_doc(b).saturating_add(1));
                        }
                    }
                    for &i in &order[..prefix_end] {
                        let c = cursors[i].as_mut().expect("live cursor");
                        c.next_geq(jump);
                        docs[i] = c.doc();
                    }
                    repair_frontier_order(&mut order, &docs);
                    continue;
                }
                // Competitive: align the laggards onto the pivot — or
                // onto the filter's next document, when that lies
                // beyond it.
                let target = lead.as_mut().map_or(pivot_doc, |f| f.next_geq(pivot_doc));
                let mut landed = true;
                for &i in &order[..prefix_end] {
                    let c = cursors[i].as_mut().expect("live cursor");
                    if c.doc() < target {
                        c.next_geq(target);
                        docs[i] = c.doc();
                    }
                    landed &= docs[i] == pivot_doc;
                }
                if !landed {
                    // Re-run selection from the new frontier.
                    repair_frontier_order(&mut order, &docs);
                    continue;
                }
                // Every laggard landed on the pivot, inside the very
                // blocks whose bounds were just consulted: the pivot is
                // through, with no second selection and no second look
                // at the same bounds.
            } else {
                if prefix_end == 1 {
                    if let Some(den) = flat_den {
                        // Sole-owner run: every doc from the pivot up to
                        // the next cursor's frontier sits on this one
                        // list, and the flat-list score of such a doc is
                        // its single slot over the constant denominator.
                        // Score the whole run in bulk straight off the
                        // decoded block arrays — block bounds still
                        // prune, but pivot selection re-runs once per
                        // run instead of once per document.
                        let i = order[0];
                        let c = cursors[i].as_mut().expect("live cursor");
                        self.bmw_flat_run(
                            &leaves[i],
                            prepared[i].as_ref(),
                            den,
                            next_doc,
                            c,
                            lead.as_mut(),
                            &mut sel,
                        );
                        docs[i] = c.doc();
                        repair_frontier_order(&mut order, &docs);
                        continue;
                    }
                }
                // Aligned: every prefix cursor sits on the pivot. Check
                // the *current* blocks' score bounds.
                for s in ub.iter_mut() {
                    *s = 0.0;
                }
                for &i in &order[..prefix_end] {
                    let c = cursors[i].as_ref().expect("live cursor");
                    ub[i] = (leaves[i].weight * c.block_max_score()).max(0.0);
                }
                if block_bounds_prune && hopeless(tree_bound(&ub), theta) {
                    // Shallow advance: everything up to the earliest
                    // current-block boundary (or the next cursor's doc)
                    // is covered by the bounds just consulted.
                    let mut jump = next_doc;
                    for &i in &order[..prefix_end] {
                        let c = cursors[i].as_ref().expect("live cursor");
                        jump = jump.min(c.block_max_doc().saturating_add(1));
                    }
                    for &i in &order[..prefix_end] {
                        let c = cursors[i].as_mut().expect("live cursor");
                        c.next_geq(jump);
                        docs[i] = c.doc();
                    }
                    repair_frontier_order(&mut order, &docs);
                    continue;
                }
            }
            // The bounds let the pivot through; now it must be in
            // the filter. If the filter lands past it, the top of
            // the loop moves the cursors up to the filter.
            if let Some(f) = lead.as_mut() {
                if f.next_geq(pivot_doc) != pivot_doc {
                    continue;
                }
            }
            // Survivor: exact score with the unpruned arithmetic.
            for s in vals.iter_mut() {
                *s = 0.0;
            }
            let doc = DocId(pivot_doc);
            for &i in &order[..prefix_end] {
                let tf = cursors[i].as_mut().expect("live cursor").tf();
                if tf > 0 {
                    vals[i] = leaves[i].weight
                        * self.weigh_leaf(prepared[i].as_ref(), doc, tf, leaves[i].df);
                }
            }
            let score = tree_exact(&vals, doc);
            // The filter's second phase comes last: positions are
            // compared only for a score the heap would take.
            if score > 0.0 && sel.wants(doc, score) {
                let confirmed = match lead.as_mut() {
                    Some(f) => f.confirm(),
                    None => true,
                };
                if confirmed {
                    sel.push(doc, score);
                }
            }
            for &i in &order[..prefix_end] {
                let c = cursors[i].as_mut().expect("live cursor");
                c.next();
                docs[i] = c.doc();
            }
            repair_frontier_order(&mut order, &docs);
        }
        if let (Some(f), Some(lead)) = (filter, &lead) {
            hooks.count_filter(lead);
            self.zero_fill(f, k, &mut sel, hooks);
        }
        for test in prox_tests.iter().flatten() {
            hooks.count_filter(test);
        }
        if let Some(c) = hooks.counters {
            let visited: u64 = cursors.iter().flatten().map(BlockCursor::visited).sum();
            let blocks_skipped: u64 = cursors
                .iter()
                .flatten()
                .map(BlockCursor::blocks_skipped)
                .sum();
            // BMW accounting is postings-grained: `candidates` is every
            // posting entering evaluation, and a "skipped doc" is a
            // posting the cursors never rested on — each one an avoided
            // `term_weight` computation.
            c.candidates.fetch_add(total_postings, Ordering::Relaxed);
            c.skipped_docs
                .fetch_add(total_postings - visited, Ordering::Relaxed);
            c.blocks_skipped
                .fetch_add(blocks_skipped, Ordering::Relaxed);
            c.threshold_updates
                .fetch_add(sel.threshold_updates, Ordering::Relaxed);
        }
        sel.top.into_sorted_vec()
    }

    /// The zero-fill pass of a filtered Block-Max-WAND query: while the
    /// heap is short of `k` and a score of 0 could still be returned,
    /// append the filter's documents the loop did not take — each
    /// scores exactly 0 — in doc order. Every positive-scoring document
    /// of the filter is already held at this point (nothing is pruned
    /// below a threshold of 0), so what the walk finds outside the heap
    /// is precisely the filter set's zero-scoring tail.
    fn zero_fill(&self, filter: &BoolNode, k: usize, sel: &mut Selection, hooks: &PruneHooks<'_>) {
        // θ above 0 means the floor excludes 0, or `k` positive scores
        // exist in this shard or an earlier one: no zero can reach the
        // result.
        if sel.top.len() >= k || sel.theta > 0.0 {
            return;
        }
        let mut held = sel.top.docs();
        held.sort_unstable();
        let mut cursor = self.filter_cursor(filter);
        while sel.top.len() < k && cursor.doc() != EXHAUSTED {
            let doc = DocId(cursor.doc());
            if held.binary_search(&doc).is_err() && cursor.confirm() {
                sel.top.push(doc, 0.0);
            }
            cursor.next();
        }
        hooks.count_filter(&cursor);
    }

    /// Bulk-score a sole-owner run for the flat-list Block-Max loop:
    /// every doc from the cursor's position up to `stop` (exclusive)
    /// appears on no other frontier, so its flat-list score is its one
    /// slot over the constant denominator `den` — computed here
    /// straight off the decoded block arrays, with the identical
    /// arithmetic the slot-array walk performs (adding a value to a
    /// row of zero slots and dividing is exact, so scores stay
    /// bit-equal). Blocks whose score bound stays strictly under θ are
    /// hopped without touching their tf section, exactly as the
    /// per-document loop shallow-advances; offering a sub-θ doc to the
    /// selector is a no-op, so bulk-scoring past a mid-block θ rise
    /// cannot change the result either. Under a filter the run skips
    /// to the filter's frontier whenever that is ahead, and the filter
    /// is moved (and confirmed) only for a document the heap would
    /// take — one slot's score is cheaper than a filter seek.
    #[allow(clippy::too_many_arguments)]
    fn bmw_flat_run(
        &self,
        leaf: &LeafCtx<'_>,
        prepared: Option<&PreparedWeight>,
        den: f64,
        stop: u32,
        c: &mut BlockCursor<'_>,
        mut lead: Option<&mut FilterCursor<'_>>,
        sel: &mut Selection,
    ) {
        while c.doc() < stop {
            let lead_doc = lead.as_deref().map_or(0, FilterCursor::doc);
            if c.doc() < lead_doc {
                c.next_geq(stop.min(lead_doc));
                continue;
            }
            let block_ub = (leaf.weight * c.block_max_score()).max(0.0);
            let bound = if den > 0.0 { block_ub / den } else { 0.0 };
            if bound.partial_cmp(&sel.theta) == Some(std::cmp::Ordering::Less) {
                // Bounded out: hop to the block's end (or to `stop`)
                // without decoding the tf section.
                c.next_geq(stop.min(c.block_max_doc().saturating_add(1)));
                continue;
            }
            let (bdocs, btfs) = c.remaining_in_block();
            let run = bdocs.partition_point(|&d| d < stop);
            for (&d, &tf) in bdocs[..run].iter().zip(btfs) {
                if tf == 0 || lead.as_deref().is_some_and(|f| d < f.doc()) {
                    continue;
                }
                let doc = DocId(d);
                let v = leaf.weight * self.weigh_leaf(prepared, doc, tf, leaf.df);
                let score = if den > 0.0 { v / den } else { 0.0 };
                if score > 0.0 && sel.wants(doc, score) && admits(lead.as_deref_mut(), doc) {
                    sel.push(doc, score);
                }
            }
            c.advance_in_block(run);
        }
    }

    /// The `TermStats` entry for one term of the ranking expression in
    /// one result document (§4.2). Callers reporting a whole result
    /// list resolve the term once with [`Engine::resolve_term`].
    pub fn term_stats(&self, doc: DocId, spec: &TermSpec) -> TermStat {
        self.resolve_term(spec).stats(doc)
    }

    /// Resolve a term once — field, vocabulary keys, document
    /// frequency, posting lists — so its `TermStats` for any number of
    /// documents cost one posting lookup each. A spec that needs a
    /// vocabulary scan pays for the scan here, not per document.
    pub fn resolve_term(&self, spec: &TermSpec) -> ResolvedTerm<'_> {
        self.bind_term(self.resolve_spec(spec).as_ref())
    }

    /// Attach this engine's posting lists to an already-resolved key
    /// set. Shards of one collection share the keys (they resolve
    /// against the collection-wide vocabulary) and differ only here.
    pub(crate) fn bind_term(&self, keys: Option<&SpecKeys>) -> ResolvedTerm<'_> {
        ResolvedTerm {
            engine: self,
            df: keys.map(|k| k.df),
            postings: keys.map_or_else(Vec::new, |k| {
                self.key_lists(k).map(|(_, list)| list).collect()
            }),
        }
    }

    // ---- internals ----

    /// Resolve a spec to its field, the vocabulary keys it matches and
    /// their document frequency (the max over keys; global when this
    /// engine is a shard). `None` when the schema lacks the field.
    pub(crate) fn resolve_spec(&self, spec: &TermSpec) -> Option<SpecKeys> {
        let field = self.resolve_field(spec)?;
        let keys = self.resolve_keys(field, spec);
        let df = keys.iter().map(|k| self.df_of(field, k)).max().unwrap_or(0);
        Some(SpecKeys { field, keys, df })
    }

    /// The local posting lists of a resolved key set, in key order (keys
    /// only another shard indexed have none here), each with the field
    /// it belongs to. An unfielded key expands to the term's list in
    /// every field that holds it ([`Index::field_lists`]): `Any` is a
    /// view, not a list.
    pub(crate) fn key_lists<'a: 'k, 'k>(
        &'a self,
        keys: &'k SpecKeys,
    ) -> impl Iterator<Item = (FieldId, PostingsList<'a>)> + 'k {
        keys.keys.iter().flat_map(move |key| {
            let (any, own) = if keys.field == ANY_FIELD {
                (Some(self.index.field_lists(key)), None)
            } else {
                let own = self.index.postings(keys.field, key);
                (None, own.map(|list| (keys.field, list)))
            };
            any.into_iter().flatten().chain(own)
        })
    }

    pub(crate) fn resolve_field(&self, spec: &TermSpec) -> Option<FieldId> {
        match &spec.field {
            None => Some(ANY_FIELD),
            Some(name) if name.eq_ignore_ascii_case("any") => Some(ANY_FIELD),
            Some(name) => self.index.schema().get(name),
        }
    }

    /// Resolve a spec to the set of index-vocabulary terms it matches,
    /// sorted. When this engine is a shard, resolution runs against the
    /// *global* vocabulary: a key another shard indexed still contributes
    /// its (global) document frequency to this shard's scoring.
    ///
    /// Only stem, phonetic and truncation specs the index cannot answer
    /// directly walk the vocabulary. A plain term on a case-sensitive
    /// index — case-insensitive by default (§4.1.1) — is exact case
    /// folding, answered by a fold-table lookup that returns the same
    /// keys the walk would.
    fn resolve_keys(&self, field: FieldId, spec: &TermSpec) -> Vec<String> {
        let cfg = self.index.analyzer().config();
        if spec.needs_scan(cfg.stem, cfg.case) {
            if spec.matches.is_empty() {
                self.fold_keys(field, &spec.term)
            } else {
                self.scan_keys(field, spec)
            }
        } else if spec.has(crate::matchspec::TermMatch::Thesaurus) {
            let mut keys: Vec<String> = self
                .thesaurus
                .expand(&spec.term)
                .into_iter()
                .map(|w| self.index.analyzer().normalize_term(&w))
                .filter(|w| self.has_term(field, w))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        } else {
            let key = self.index.analyzer().normalize_term(&spec.term);
            if self.has_term(field, &key) {
                vec![key]
            } else {
                Vec::new()
            }
        }
    }

    /// The vocabulary terms of `field` that `spec`'s
    /// [`TermSpec::vocab_predicate`] accepts, sorted: a walk over the
    /// field's whole vocabulary.
    fn scan_keys(&self, field: FieldId, spec: &TermSpec) -> Vec<String> {
        let pred = spec.vocab_predicate(&self.thesaurus);
        let query = &spec.term;
        let mut keys: Vec<String> = match &self.collection {
            Some(c) => c
                .field_terms(field)
                .filter(|(vocab, _)| pred(query, vocab))
                .map(|(vocab, _)| vocab.to_string())
                .collect(),
            None if field == ANY_FIELD => self
                .index
                .any_vocabulary()
                .filter(|(vocab, _, _)| pred(query, vocab))
                .map(|(vocab, _, _)| vocab.to_string())
                .collect(),
            None => self
                .index
                .field_vocabulary(field)
                .filter(|(vocab, _)| pred(query, vocab))
                .map(|(vocab, _)| vocab.to_string())
                .collect(),
        };
        keys.sort_unstable();
        keys
    }

    /// The vocabulary terms of `field` equal to `term` under case
    /// folding, sorted — what [`Engine::scan_keys`] returns for a plain
    /// spec, without the walk: the term's fold when the field holds it,
    /// plus the fold table's terms for it.
    fn fold_keys(&self, field: FieldId, term: &str) -> Vec<String> {
        let fold = CaseMode::Insensitive.apply_cow(term);
        let in_field = |t: &&str| self.has_term(field, t);
        let mut keys: Vec<String> = match &self.collection {
            Some(c) => c
                .fold_variants(&fold)
                .filter(in_field)
                .map(str::to_string)
                .collect(),
            None => self
                .index
                .fold_variants(&fold)
                .filter(in_field)
                .map(str::to_string)
                .collect(),
        };
        if self.has_term(field, &fold) {
            keys.push(fold.into_owned());
        }
        keys.sort_unstable();
        keys
    }

    /// Whether the (field, term) pair exists anywhere in the collection —
    /// globally when this engine is a shard, else locally.
    fn has_term(&self, field: FieldId, term: &str) -> bool {
        match &self.collection {
            Some(c) => c.contains(field, term),
            None => self.index.df(field, term) > 0,
        }
    }

    /// Document frequency of an index key — global when sharded.
    fn df_of(&self, field: FieldId, key: &str) -> u32 {
        match &self.collection {
            Some(c) => c.df(field, key),
            None => self.index.df(field, key),
        }
    }

    fn eval_cmp(&self, spec: &TermSpec, op: CmpOp) -> Vec<DocId> {
        let Some(field) = self.resolve_field(spec) else {
            return Vec::new();
        };
        if field == ANY_FIELD {
            // Comparisons need a concrete field; `Any` makes no sense.
            return Vec::new();
        }
        let query = spec.term.trim();
        self.index
            .all_docs()
            .filter(|&doc| {
                self.index
                    .doc_field(doc, field)
                    .is_some_and(|stored| op.test(stored.trim().cmp(query)))
            })
            .collect()
    }

    /// The (document count, mean document length) pair every
    /// [`TermDocStats`] carries: the calibrated collection-wide view
    /// when one is installed, this index's own otherwise.
    fn collection_counts(&self) -> (u32, f64) {
        match &self.collection {
            Some(c) => (c.n_docs(), c.avg_doc_tokens()),
            None => (self.index.n_docs(), self.index.avg_doc_tokens()),
        }
    }

    /// Fold the per-(term, collection) constants of the ranking
    /// algorithm for a leaf with document frequency `df`, or `None`
    /// when the algorithm doesn't support folding and scoring must go
    /// through [`RankingAlgorithm::term_weight`].
    fn prepare_leaf(&self, df: u32) -> Option<PreparedWeight> {
        let (n_docs, avg_tokens) = self.collection_counts();
        self.ranking.prepare(df, n_docs, avg_tokens)
    }

    /// One leaf's term weight for one document: the folded-constant
    /// fast path when `prepared` is available, the generic
    /// [`RankingAlgorithm::term_weight`] otherwise. The two are
    /// bit-identical by construction (see [`PreparedWeight`]).
    #[inline]
    fn weigh_leaf(&self, prepared: Option<&PreparedWeight>, doc: DocId, tf: u32, df: u32) -> f64 {
        match prepared {
            Some(p) => p.weight(
                tf,
                self.index.doc_token_count(doc),
                self.doc_norms[doc.0 as usize],
            ),
            None => self.ranking.term_weight(&self.stats_for(doc, tf, df)),
        }
    }

    fn stats_for(&self, doc: DocId, tf: u32, df: u32) -> TermDocStats {
        let (n_docs, avg_tokens) = self.collection_counts();
        TermDocStats {
            tf,
            df,
            n_docs,
            doc_tokens: self.index.doc_token_count(doc),
            avg_tokens,
            doc_norm: self.doc_norms[doc.0 as usize],
        }
    }

    /// Resolve every leaf of a ranking tree once: vocabulary keys to
    /// posting-list slices (plus the comparison-matched doc set for
    /// `cmp` leaves), in the same depth-first order [`RankNode::terms`]
    /// visits them. A leaf the build-time sidecar bounds gets its key's
    /// block postings and per-block maxima here; the rest are left
    /// unbounded for [`Engine::bound_at_query_time`].
    fn resolve_leaves<'a>(&'a self, node: &RankNode, out: &mut Vec<LeafCtx<'a>>) {
        match node {
            RankNode::Term { spec, weight } => {
                let mut ctx = LeafCtx {
                    weight: *weight,
                    df: 0,
                    postings: Vec::new(),
                    cmp_docs: None,
                    bound: f64::INFINITY,
                    blocks: None,
                    block_max: Cow::Borrowed(&[]),
                };
                // Track the resolved-key shape for the build-time bound:
                // it needs exactly one vocabulary key read through one
                // list, because multi-key leaves sum tf across keys and
                // take the max df — neither of which the per-key envelope
                // covers. An unfielded key whose term this engine holds
                // in one field only is that field's key when the field
                // also holds every document of the term's `Any` df: the
                // same postings, bounded at build time with the same df.
                let mut single = None;
                if let Some(resolved) = self.resolve_spec(spec) {
                    ctx.df = resolved.df;
                    // The field of the one list read, if only one is.
                    let mut field = None;
                    for (f, list) in self.key_lists(&resolved) {
                        field = ctx.postings.is_empty().then_some(f);
                        ctx.postings.push(list);
                    }
                    if let (Some(field), [key]) = (field, &resolved.keys[..]) {
                        if field == resolved.field || self.df_of(field, key) == resolved.df {
                            single = self.index.slot(field, key);
                        }
                    }
                }
                // Comparison leaves match on stored field values; their
                // candidate docs come from the comparison, while scoring
                // still goes through the postings.
                if let Some(op) = spec.cmp {
                    ctx.cmp_docs = Some(self.eval_cmp(spec, op));
                }
                // The key's sidecar entry, looked up once: its envelope
                // bounds the leaf, and when that bound is finite over
                // non-empty postings its per-block maxima and the key's
                // block postings let Block-Max-WAND skip through it.
                let keyed = single.and_then(|slot| Some((slot, self.bounds.get(slot)?)));
                ctx.bound = self.leaf_bound(&ctx, keyed.map(|(_, entry)| entry));
                if let Some((slot, _)) = keyed {
                    if ctx.bound.is_finite() && !ctx.postings.is_empty() {
                        ctx.blocks = Some(LeafBlocks::Index(self.index.list(slot).blocks()));
                        ctx.block_max =
                            Cow::Borrowed(self.bounds.block_max(self.index.block_range(slot)));
                    }
                }
                out.push(ctx);
            }
            RankNode::List(c) | RankNode::And(c) | RankNode::Or(c) => {
                for n in c {
                    self.resolve_leaves(n, out);
                }
            }
            RankNode::AndNot(a, b) => {
                self.resolve_leaves(a, out);
                self.resolve_leaves(b, out);
            }
            RankNode::Prox { left, right, .. } => {
                self.resolve_leaves(left, out);
                self.resolve_leaves(right, out);
            }
        }
    }

    /// The largest contribution `leaf` can make to any local document's
    /// score slot, as a float, given the build-time sidecar entry of
    /// the single vocabulary key it resolved to — `+inf` (no build-time
    /// bound) for comparison leaves, negative or non-finite query
    /// weights, multi-key resolutions (no entry), or a key whose
    /// recorded weight envelope is negative or non-finite. A leaf with
    /// no local postings contributes exactly 0 on this engine.
    fn leaf_bound(&self, leaf: &LeafCtx<'_>, entry: Option<TermBound>) -> f64 {
        if leaf.cmp_docs.is_some()
            || !leaf.weight.is_finite()
            || leaf.weight.total_cmp(&0.0).is_lt()
        {
            return f64::INFINITY;
        }
        if leaf.postings.is_empty() {
            return 0.0;
        }
        match entry {
            Some(b) if b.min.total_cmp(&0.0).is_ge() && b.max.is_finite() => {
                (leaf.weight * b.max).max(0.0)
            }
            _ => f64::INFINITY,
        }
    }

    /// Give every leaf the build-time sidecar left unbounded a sidecar
    /// built for this query, in the same block format: its keys'
    /// postings — for an unfielded leaf, its term's field lists —
    /// merged into one `(doc, tf)` list with tf summed per document,
    /// per-block maxima of the very `weigh_leaf` values survivors are
    /// scored with (so each bound holds bit-wise; a non-finite maximum
    /// becomes `+inf`, which never skips), and the whole-list bound
    /// they imply. An unfiltered `cmp` leaf keeps only the query's
    /// candidates — documents in some `cmp` leaf's comparison matches
    /// or in another leaf's postings — since no other document is
    /// scored; under a filter the filter decides. Costs one pass over
    /// those leaves' postings.
    fn bound_at_query_time(&self, leaves: &mut [LeafCtx<'_>], filtered: bool) {
        for i in 0..leaves.len() {
            let leaf = &leaves[i];
            if leaf.bound.is_finite() {
                continue;
            }
            let mut list = merge_postings(&leaf.postings);
            if leaf.cmp_docs.is_some() && !filtered {
                retain_candidates(&mut list, leaves);
            }
            let prepared = self.prepare_leaf(leaf.df);
            let block_max: Vec<f64> = list
                .chunks(BLOCK_DOCS)
                .map(|block| {
                    let weights = block.iter().map(|&(doc, tf)| {
                        self.weigh_leaf(prepared.as_ref(), DocId(doc), tf, leaf.df)
                    });
                    let max = weights.max_by(f64::total_cmp).unwrap_or(0.0);
                    if max.is_finite() {
                        max
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            let max = block_max.iter().copied().fold(0.0, f64::max);
            let leaf = &mut leaves[i];
            leaf.bound = (leaf.weight * max).max(0.0);
            leaf.blocks = Some(LeafBlocks::Merged(BlockPostings::encode(&list)));
            leaf.block_max = Cow::Owned(block_max);
        }
    }

    /// Compile the positional test of every `prox` node in the tree,
    /// children-first depth-first — the order an exact [`tree_score`]
    /// asks them in. `Some` when both children are term leaves, `None`
    /// when the node degrades to fuzzy `and` ([`Engine::prox_test`]'s
    /// decision).
    fn collect_prox_tests<'a>(&'a self, node: &RankNode, out: &mut Vec<Option<FilterCursor<'a>>>) {
        match node {
            RankNode::Term { .. } => {}
            RankNode::List(c) | RankNode::And(c) | RankNode::Or(c) => {
                for n in c {
                    self.collect_prox_tests(n, out);
                }
            }
            RankNode::AndNot(a, b) => {
                self.collect_prox_tests(a, out);
                self.collect_prox_tests(b, out);
            }
            RankNode::Prox { left, right, .. } => {
                self.collect_prox_tests(left, out);
                self.collect_prox_tests(right, out);
                out.push(self.prox_test(node));
            }
        }
    }

    /// The positional test of one ranking `prox` node: the same lazy
    /// cursor a `prox` filter compiles to, asked about one document at
    /// a time. Only when both sides are term leaves; other shapes
    /// degrade to fuzzy `and`.
    pub(crate) fn prox_test(&self, node: &RankNode) -> Option<FilterCursor<'_>> {
        let RankNode::Prox {
            left,
            right,
            distance,
            ordered,
        } = node
        else {
            return None;
        };
        match (left.as_ref(), right.as_ref()) {
            (RankNode::Term { spec: ls, .. }, RankNode::Term { spec: rs, .. }) => {
                Some(self.prox_cursor(ls, rs, *distance, *ordered))
            }
            _ => None,
        }
    }
}

/// What a term spec resolves to against the collection vocabulary.
#[derive(Debug)]
pub(crate) struct SpecKeys {
    /// The field the keys belong to ([`ANY_FIELD`] when unfielded).
    pub(crate) field: FieldId,
    /// Matched vocabulary terms, sorted.
    keys: Vec<String>,
    /// Max document frequency over `keys` (0 when none matched); for an
    /// unfielded spec, each key's `Any` document frequency.
    df: u32,
}

/// A ranking term resolved once against an [`Engine`]
/// ([`Engine::resolve_term`]): what `TermStats` reporting needs to
/// answer per document without repeating the resolution.
#[derive(Debug)]
pub struct ResolvedTerm<'a> {
    engine: &'a Engine,
    /// `None` when the schema lacks the spec's field.
    df: Option<u32>,
    postings: Vec<PostingsList<'a>>,
}

impl ResolvedTerm<'_> {
    /// The term's `TermStats` entry for one document: tf summed over
    /// the matched keys, the engine's weight for that tf, and the
    /// collection document frequency.
    pub fn stats(&self, doc: DocId) -> TermStat {
        let Some(df) = self.df else {
            return TermStat {
                tf: 0,
                weight: 0.0,
                df: 0,
            };
        };
        let tf = self.postings.iter().map(|p| p.tf_of(doc)).sum();
        let engine = self.engine;
        let weight = engine.ranking.term_weight(&engine.stats_for(doc, tf, df));
        TermStat { tf, weight, df }
    }
}

/// Per-leaf query-time state, resolved exactly once per query: the
/// query weight, the collection document frequency, the posting-list
/// slice of every matched vocabulary key, (for comparison leaves) the
/// comparison-matched doc set, and what the Block-Max-WAND cursor walks.
struct LeafCtx<'a> {
    weight: f64,
    df: u32,
    postings: Vec<PostingsList<'a>>,
    cmp_docs: Option<Vec<DocId>>,
    /// Upper bound (weight folded in) on this leaf's contribution to
    /// any local document's score slot.
    bound: f64,
    /// The leaf's postings in block form. `None` without postings.
    blocks: Option<LeafBlocks<'a>>,
    /// Per-block maxima of the leaf's exact term weights (query weight
    /// *not* folded in — applied at use), aligned with `blocks`.
    block_max: Cow<'a, [f64]>,
}

/// What a leaf's Block-Max-WAND cursor walks: one codec, two owners.
enum LeafBlocks<'a> {
    /// Its single key's own list, borrowed from the index's arenas, when
    /// the build-time sidecar bounds it.
    Index(BlockView<'a>),
    /// The query-time merge of [`Engine::bound_at_query_time`].
    Merged(BlockPostings),
}

impl LeafCtx<'_> {
    fn blocks(&self) -> Option<BlockView<'_>> {
        self.blocks.as_ref().map(|b| match b {
            LeafBlocks::Index(view) => *view,
            LeafBlocks::Merged(owned) => owned.view(),
        })
    }

    fn block_max(&self) -> &[f64] {
        &self.block_max
    }
}

/// The bounded heap of a Block-Max-WAND query and the pruning threshold
/// θ it drives: the seeded floor, then the heap's own floor once `k`
/// entries are held.
struct Selection {
    top: TopK,
    theta: f64,
    threshold_updates: u64,
}

impl Selection {
    fn new(k: usize, floor: f64) -> Self {
        let top = TopK::with_floor(k, floor);
        Selection {
            theta: top.threshold(),
            top,
            threshold_updates: 0,
        }
    }

    /// Whether offering `(doc, score)` could change the result: the
    /// score is not strictly below θ and the heap would take it. What
    /// gates a filter's second phase.
    fn wants(&self, doc: DocId, score: f64) -> bool {
        score.partial_cmp(&self.theta) != Some(std::cmp::Ordering::Less)
            && self.top.accepts(doc, score)
    }

    /// Offer a scored document and let a risen heap floor tighten θ.
    fn push(&mut self, doc: DocId, score: f64) {
        self.top.push(doc, score);
        let floor = self.top.threshold();
        if floor > self.theta {
            self.theta = floor;
            self.threshold_updates += 1;
        }
    }
}

/// Aggregate pruning telemetry for one query evaluation (summed across
/// every shard of a [`crate::ShardedEngine`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Work entering ranked evaluation: the total postings across all
    /// query leaves (a multi-key or `cmp` leaf counts its query-time
    /// merged list).
    pub candidates: u64,
    /// Work skipped without computing an exact score: postings the BMW
    /// cursors never rested on, each one an avoided `term_weight`
    /// computation.
    pub skipped_docs: u64,
    /// Whole 128-doc blocks the cursors jumped over without decoding.
    pub blocks_skipped: u64,
    /// Times a heap-floor rise tightened the pruning threshold.
    pub threshold_updates: u64,
    /// Times a filter cursor moved (a filter-only query: once per
    /// document walked; inside the pruned loop: once per candidate the
    /// block bounds let through), the positional tests of ranking
    /// `prox` operators included.
    pub filter_advances: u64,
    /// `prox` position-list comparisons — the filter's second phase, and
    /// the positional test of a `prox` in the ranking expression. A slow
    /// query that shows none did not pay for positions.
    pub positional_checks: u64,
}

impl PruneReport {
    /// Fold another report into this one (aggregation across queries or
    /// shards).
    pub fn merge(&mut self, other: &PruneReport) {
        self.candidates += other.candidates;
        self.skipped_docs += other.skipped_docs;
        self.blocks_skipped += other.blocks_skipped;
        self.threshold_updates += other.threshold_updates;
        self.filter_advances += other.filter_advances;
        self.positional_checks += other.positional_checks;
    }
}

/// Shared atomic tallies behind a [`PruneReport`] — written once per
/// shard evaluation, snapshotted once per query.
#[derive(Debug, Default)]
pub(crate) struct PruneCounters {
    pub(crate) candidates: AtomicU64,
    pub(crate) skipped_docs: AtomicU64,
    pub(crate) blocks_skipped: AtomicU64,
    pub(crate) threshold_updates: AtomicU64,
    pub(crate) filter_advances: AtomicU64,
    pub(crate) positional_checks: AtomicU64,
}

impl PruneCounters {
    /// Snapshot the tallies.
    pub(crate) fn report(&self) -> PruneReport {
        PruneReport {
            candidates: self.candidates.load(Ordering::Relaxed),
            skipped_docs: self.skipped_docs.load(Ordering::Relaxed),
            blocks_skipped: self.blocks_skipped.load(Ordering::Relaxed),
            threshold_updates: self.threshold_updates.load(Ordering::Relaxed),
            filter_advances: self.filter_advances.load(Ordering::Relaxed),
            positional_checks: self.positional_checks.load(Ordering::Relaxed),
        }
    }
}

/// Query-scoped pruning context threaded through the raw evaluators: a
/// raw-score floor (seeded from `min-doc-score` when the ranking
/// algorithm allows it, raised by the shards searched before this one)
/// and the telemetry counters.
#[derive(Clone, Copy)]
pub(crate) struct PruneHooks<'a> {
    pub(crate) floor: f64,
    pub(crate) counters: Option<&'a PruneCounters>,
}

impl PruneHooks<'_> {
    /// No floor, no counting — the behaviour of the public unhooked
    /// entry points.
    pub(crate) const NONE: PruneHooks<'static> = PruneHooks {
        floor: f64::NEG_INFINITY,
        counters: None,
    };

    /// Tally what a filter cursor has cost.
    pub(crate) fn count_filter(&self, cursor: &FilterCursor<'_>) {
        if let Some(c) = self.counters {
            c.filter_advances
                .fetch_add(cursor.advances(), Ordering::Relaxed);
            c.positional_checks
                .fetch_add(cursor.positional_checks(), Ordering::Relaxed);
        }
    }
}

/// The `(doc, tf)` union of posting lists, in doc order, with tf summed
/// per document: each list, decoded a block at a time, merged into the
/// union of the lists before it.
fn merge_postings(lists: &[PostingsList<'_>]) -> Vec<(u32, u32)> {
    let mut merged: Vec<(u32, u32)> = Vec::new();
    let (mut docs, mut tfs) = ([0u32; BLOCK_DOCS], [0u32; BLOCK_DOCS]);
    for list in lists {
        let blocks = list.blocks();
        let mut out = Vec::with_capacity(merged.len() + list.len());
        let mut held = 0;
        for b in 0..blocks.n_blocks() {
            let n = blocks.decode_block_docs_into(b, &mut docs);
            blocks.decode_block_tfs_into(b, &mut tfs);
            for (&doc, &tf) in docs[..n].iter().zip(&tfs[..n]) {
                while held < merged.len() && merged[held].0 < doc {
                    out.push(merged[held]);
                    held += 1;
                }
                let mut tf = tf;
                if held < merged.len() && merged[held].0 == doc {
                    tf += merged[held].1;
                    held += 1;
                }
                out.push((doc, tf));
            }
        }
        out.extend_from_slice(&merged[held..]);
        merged = out;
    }
    merged
}

/// Keep the entries of `list` (ascending docs) whose document is a
/// candidate of the query `leaves` make up: in some `cmp` leaf's
/// comparison matches, or in a non-`cmp` leaf's postings. One forward
/// cursor per posting list, so the walk is a merge-join.
fn retain_candidates(list: &mut Vec<(u32, u32)>, leaves: &[LeafCtx<'_>]) {
    let matches: Vec<&[DocId]> = leaves
        .iter()
        .filter_map(|l| l.cmp_docs.as_deref())
        .collect();
    let mut cursors: Vec<BlockCursor<'_>> = leaves
        .iter()
        .filter(|l| l.cmp_docs.is_none())
        .flat_map(|l| &l.postings)
        .map(|p| BlockCursor::new(p.blocks()))
        .collect();
    list.retain(|&(doc, _)| {
        matches.iter().any(|m| m.binary_search(&DocId(doc)).is_ok())
            || cursors.iter_mut().any(|c| {
                c.next_geq(doc);
                c.doc() == doc
            })
    });
}

/// Whether an optional conjunct — a filter, a `prox` positional test —
/// admits `doc`; an absent one admits everything. Documents must be
/// asked about in increasing order.
fn admits(test: Option<&mut FilterCursor<'_>>, doc: DocId) -> bool {
    match test {
        Some(t) => t.matches(doc),
        None => true,
    }
}

/// Whether a score upper bound rules its documents out of a pruned
/// top-k: strictly below θ (a bound *equal* to θ may be a tie, and ties
/// are never skipped), or not positive — the loop only ever offers
/// positive scores, so documents that cannot score are skipped even
/// while the heap is still filling and θ is its floor. Spelled so that
/// an incomparable (NaN) bound refuses to skip.
fn hopeless(bound: f64, theta: f64) -> bool {
    bound < theta || bound <= 0.0
}

/// Restore the Block-Max WAND frontier `order` (leaf indices keyed by
/// their current doc in `docs`) to ascending doc order. Insertion
/// sort: each advance moves only the already-adjacent prefix cursors
/// forward, so the array is always nearly sorted and the repair is a
/// handful of compares instead of a rebuild.
fn repair_frontier_order(order: &mut [usize], docs: &[u32]) {
    for i in 1..order.len() {
        let mut j = i;
        while j > 0 && docs[order[j - 1]] > docs[order[j]] {
            order.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Leaf count of a subtree — how many [`LeafCtx`] slots it consumes.
fn n_leaves(node: &RankNode) -> usize {
    match node {
        RankNode::Term { .. } => 1,
        RankNode::List(c) | RankNode::And(c) | RankNode::Or(c) => c.iter().map(n_leaves).sum(),
        RankNode::AndNot(a, b) => n_leaves(a) + n_leaves(b),
        RankNode::Prox { left, right, .. } => n_leaves(left) + n_leaves(right),
    }
}

/// [`tree_score`]'s mode where leaf values are upper bounds on any
/// document's leaf scores, and the result bounds its tree score.
const BOUND: bool = false;
/// [`tree_score`]'s mode where leaf values are one document's leaf
/// scores, and the result is its tree score.
const EXACT: bool = true;

/// The leaf values one [`tree_score`] reads, and — in exact mode — what
/// its `prox` nodes ask about.
struct LeafRow<'r, 'a> {
    /// One value per leaf, in the depth-first order `resolve_leaves`
    /// emits.
    vals: &'r [f64],
    /// The next slot of `vals` to read.
    slot: usize,
    /// The document `vals` scores (exact mode).
    doc: DocId,
    /// One positional test per `prox` node, in the order
    /// [`Engine::collect_prox_tests`] compiles them (exact mode). Asked
    /// about documents in increasing order.
    prox_tests: &'r mut [Option<FilterCursor<'a>>],
    /// The next entry of `prox_tests` to ask.
    prox: usize,
}

impl<'r, 'a> LeafRow<'r, 'a> {
    /// A row of per-leaf upper bounds.
    fn bounds(vals: &'r [f64]) -> Self {
        Self::scores(vals, DocId(0), &mut [])
    }

    /// A row of `doc`'s per-leaf values.
    fn scores(vals: &'r [f64], doc: DocId, prox_tests: &'r mut [Option<FilterCursor<'a>>]) -> Self {
        LeafRow {
            vals,
            slot: 0,
            doc,
            prox_tests,
            prox: 0,
        }
    }
}

/// The STARTS §4.1 meaning of a ranking tree over one row of leaf
/// values — the one place the operator arithmetic is written. A
/// weighted `list` sums its children in order over the sum of their
/// weights (0 when that is not positive), `and` is the minimum floored
/// at 0, `or` the maximum from 0, `and-not` attenuates its positive
/// side by `1 − neg` clamped to `[0, 1]`, and `prox` is the fuzzy-`and`
/// base when positive and the positional test passes, else 0.
///
/// With `EXACT` the row is one document's leaf values and the result
/// is its score — what Block-Max-WAND survivors return, bit for bit
/// the oracle's per-document walk. Without it the row holds upper bounds, and two
/// operators read differently so that the result dominates every
/// score those bounds cover: `and-not` returns its positive side (the
/// attenuation is a factor in `[0, 1]` and subtree scores are
/// non-negative), and `prox` asks no positional test (the test only
/// ever zeroes the base). Every other operator is monotone under IEEE
/// round-to-nearest in the same accumulation order, so the bound holds
/// bit-wise with no epsilon slack.
fn tree_score<const EXACT: bool>(node: &RankNode, row: &mut LeafRow<'_, '_>) -> f64 {
    match node {
        RankNode::Term { .. } => {
            let v = row.vals[row.slot];
            row.slot += 1;
            v
        }
        RankNode::List(children) => {
            let mut num = 0.0_f64;
            let mut den = 0.0_f64;
            for c in children {
                num += tree_score::<EXACT>(c, row);
                den += leaf_weight(c);
            }
            if den > 0.0 {
                num / den
            } else {
                0.0
            }
        }
        RankNode::And(children) => {
            if children.is_empty() {
                return 0.0;
            }
            let mut acc = f64::INFINITY;
            for c in children {
                acc = f64::min(acc, tree_score::<EXACT>(c, row));
            }
            f64::max(acc, 0.0)
        }
        RankNode::Or(children) => {
            let mut acc = 0.0_f64;
            for c in children {
                acc = f64::max(acc, tree_score::<EXACT>(c, row));
            }
            acc
        }
        RankNode::AndNot(a, b) => {
            let pos = tree_score::<EXACT>(a, row);
            if !EXACT {
                row.slot += n_leaves(b);
                return pos;
            }
            let neg = tree_score::<EXACT>(b, row);
            pos * (1.0 - neg.clamp(0.0, 1.0))
        }
        RankNode::Prox { left, right, .. } => {
            let l = tree_score::<EXACT>(left, row);
            let r = tree_score::<EXACT>(right, row);
            let test = if EXACT {
                row.prox += 1;
                row.prox_tests[row.prox - 1].as_mut()
            } else {
                None
            };
            let base = l.min(r);
            if base <= 0.0 || !admits(test, row.doc) {
                0.0
            } else {
                base
            }
        }
    }
}

/// Record, per (field, term) key, the float max/min of the exact term
/// weights query-time scoring can produce for that key: the same
/// `term_weight` over the same [`TermDocStats`] (global df/N/avg when
/// sharded, this engine's doc norms) the evaluators compute. Because
/// each recorded max is a float max over identical float values, a
/// leaf's upper bound holds exactly — no epsilon at the leaf level.
fn compute_term_bounds(
    index: &Index,
    ranking: &dyn RankingAlgorithm,
    collection: Option<&CollectionStats>,
    doc_norms: &[f64],
) -> TermBounds {
    let (n_docs, avg_tokens) = match collection {
        Some(c) => (c.n_docs(), c.avg_doc_tokens()),
        None => (index.n_docs(), index.avg_doc_tokens()),
    };
    let mut out = TermBounds::with_capacity(index.n_keys(), index.n_blocks());
    for (field, term, postings) in index.all_postings() {
        let df = match collection {
            Some(c) => c.df(field, term),
            None => postings.len() as u32,
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        // The maxima are kept per block, chunked exactly as the list's
        // blocks are (every block full except the last), so they line
        // up one-to-one with the index's block ordinal the BMW cursors
        // walk; the whole-list maximum is the largest.
        let mut bmax = f64::NEG_INFINITY;
        for (i, (doc, tf)) in postings.docs_tfs().enumerate() {
            let st = TermDocStats {
                tf,
                df,
                n_docs,
                doc_tokens: index.doc_token_count(doc),
                avg_tokens,
                doc_norm: doc_norms[doc.0 as usize],
            };
            let w = ranking.term_weight(&st);
            // `total_cmp` extrema: a NaN weight poisons the envelope
            // (it sorts above +inf / below -inf), correctly disabling
            // pruning for the key.
            if w.total_cmp(&min).is_lt() {
                min = w;
            }
            if w.total_cmp(&bmax).is_gt() {
                bmax = w;
            }
            if (i + 1) % BLOCK_DOCS == 0 || i + 1 == postings.len() {
                if bmax.total_cmp(&max).is_gt() {
                    max = bmax;
                }
                out.push_block(bmax);
                bmax = f64::NEG_INFINITY;
            }
        }
        out.push_key(max, min);
    }
    debug_assert_eq!(out.n_blocks(), index.n_blocks(), "one maximum per block");
    out
}

fn leaf_weight(node: &RankNode) -> f64 {
    match node {
        RankNode::Term { weight, .. } => *weight,
        _ => 1.0,
    }
}

fn compute_doc_norms(
    index: &Index,
    ranking: &dyn RankingAlgorithm,
    collection: Option<&CollectionStats>,
) -> Vec<f64> {
    let n = index.n_docs() as usize;
    let mut sq = vec![0.0_f64; n];
    let (n_docs, avg) = match collection {
        Some(c) => (c.n_docs(), c.avg_doc_tokens()),
        None => (index.n_docs(), index.avg_doc_tokens()),
    };
    // Accumulate in sorted term order: each document then sums its
    // squared term weights in the same sequence whether the index is
    // monolithic or one shard of many, making the floating-point norms
    // (and thus every downstream score) bit-identical across shardings.
    // A term's weight in a document is its unfielded one: tf summed over
    // the term's field lists as an integer, weighed once with its `Any`
    // df.
    let mut keys: Vec<(&str, u32, u32)> = index.term_keys().collect();
    keys.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut tfs = vec![0u32; n];
    let mut touched: Vec<DocId> = Vec::new();
    for run in keys.chunk_by(|a, b| a.0 == b.0) {
        let (term, local_df, _) = run[0];
        let df = match collection {
            Some(c) => c.df(ANY_FIELD, term),
            None => local_df,
        };
        let mut add = |doc: DocId, tf: u32| {
            let st = TermDocStats {
                tf,
                df,
                n_docs,
                doc_tokens: index.doc_token_count(doc),
                avg_tokens: avg,
                doc_norm: 1.0,
            };
            let w = ranking.unnormalized_weight(&st);
            sq[doc.0 as usize] += w * w;
        };
        if let [(_, _, slot)] = run {
            for (doc, tf) in index.list(*slot).docs_tfs() {
                add(doc, tf);
            }
            continue;
        }
        for &(_, _, slot) in run {
            for (doc, tf) in index.list(slot).docs_tfs() {
                let sum = &mut tfs[doc.0 as usize];
                if *sum == 0 {
                    touched.push(doc);
                }
                *sum += tf;
            }
        }
        for doc in touched.drain(..) {
            add(doc, std::mem::take(&mut tfs[doc.0 as usize]));
        }
    }
    sq.into_iter().map(f64::sqrt).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchspec::TermMatch;
    use starts_text::StopWordList;
    use std::collections::HashMap;

    fn corpus() -> Vec<Document> {
        vec![
            // doc 0
            Document::new()
                .field("title", "Deductive and Object-Oriented Database Systems")
                .field("author", "Jeffrey D. Ullman")
                .field(
                    "body-of-text",
                    "A comparison of distributed databases and deductive databases systems",
                )
                .field("date-last-modified", "1996-03-31")
                .field("linkage", "http://example.org/dood.ps"),
            // doc 1
            Document::new()
                .field("title", "Database Research Achievements")
                .field("author", "Avi Silberschatz Mike Stonebraker Jeff Ullman")
                .field(
                    "body-of-text",
                    "Research achievements and opportunities for databases into the next century",
                )
                .field("date-last-modified", "1996-09-15")
                .field("linkage", "http://example.org/lagunita.ps"),
            // doc 2
            Document::new()
                .field("title", "Operating Systems Scheduling")
                .field("author", "Andrew Tanenbaum")
                .field(
                    "body-of-text",
                    "Scheduling and paging for distributed operating systems kernels",
                )
                .field("date-last-modified", "1995-01-20")
                .field("linkage", "http://example.org/os.ps"),
        ]
    }

    fn engine() -> Engine {
        Engine::build(
            &corpus(),
            EngineConfig {
                analyzer: AnalyzerConfig {
                    stop_words: StopWordList::english_minimal(),
                    ..AnalyzerConfig::default()
                },
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn boolean_and() {
        let e = engine();
        // (author "Ullman") and (title "database"-ish)
        let q = BoolNode::and(
            BoolNode::Term(TermSpec::fielded("author", "Ullman")),
            BoolNode::Term(TermSpec::fielded("title", "database")),
        );
        // Both Ullman docs have "database" in their titles.
        assert_eq!(e.eval_filter(&q), vec![DocId(0), DocId(1)]);
    }

    #[test]
    fn boolean_or_and_not() {
        let e = engine();
        let distributed = BoolNode::Term(TermSpec::any("distributed"));
        let databases = BoolNode::Term(TermSpec::any("databases"));
        let or = BoolNode::or(distributed.clone(), databases.clone());
        assert_eq!(e.eval_filter(&or), vec![DocId(0), DocId(1), DocId(2)]);
        let and_not = BoolNode::and_not(distributed, databases);
        assert_eq!(e.eval_filter(&and_not), vec![DocId(2)]);
    }

    #[test]
    fn prox_ordered() {
        let e = engine();
        // "distributed databases" adjacent in doc 0's body.
        let q = BoolNode::Prox {
            left: TermSpec::any("distributed"),
            right: TermSpec::any("databases"),
            distance: 0,
            ordered: true,
        };
        assert_eq!(e.eval_filter(&q), vec![DocId(0)]);
        // Reverse order matches nothing at distance 0.
        let q = BoolNode::Prox {
            left: TermSpec::any("databases"),
            right: TermSpec::any("distributed"),
            distance: 0,
            ordered: true,
        };
        assert!(e.eval_filter(&q).is_empty());
    }

    #[test]
    fn stem_modifier_via_scan() {
        let e = engine();
        // Engine does not stem its index, so `stem` triggers a vocabulary
        // scan: "databases" should match title word "database".
        let q = BoolNode::Term(TermSpec::fielded("title", "databases").with(TermMatch::Stem));
        let docs = e.eval_filter(&q);
        assert_eq!(docs, vec![DocId(0), DocId(1)]);
    }

    #[test]
    fn phonetic_modifier() {
        let mut docs = corpus();
        docs.push(Document::new().field("author", "Jeffrey Ulman")); // misspelled
        let e = Engine::build(&docs, EngineConfig::default());
        let q = BoolNode::Term(TermSpec::fielded("author", "Ullman").with(TermMatch::Phonetic));
        let found = e.eval_filter(&q);
        assert!(found.contains(&DocId(3)));
        assert!(found.contains(&DocId(0)));
    }

    #[test]
    fn date_comparison() {
        let e = engine();
        // (date-last-modified > "1996-08-01") — the §4.1.1 example.
        let q = BoolNode::Term(
            TermSpec::fielded("date-last-modified", "1996-08-01").with_cmp(CmpOp::Gt),
        );
        assert_eq!(e.eval_filter(&q), vec![DocId(1)]);
        let q = BoolNode::Term(
            TermSpec::fielded("date-last-modified", "1996-03-31").with_cmp(CmpOp::Le),
        );
        assert_eq!(e.eval_filter(&q), vec![DocId(0), DocId(2)]);
    }

    #[test]
    fn ranking_orders_by_relevance() {
        let e = engine();
        let r = RankNode::List(vec![
            RankNode::term(TermSpec::fielded("body-of-text", "databases")),
            RankNode::term(TermSpec::fielded("body-of-text", "distributed")),
        ]);
        let ranked = e.eval_ranking(&r);
        assert!(!ranked.is_empty());
        // doc 0 mentions both terms (databases twice) — it must lead.
        assert_eq!(ranked[0].0, DocId(0));
        // Scores bounded by Acme-1's [0,1] range.
        for (_, s) in &ranked {
            assert!(*s >= 0.0 && *s <= 1.0 + 1e-9, "score {s} out of range");
        }
    }

    #[test]
    fn fuzzy_and_is_min_like() {
        let e = engine();
        let and = RankNode::And(vec![
            RankNode::term(TermSpec::any("distributed")),
            RankNode::term(TermSpec::any("databases")),
        ]);
        let or = RankNode::Or(vec![
            RankNode::term(TermSpec::any("distributed")),
            RankNode::term(TermSpec::any("databases")),
        ]);
        let and_scores: HashMap<DocId, f64> = e.eval_ranking(&and).into_iter().collect();
        let or_scores: HashMap<DocId, f64> = e.eval_ranking(&or).into_iter().collect();
        // For any doc scored by both, and-score <= or-score.
        for (doc, s_and) in &and_scores {
            let s_or = or_scores.get(doc).copied().unwrap_or(0.0);
            assert!(*s_and <= s_or + 1e-12);
        }
        // Doc 2 has "distributed" but not "databases": and-score 0 (absent),
        // or-score positive.
        assert!(!and_scores.contains_key(&DocId(2)));
        assert!(or_scores.contains_key(&DocId(2)));
    }

    #[test]
    fn non_fuzzy_engine_flattens_to_list() {
        let docs = corpus();
        let e = Engine::build(
            &docs,
            EngineConfig {
                fuzzy_ranking_ops: false,
                ..EngineConfig::default()
            },
        );
        let and = RankNode::And(vec![
            RankNode::term(TermSpec::any("distributed")),
            RankNode::term(TermSpec::any("databases")),
        ]);
        let list = RankNode::List(vec![
            RankNode::term(TermSpec::any("distributed")),
            RankNode::term(TermSpec::any("databases")),
        ]);
        assert_eq!(e.eval_ranking(&and), e.eval_ranking(&list));
        // On this engine doc 2 (only "distributed") DOES score for `and`.
        assert!(e.eval_ranking(&and).iter().any(|(d, _)| *d == DocId(2)));
    }

    #[test]
    fn weighted_list_prefers_weighted_term() {
        let e = engine();
        // Example 5: list(("distributed" 0.7) ("databases" 0.3)).
        let favor_distributed = RankNode::List(vec![
            RankNode::weighted(TermSpec::any("distributed"), 0.9),
            RankNode::weighted(TermSpec::any("databases"), 0.1),
        ]);
        let favor_databases = RankNode::List(vec![
            RankNode::weighted(TermSpec::any("distributed"), 0.1),
            RankNode::weighted(TermSpec::any("databases"), 0.9),
        ]);
        let d: HashMap<DocId, f64> = e.eval_ranking(&favor_distributed).into_iter().collect();
        let b: HashMap<DocId, f64> = e.eval_ranking(&favor_databases).into_iter().collect();
        // Doc 2 (distributed only) scores better under the first query.
        assert!(d[&DocId(2)] > b.get(&DocId(2)).copied().unwrap_or(0.0));
    }

    #[test]
    fn filter_plus_ranking_keeps_filter_membership() {
        let e = engine();
        let filter = BoolNode::Term(TermSpec::fielded("author", "Ullman"));
        let ranking = RankNode::term(TermSpec::any("scheduling"));
        let hits = e.search(Some(&filter), Some(&ranking));
        // Both Ullman docs stay in the result even though neither mentions
        // scheduling (score 0) — the filter decides membership.
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.score == Some(0.0)));
    }

    #[test]
    fn search_modes() {
        let e = engine();
        assert!(e.search(None, None).is_empty());
        let f = BoolNode::Term(TermSpec::any("systems"));
        let set = e.search(Some(&f), None);
        assert!(set.iter().all(|h| h.score.is_none()));
        let r = RankNode::term(TermSpec::any("systems"));
        let ranked = e.search(None, Some(&r));
        assert!(ranked.iter().all(|h| h.score.is_some()));
        // Ranked results are sorted descending.
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn vendor_engine_scores_to_1000() {
        let e = Engine::build(
            &corpus(),
            EngineConfig {
                ranking_id: "Vendor-K".to_string(),
                ..EngineConfig::default()
            },
        );
        let r = RankNode::term(TermSpec::any("databases"));
        let ranked = e.eval_ranking(&r);
        assert!((ranked[0].1 - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn term_stats_match_paper_shape() {
        let e = engine();
        let spec = TermSpec::fielded("body-of-text", "databases");
        let st = e.term_stats(DocId(0), &spec);
        assert_eq!(st.tf, 2); // "databases" twice in doc 0's body
        assert_eq!(st.df, 2); // docs 0 and 1 contain it in body
        assert!(st.weight > 0.0);
        let none = e.term_stats(DocId(2), &spec);
        assert_eq!(none.tf, 0);
    }

    #[test]
    fn unknown_field_matches_nothing() {
        let e = engine();
        let q = BoolNode::Term(TermSpec::fielded("abstract", "databases"));
        assert!(e.eval_filter(&q).is_empty());
        let st = e.term_stats(DocId(0), &TermSpec::fielded("abstract", "databases"));
        assert_eq!(st.df, 0);
    }

    #[test]
    fn stemming_engine_direct_lookup() {
        let e = Engine::build(
            &corpus(),
            EngineConfig {
                analyzer: AnalyzerConfig {
                    stem: true,
                    ..AnalyzerConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        // Plain query "database" matches docs containing "databases" —
        // the engine stems everything.
        let q = BoolNode::Term(TermSpec::any("database"));
        let docs = e.eval_filter(&q);
        assert!(docs.contains(&DocId(0)) && docs.contains(&DocId(1)));
    }

    #[test]
    fn thesaurus_modifier() {
        let e = Engine::build(
            &corpus(),
            EngineConfig {
                thesaurus: starts_text::Thesaurus::computer_science(),
                ..EngineConfig::default()
            },
        );
        // "dbms" expands to database/databases via the thesaurus.
        let q = BoolNode::Term(TermSpec::any("dbms").with(TermMatch::Thesaurus));
        let docs = e.eval_filter(&q);
        assert!(docs.contains(&DocId(0)));
        assert!(docs.contains(&DocId(1)));
    }

    #[test]
    fn truncation_modifiers() {
        let e = engine();
        let right = BoolNode::Term(TermSpec::any("schedul").with(TermMatch::RightTrunc));
        assert_eq!(e.eval_filter(&right), vec![DocId(2)]);
        let left = BoolNode::Term(TermSpec::any("bases").with(TermMatch::LeftTrunc));
        let docs = e.eval_filter(&left);
        assert!(docs.contains(&DocId(0)));
    }

    #[test]
    fn fast_path_agrees_with_naive_walk() {
        let e = engine();
        let exprs = vec![
            RankNode::List(vec![
                RankNode::weighted(TermSpec::any("distributed"), 0.7),
                RankNode::weighted(TermSpec::any("databases"), 0.3),
            ]),
            RankNode::And(vec![
                RankNode::term(TermSpec::any("distributed")),
                RankNode::term(TermSpec::any("systems")),
            ]),
            RankNode::Or(vec![
                RankNode::term(TermSpec::any("scheduling")),
                RankNode::term(TermSpec::any("databases")),
            ]),
            RankNode::AndNot(
                Box::new(RankNode::term(TermSpec::any("systems"))),
                Box::new(RankNode::term(TermSpec::any("paging"))),
            ),
            RankNode::Prox {
                left: Box::new(RankNode::term(TermSpec::any("distributed"))),
                right: Box::new(RankNode::term(TermSpec::any("databases"))),
                distance: 0,
                ordered: true,
            },
        ];
        for expr in &exprs {
            let naive = e.eval_ranking_naive(expr);
            assert_eq!(e.eval_ranking(expr), naive, "{expr:?}");
            for k in 0..=naive.len() + 1 {
                let bounded = e.eval_ranking_top_k(expr, Some(k));
                assert_eq!(bounded, naive[..k.min(naive.len())], "{expr:?} k={k}");
            }
        }
    }

    #[test]
    fn search_top_k_truncates_every_mode() {
        let e = engine();
        let f = BoolNode::Term(TermSpec::any("systems"));
        let r = RankNode::term(TermSpec::any("databases"));
        for (filter, ranking) in [(Some(&f), None), (None, Some(&r)), (Some(&f), Some(&r))] {
            let full = e.search(filter, ranking);
            for k in 0..=full.len() + 1 {
                let bounded = e.search_top_k(filter, ranking, Some(k));
                assert_eq!(bounded, full[..k.min(full.len())], "k={k}");
            }
        }
    }

    #[test]
    fn cmp_leaves_keep_their_candidates_on_the_fast_path() {
        // A comparison leaf inside a ranking expression: its candidates
        // come from the stored-value comparison, not the inverted
        // index, while its value comes from its term's postings. Doc 3
        // holds the term "1995" but matches neither the comparison nor
        // `alpha`, so it is no candidate and must not score — although
        // its posting on the `cmp` leaf is positive.
        let docs: Vec<Document> = [
            ("1995", "alpha"),
            ("1996", "beta"),
            ("1997", "alpha"),
            ("1995", "beta"),
        ]
        .map(|(year, body)| {
            Document::new()
                .field("year", year)
                .field("body-of-text", body)
        })
        .to_vec();
        for ranking_id in ["Acme-1", "Plain-1"] {
            let e = Engine::build(
                &docs,
                EngineConfig {
                    ranking_id: ranking_id.to_string(),
                    ..EngineConfig::default()
                },
            );
            let expr = RankNode::List(vec![
                RankNode::term(TermSpec::any("alpha")),
                RankNode::term(TermSpec::fielded("year", "1995").with_cmp(CmpOp::Gt)),
            ]);
            let naive = e.eval_ranking_naive(&expr);
            assert!(naive.iter().all(|&(doc, _)| doc != DocId(3)), "{naive:?}");
            assert_eq!(e.eval_ranking(&expr), naive);
            for k in 0..=naive.len() + 1 {
                let bounded = e.eval_ranking_top_k(&expr, Some(k));
                assert_eq!(bounded, naive[..k.min(naive.len())], "k={k}");
            }
            // Under a filter every filter document is scored, doc 3 too.
            let filter = BoolNode::Term(TermSpec::any("beta"));
            assert_eq!(
                e.search(Some(&filter), Some(&expr)),
                e.search_naive(Some(&filter), Some(&expr))
            );
        }
    }

    #[test]
    fn empty_engine_is_sane() {
        let e = Engine::build(&[], EngineConfig::default());
        assert!(e
            .eval_filter(&BoolNode::Term(TermSpec::any("anything")))
            .is_empty());
        assert!(e
            .eval_ranking(&RankNode::term(TermSpec::any("anything")))
            .is_empty());
    }
}
