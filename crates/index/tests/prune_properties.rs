//! Property-based tests for dynamic pruning: the Block-Max-WAND top-k
//! path must be *bit-identical* — scores, ordering, and doc-id
//! tie-breaks — to the naive full-sort oracle (`Engine::search_naive`,
//! `Engine::eval_ranking_naive`), for every ranking algorithm, for flat
//! weighted term lists, for the and/or/weighted/prox operator trees BMW
//! prunes *through* (prox via its positions-ignored over-estimate;
//! survivors still run the exact positional check), and for arbitrary
//! expressions, across shard counts {1, 2, 3, 7} and
//! k ∈ {1, 10, > corpus}.

use proptest::prelude::*;
use starts_index::{
    BoolNode, Document, Engine, EngineConfig, PositionsMode, RankNode, SearchOptions, ShardPolicy,
    ShardedEngine, TermSpec,
};

/// The same tiny closed vocabulary the other property suites use, so
/// queries hit documents and equal scores (hence tie-breaks) are common.
const VOCAB: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

/// Shard counts exercised: 1 (monolithic delegation), 2, 3 (uneven
/// split), 7 (more shards than hits per shard).
const SHARD_COUNTS: &[usize] = &[1, 2, 3, 7];

fn arb_doc() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..VOCAB.len(), 1..25)
}

fn arb_corpus() -> impl Strategy<Value = Vec<Document>> {
    proptest::collection::vec(arb_doc(), 1..20).prop_map(|docs| {
        docs.into_iter()
            .map(|words| {
                let body: Vec<&str> = words.iter().map(|&w| VOCAB[w]).collect();
                Document::new().field("body-of-text", body.join(" "))
            })
            .collect()
    })
}

/// A weighted term leaf (weights quantized so equal weights — and so
/// score ties — actually occur).
fn arb_leaf() -> impl Strategy<Value = RankNode> {
    (0..VOCAB.len(), 1u32..=4)
        .prop_map(|(w, q)| RankNode::weighted(TermSpec::any(VOCAB[w]), f64::from(q) * 0.25))
}

/// A flat weighted `list(...)` of plain term leaves — the classic WAND
/// workload shape, always eligible for the block-max evaluator.
fn arb_flat_list() -> impl Strategy<Value = RankNode> {
    prop_oneof![
        arb_leaf(),
        proptest::collection::vec(arb_leaf(), 1..5).prop_map(RankNode::List),
    ]
}

/// An operator tree of the shapes Block-Max WAND prunes through by
/// propagating per-block bounds bottom-up: and/or/weighted plus
/// term-term `prox`, whose bound is the positions-ignored fuzzy-`and`
/// over-estimate (survivors rerun the exact positional check).
fn arb_bmw_tree() -> impl Strategy<Value = RankNode> {
    arb_leaf().prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(RankNode::List),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(RankNode::And),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(RankNode::Or),
            (inner.clone(), inner).prop_map(|(a, b)| RankNode::AndNot(Box::new(a), Box::new(b))),
            (arb_leaf(), arb_leaf(), 0u32..6, any::<bool>()).prop_map(
                |(l, r, distance, ordered)| RankNode::Prox {
                    left: Box::new(l),
                    right: Box::new(r),
                    distance,
                    ordered,
                }
            ),
        ]
    })
}

/// A ranking expression using every operator the engine scores —
/// including `prox` over arbitrary (non-leaf) subtrees, which the
/// block-max evaluator still bounds soundly via the positions-ignored
/// over-estimate before the exact rescore decides the doc.
fn arb_rank_expr() -> impl Strategy<Value = RankNode> {
    arb_leaf().prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(RankNode::List),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(RankNode::And),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(RankNode::Or),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RankNode::AndNot(Box::new(a), Box::new(b))),
            (inner.clone(), inner, 0u32..6, any::<bool>()).prop_map(|(l, r, distance, ordered)| {
                RankNode::Prox {
                    left: Box::new(l),
                    right: Box::new(r),
                    distance,
                    ordered,
                }
            }),
        ]
    })
}

fn arb_ranking_id() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("Acme-1"),
        Just("Vendor-K"),
        Just("Okapi-1"),
        Just("Plain-1"),
    ]
}

fn config(ranking_id: &str, shards: usize) -> EngineConfig {
    EngineConfig {
        ranking_id: ranking_id.to_string(),
        fuzzy_ranking_ops: true,
        shards,
        // The properties quantify over physical shard counts — build
        // exactly what the strategy drew, whatever machine runs CI.
        shard_policy: ShardPolicy::Exact,
        ..EngineConfig::default()
    }
}

/// The k values the issue calls out: 1 (tight threshold, maximum
/// skipping), 10 (typical page), and one past any corpus size here
/// (heap never fills — pruning must be a silent no-op).
fn limits(n_docs: usize) -> [usize; 3] {
    [1, 10, n_docs + 5]
}

/// The pruner must actually engage — not just fall back to the exact
/// path — on the workload shape it targets. One heavy doc sets a high
/// threshold; the light docs' upper bounds fall strictly below it, so
/// they are skipped without scoring. Deterministic on purpose: a
/// regression that silently disables pruning fails here, not just in
/// the benchmarks.
#[test]
fn pruner_engages_on_skewed_corpus() {
    let mut docs = vec![Document::new().field("body-of-text", "omega omega omega alpha")];
    for _ in 0..9 {
        docs.push(Document::new().field("body-of-text", "alpha"));
    }
    let engine = ShardedEngine::build(&docs, config("Plain-1", 1));
    let expr = RankNode::List(vec![
        RankNode::term(TermSpec::fielded("body-of-text", "alpha")),
        RankNode::term(TermSpec::fielded("body-of-text", "omega")),
    ]);
    let (hits, _, report) = engine.search_top_k_observed(
        None,
        Some(&expr),
        &SearchOptions {
            limit: Some(1),
            min_score: f64::NEG_INFINITY,
        },
    );
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].doc, starts_index::DocId(0));
    assert!(report.skipped_docs > 0, "pruner never skipped: {report:?}");
    assert!(report.threshold_updates >= 1, "{report:?}");
    assert!(report.candidates >= 10, "{report:?}");
}

/// Block-Max WAND must actually *skip whole blocks without decoding
/// them*, not merely skip documents. Two heavy docs (0 and 650) pin the
/// threshold above everything a lone `alpha` can score; the ~5 blocks
/// of light docs between them are non-competitive, so the `alpha`
/// cursor's `next_geq(650)` must jump straight over them via headers
/// alone. Deterministic: a regression that decodes every block (or
/// disables block skipping) fails here, not just in the benchmarks.
#[test]
fn block_max_wand_skips_blocks() {
    let heavy = "omega omega omega alpha";
    let mut docs = Vec::with_capacity(700);
    for d in 0..700 {
        let body = if d == 0 || d == 650 { heavy } else { "alpha" };
        docs.push(Document::new().field("body-of-text", body));
    }
    let engine = ShardedEngine::build(&docs, config("Plain-1", 1));
    let expr = RankNode::List(vec![
        RankNode::term(TermSpec::fielded("body-of-text", "alpha")),
        RankNode::term(TermSpec::fielded("body-of-text", "omega")),
    ]);
    let opts = SearchOptions {
        limit: Some(1),
        min_score: f64::NEG_INFINITY,
    };
    let (hits, _, report) = engine.search_top_k_observed(None, Some(&expr), &opts);
    assert_eq!(hits.len(), 1);
    // Docs 0 and 650 tie at (1 + 3) / 2 = 2.0; the smaller doc id wins.
    assert_eq!(hits[0].doc, starts_index::DocId(0));
    // `alpha` spans 6 blocks (ceil(700 / 128)); the seek to doc 650 must
    // leap blocks 1-4 with only header arithmetic.
    assert!(
        report.blocks_skipped >= 4,
        "no block-level skips: {report:?}"
    );
    assert!(report.skipped_docs > 600, "{report:?}");
    assert!(report.candidates >= 700, "{report:?}");
    // Skipping must not have changed the answer.
    let oracle = Engine::build(&docs, config("Plain-1", 1));
    assert_eq!(hits, oracle.search_naive(None, Some(&expr))[..1]);
}

/// Block-Max WAND must prune *through* `prox`, not fall back on it:
/// the positions-ignored fuzzy-`and` bound lets the evaluator skip
/// docs holding only one of the two terms, while survivors still run
/// the exact positional check. Same skewed corpus as
/// `block_max_wand_skips_blocks` — docs 0 and 650 contain the adjacent
/// pair, everything else only `alpha`, so once doc 0 sets the
/// threshold every `alpha`-only doc has upper bound
/// `max(min(0, w_alpha), 0) = 0` and is skipped without decoding
/// positions. Deterministic: a regression that demotes `prox` back to
/// the exact scan fails here, not just in the benchmarks.
#[test]
fn bmw_prunes_through_prox() {
    let heavy = "omega alpha filler";
    let mut docs = Vec::with_capacity(700);
    for d in 0..700 {
        let body = if d == 0 || d == 650 { heavy } else { "alpha" };
        docs.push(Document::new().field("body-of-text", body));
    }
    let expr = RankNode::Prox {
        left: Box::new(RankNode::term(TermSpec::fielded("body-of-text", "omega"))),
        right: Box::new(RankNode::term(TermSpec::fielded("body-of-text", "alpha"))),
        distance: 0,
        ordered: true,
    };
    let opts = SearchOptions {
        limit: Some(1),
        min_score: f64::NEG_INFINITY,
    };
    let engine = ShardedEngine::build(&docs, config("Plain-1", 1));
    let (hits, _, report) = engine.search_top_k_observed(None, Some(&expr), &opts);
    assert_eq!(hits.len(), 1);
    // Docs 0 and 650 tie; the smaller doc id wins.
    assert_eq!(hits[0].doc, starts_index::DocId(0));
    assert!(
        report.skipped_docs > 600,
        "prox tree fell back to the exact scan: {report:?}"
    );
    // Skipping through the over-estimate must not change the answer.
    let oracle = Engine::build(&docs, config("Plain-1", 1));
    assert_eq!(hits, oracle.search_naive(None, Some(&expr))[..1]);
}

proptest! {
    /// Pruned top-k ≡ the first `k` of the naive full sort, on the flat
    /// weighted lists the pruner actually accelerates, for every
    /// ranking algorithm.
    #[test]
    fn pruned_top_k_equals_naive(
        docs in arb_corpus(),
        expr in arb_flat_list(),
        ranking_id in arb_ranking_id(),
    ) {
        let engine = Engine::build(&docs, config(ranking_id, 1));
        let full = engine.eval_ranking_naive(&expr);
        for k in limits(docs.len()) {
            let bounded = engine.eval_ranking_top_k(&expr, Some(k));
            prop_assert_eq!(&bounded[..], &full[..k.min(full.len())], "k={}", k);
        }
    }

    /// Block-Max WAND over and/or/weighted operator *trees* ≡ the first
    /// `k` of the naive full sort, for every ranking algorithm and
    /// every k regime — the per-block bounds propagated bottom-up
    /// through the tree must never skip a document that belongs in the
    /// answer, and survivors must be rescored in exact tree order.
    #[test]
    fn bmw_tree_equals_naive(
        docs in arb_corpus(),
        expr in arb_bmw_tree(),
        ranking_id in arb_ranking_id(),
    ) {
        let engine = Engine::build(&docs, config(ranking_id, 1));
        let full = engine.eval_ranking_naive(&expr);
        for k in limits(docs.len()) {
            let bounded = engine.eval_ranking_top_k(&expr, Some(k));
            prop_assert_eq!(&bounded[..], &full[..k.min(full.len())], "k={}", k);
        }
    }

    /// Block-max sharded fan-out on operator trees ≡ the first `k` of
    /// the monolithic oracle, at every shard count and k regime.
    #[test]
    fn bmw_tree_sharded_equals_unpruned_monolithic(
        docs in arb_corpus(),
        expr in arb_bmw_tree(),
        ranking_id in arb_ranking_id(),
    ) {
        let mono = Engine::build(&docs, config(ranking_id, 1));
        let full = mono.search_naive(None, Some(&expr));
        for &shards in SHARD_COUNTS {
            let sharded = ShardedEngine::build(&docs, config(ranking_id, shards));
            for k in limits(docs.len()) {
                let got = sharded.search_top_k(None, Some(&expr), Some(k));
                prop_assert_eq!(&got[..], &full[..k.min(full.len())], "shards={} k={}", shards, k);
            }
        }
    }

    /// The one ranked path ≡ the naive oracle on arbitrary operator
    /// trees, bounded and unbounded: every leaf shape is bounded —
    /// `prox` by its positions-ignored over-estimate, multi-key and
    /// `cmp` leaves by a sidecar built at query time.
    #[test]
    fn arbitrary_trees_equal_naive(
        docs in arb_corpus(),
        expr in arb_rank_expr(),
        ranking_id in arb_ranking_id(),
        k in 0usize..25,
    ) {
        let engine = Engine::build(&docs, config(ranking_id, 1));
        let full = engine.eval_ranking_naive(&expr);
        prop_assert_eq!(engine.eval_ranking_top_k(&expr, None), full.clone());
        prop_assert_eq!(&engine.eval_ranking_top_k(&expr, Some(k))[..], &full[..k.min(full.len())]);
    }

    /// Pruned sharded search (the floor carried from shard to shard) ≡
    /// the first `k` of the monolithic oracle, in every query mode, at
    /// every shard count — and the pruning report is a function of the
    /// query: asking twice reports the same work.
    #[test]
    fn pruned_sharded_equals_unpruned_monolithic(
        docs in arb_corpus(),
        filter_term in 0..VOCAB.len(),
        expr in arb_flat_list(),
        ranking_id in arb_ranking_id(),
    ) {
        let mono = Engine::build(&docs, config(ranking_id, 1));
        let filter = BoolNode::Term(TermSpec::any(VOCAB[filter_term]));
        for &shards in SHARD_COUNTS {
            let sharded = ShardedEngine::build(&docs, config(ranking_id, shards));
            for (f, r) in [
                (Some(&filter), None),
                (None, Some(&expr)),
                (Some(&filter), Some(&expr)),
            ] {
                let full = mono.search_naive(f, r);
                for k in limits(docs.len()) {
                    let opts = SearchOptions { limit: Some(k), ..SearchOptions::default() };
                    let expect = &full[..k.min(full.len())];
                    let (got, _, report) = sharded.search_top_k_observed(f, r, &opts);
                    let (_, _, again) = sharded.search_top_k_observed(f, r, &opts);
                    prop_assert_eq!(
                        &got[..], expect,
                        "shards={} k={} filter={} ranked={}",
                        shards, k, f.is_some(), r.is_some()
                    );
                    prop_assert_eq!(report, again, "shards={} k={}", shards, k);
                }
            }
        }
    }

    /// Retiring the positional store must not perturb prox-free
    /// ranking: an engine built with `PositionsMode::None` serves the
    /// classic WAND workload bit-identically to the default engine —
    /// search runs entirely off the block postings either way.
    #[test]
    fn positions_none_matches_all_on_flat_lists(
        docs in arb_corpus(),
        expr in arb_flat_list(),
        ranking_id in arb_ranking_id(),
        k in 1usize..25,
    ) {
        let all = Engine::build(&docs, config(ranking_id, 1));
        let none = Engine::build(
            &docs,
            EngineConfig {
                positions: PositionsMode::None,
                ..config(ranking_id, 1)
            },
        );
        prop_assert_eq!(
            all.eval_ranking_top_k(&expr, Some(k)),
            none.eval_ranking_top_k(&expr, Some(k))
        );
    }

    /// Seeding the heap floor from `min_score` never changes the
    /// surviving results: `search_top_k_observed` with a floor ≡ the
    /// plain search post-filtered to `score ≥ min`. Covers the
    /// algorithms where the floor is live (identity finalize) and where
    /// it must be ignored (Vendor-K rescales after selection).
    #[test]
    fn min_score_floor_matches_post_filter(
        docs in arb_corpus(),
        expr in arb_flat_list(),
        ranking_id in arb_ranking_id(),
        min_q in 0u32..8,
        k in 1usize..25,
    ) {
        let min_score = f64::from(min_q) * 0.5;
        for &shards in SHARD_COUNTS {
            let sharded = ShardedEngine::build(&docs, config(ranking_id, shards));
            let plain = sharded.search_top_k(None, Some(&expr), Some(k));
            let expect: Vec<_> = plain
                .into_iter()
                .filter(|h| h.score.is_some_and(|s| s >= min_score))
                .collect();
            let (got, _, _) = sharded.search_top_k_observed(
                None,
                Some(&expr),
                &SearchOptions { limit: Some(k), min_score },
            );
            let got: Vec<_> = got
                .into_iter()
                .filter(|h| h.score.is_some_and(|s| s >= min_score))
                .collect();
            prop_assert_eq!(got, expect, "shards={} min={}", shards, min_score);
        }
    }
}
