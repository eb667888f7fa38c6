//! Property-based tests for the filter cursor algebra (`filter.rs`) and
//! its place inside the pruned top-k loop:
//!
//! * draining a filter's cursor yields exactly the set the set-algebra
//!   reference evaluator (`Engine::eval_filter_sets`) builds, for every
//!   operator, nesting, term-match shape and positions mode — and a
//!   bounded filter-only query is that set's prefix at every shard count;
//! * a filtered, ranked, bounded query returns exactly the prefix of the
//!   naive oracle (`Engine::search_naive`: brute-force set, per-document
//!   walk, full sort) — scores bit-equal, ties in doc order, the
//!   zero-scoring tail of the filter set included when the positive
//!   scorers run out — for every ranker, shard count, `k` and score
//!   floor, and an unfiltered ranking over the same leaves (multi-key and
//!   comparison ones included) answers the oracle's list as well;
//! * the laziness is real: a `prox` filter that admits every document of
//!   a 5,000-document collection costs a bounded query a few dozen
//!   position checks, not 5,000.

use proptest::prelude::*;
use starts_index::{
    BoolNode, CmpOp, DocId, Document, Engine, EngineConfig, Hit, PositionsMode, RankNode,
    SearchOptions, ShardPolicy, ShardedEngine, TermMatch, TermSpec,
};
use starts_text::{AnalyzerConfig, StopWordList};

/// Words the documents draw from. Several share a stem or an affix, so
/// `stem` and truncation leaves resolve to more than one vocabulary key.
const VOCAB: &[&str] = &[
    "alpha",
    "beta",
    "gamma",
    "delta",
    "database",
    "databases",
    "index",
    "indexes",
    "indexing",
    "rare",
];

/// Words a query may also ask for that no document holds.
const ABSENT: &[&str] = &["omega", "nothing"];

const DATES: &[&str] = &["1995-01-20", "1996-03-31", "1996-09-15", "1997-05-26"];

const SHARD_COUNTS: &[usize] = &[1, 2, 3, 7];

/// One document: its words (common ones far likelier than the last,
/// "rare") and its date.
fn arb_doc() -> impl Strategy<Value = (Vec<usize>, usize)> {
    let word = prop_oneof![
        12 => 0..VOCAB.len() - 1,
        1 => Just(VOCAB.len() - 1),
    ];
    (proptest::collection::vec(word, 1..20), 0..DATES.len())
}

fn arb_corpus() -> impl Strategy<Value = Vec<Document>> {
    proptest::collection::vec(arb_doc(), 1..24).prop_map(|docs| {
        docs.into_iter()
            .map(|(words, date)| {
                let body: Vec<&str> = words.iter().map(|&w| VOCAB[w]).collect();
                Document::new()
                    .field("body-of-text", body.join(" "))
                    .field("date-last-modified", DATES[date])
            })
            .collect()
    })
}

fn arb_word() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        8 => (0..VOCAB.len()).prop_map(|w| VOCAB[w]),
        1 => (0..ABSENT.len()).prop_map(|w| ABSENT[w]),
    ]
}

/// A term spec matched on the inverted index: plain, fielded, multi-key
/// (stem and truncation scans), or on a field the schema lacks.
fn arb_index_spec() -> impl Strategy<Value = TermSpec> {
    prop_oneof![
        4 => arb_word().prop_map(TermSpec::any),
        2 => arb_word().prop_map(|w| TermSpec::fielded("body-of-text", w)),
        2 => arb_word().prop_map(|w| TermSpec::any(w).with(TermMatch::Stem)),
        1 => Just(TermSpec::any("data").with(TermMatch::RightTrunc)),
        1 => Just(TermSpec::any("es").with(TermMatch::LeftTrunc)),
        1 => arb_word().prop_map(|w| TermSpec::fielded("abstract", w)),
    ]
}

fn arb_cmp_spec() -> impl Strategy<Value = TermSpec> {
    let op = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Eq),
        Just(CmpOp::Ge),
        Just(CmpOp::Gt),
        Just(CmpOp::Ne),
    ];
    (op, 0..DATES.len(), any::<bool>()).prop_map(|(op, date, known_field)| {
        let field = if known_field {
            "date-last-modified"
        } else {
            "date-of-nothing"
        };
        TermSpec::fielded(field, DATES[date]).with_cmp(op)
    })
}

fn arb_prox() -> impl Strategy<Value = BoolNode> {
    (arb_index_spec(), arb_index_spec(), 0u32..5, any::<bool>()).prop_map(
        |(left, right, distance, ordered)| BoolNode::Prox {
            left,
            right,
            distance,
            ordered,
        },
    )
}

/// Filter trees over every operator: `prox` lands on either side of
/// `and-not` (the right side must be confirmed while advancing), below
/// `or` (only the side sitting on a document may confirm it), and next
/// to comparison leaves.
fn arb_filter() -> impl Strategy<Value = BoolNode> {
    let leaf = prop_oneof![
        5 => arb_index_spec().prop_map(BoolNode::Term),
        1 => arb_cmp_spec().prop_map(BoolNode::Term),
        3 => arb_prox(),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| BoolNode::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| BoolNode::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| BoolNode::and_not(a, b)),
            (inner, arb_prox()).prop_map(|(a, p)| BoolNode::and_not(a, p)),
        ]
    })
}

/// A weighted single-key leaf — what the pruned loop can bound. The
/// rare and absent words make filter sets with fewer than `k` positive
/// scorers common.
fn arb_rank_leaf() -> impl Strategy<Value = RankNode> {
    let word = prop_oneof![
        3 => (0..4usize).prop_map(|w| VOCAB[w]),
        2 => Just("rare"),
        1 => Just("omega"),
    ];
    (word, 1u32..=4).prop_map(|(w, q)| RankNode::weighted(TermSpec::any(w), f64::from(q) * 0.25))
}

/// Ranking trees over single-key leaves, plus the multi-key and
/// comparison leaves Block-Max WAND bounds with a sidecar built at
/// query time.
fn arb_ranking() -> impl Strategy<Value = RankNode> {
    let leaf = prop_oneof![
        8 => arb_rank_leaf(),
        1 => Just(RankNode::term(TermSpec::any("index").with(TermMatch::Stem))),
        1 => Just(RankNode::term(
            TermSpec::fielded("date-last-modified", DATES[1]).with_cmp(CmpOp::Gt)
        )),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            3 => proptest::collection::vec(inner.clone(), 1..4).prop_map(RankNode::List),
            1 => proptest::collection::vec(inner.clone(), 1..3).prop_map(RankNode::And),
            1 => proptest::collection::vec(inner.clone(), 1..3).prop_map(RankNode::Or),
            1 => (inner.clone(), inner)
                .prop_map(|(a, b)| RankNode::AndNot(Box::new(a), Box::new(b))),
            1 => (arb_rank_leaf(), arb_rank_leaf(), 0u32..5, any::<bool>()).prop_map(
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
        analyzer: AnalyzerConfig {
            stop_words: StopWordList::none(),
            ..AnalyzerConfig::default()
        },
        ranking_id: ranking_id.to_string(),
        shards,
        shard_policy: ShardPolicy::Exact,
        ..EngineConfig::default()
    }
}

/// `k` = 1, a typical page, and more than any set here holds.
fn limits(n_docs: usize) -> [usize; 3] {
    [1, 10, n_docs + 5]
}

fn at_or_above(hits: Vec<Hit>, min_score: f64) -> Vec<Hit> {
    hits.into_iter()
        .filter(|h| h.score.is_some_and(|s| s >= min_score))
        .collect()
}

proptest! {
    /// Cursor drain ≡ set algebra, with and without a positional store
    /// (without one `prox` is co-occurrence on both sides).
    #[test]
    fn cursor_drain_equals_set_algebra(
        docs in arb_corpus(),
        filter in arb_filter(),
        positions in prop_oneof![Just(PositionsMode::All), Just(PositionsMode::None)],
    ) {
        let engine = Engine::build(
            &docs,
            EngineConfig { positions, ..config("Acme-1", 1) },
        );
        prop_assert_eq!(engine.eval_filter(&filter), engine.eval_filter_sets(&filter));
    }

    /// A bounded filter-only query ≡ the prefix of the reference set,
    /// monolithic and sharded (the shards are asked in order and the
    /// walk stops at the one that fills `k`).
    #[test]
    fn bounded_filter_only_is_a_prefix(docs in arb_corpus(), filter in arb_filter()) {
        let mono = Engine::build(&docs, config("Acme-1", 1));
        let full = mono.search_naive(Some(&filter), None);
        for &shards in SHARD_COUNTS {
            let sharded = ShardedEngine::build(&docs, config("Acme-1", shards));
            prop_assert_eq!(&sharded.search(Some(&filter), None), &full, "shards={}", shards);
            for k in limits(docs.len()) {
                let got = sharded.search_top_k(Some(&filter), None, Some(k));
                prop_assert_eq!(&got[..], &full[..k.min(full.len())], "shards={} k={}", shards, k);
            }
        }
    }

    /// Filtered top-k ≡ the naive oracle's prefix: every ranker, shard
    /// count, `k` and score floor. The unbounded call must be the
    /// oracle's whole list.
    #[test]
    fn filtered_top_k_equals_naive(
        docs in arb_corpus(),
        filter in arb_filter(),
        ranking in arb_ranking(),
        ranking_id in arb_ranking_id(),
        floor in prop_oneof![Just(f64::NEG_INFINITY), Just(0.0), Just(0.2), Just(1.5)],
    ) {
        let mono = Engine::build(&docs, config(ranking_id, 1));
        let full = mono.search_naive(Some(&filter), Some(&ranking));
        prop_assert_eq!(&mono.search(Some(&filter), Some(&ranking)), &full);
        let floored = at_or_above(full.clone(), floor);
        for &shards in SHARD_COUNTS {
            let sharded = ShardedEngine::build(&docs, config(ranking_id, shards));
            for k in limits(docs.len()) {
                let plain = sharded.search_top_k(Some(&filter), Some(&ranking), Some(k));
                prop_assert_eq!(
                    &plain[..], &full[..k.min(full.len())],
                    "shards={} k={}", shards, k
                );
                let (got, _, _) = sharded.search_top_k_observed(
                    Some(&filter),
                    Some(&ranking),
                    &SearchOptions { limit: Some(k), min_score: floor },
                );
                prop_assert_eq!(
                    &at_or_above(got, floor)[..], &floored[..k.min(floored.len())],
                    "shards={} k={} floor={}", shards, k, floor
                );
            }
        }
    }

    /// The same rankings without a filter ≡ the naive oracle, bounded
    /// and unbounded, at every shard count: a comparison leaf scores
    /// only the query's candidates, and a multi-key leaf sums its keys'
    /// term frequencies.
    #[test]
    fn unfiltered_ranking_equals_naive(
        docs in arb_corpus(),
        ranking in arb_ranking(),
        ranking_id in arb_ranking_id(),
    ) {
        let mono = Engine::build(&docs, config(ranking_id, 1));
        let full = mono.search_naive(None, Some(&ranking));
        for &shards in SHARD_COUNTS {
            let sharded = ShardedEngine::build(&docs, config(ranking_id, shards));
            prop_assert_eq!(&sharded.search(None, Some(&ranking)), &full, "shards={}", shards);
            for k in limits(docs.len()) {
                let got = sharded.search_top_k(None, Some(&ranking), Some(k));
                prop_assert_eq!(&got[..], &full[..k.min(full.len())], "shards={} k={}", shards, k);
            }
        }
    }
}

/// Zero-fill, pinned: three documents pass the filter, one of them
/// scores, `k` wants more than that — the scorer leads and the other two
/// follow at 0.0 in doc order, at every shard count.
#[test]
fn zero_fill_appends_the_filter_set_in_doc_order() {
    let bodies = ["alpha", "beta", "alpha gamma", "beta", "alpha"];
    let docs: Vec<Document> = bodies
        .iter()
        .map(|b| Document::new().field("body-of-text", *b))
        .collect();
    let filter = BoolNode::Term(TermSpec::any("alpha"));
    let ranking = RankNode::term(TermSpec::any("gamma"));
    for &shards in &[1, 2, 5] {
        let engine = ShardedEngine::build(&docs, config("Plain-1", shards));
        let hits = engine.search_top_k(Some(&filter), Some(&ranking), Some(4));
        let order: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(order, vec![DocId(2), DocId(0), DocId(4)], "{shards}");
        assert!(hits[0].score.unwrap() > 0.0);
        assert_eq!(hits[1].score.map(f64::to_bits), Some(0.0_f64.to_bits()));
        let two = engine.search_top_k(Some(&filter), Some(&ranking), Some(2));
        assert_eq!(two, hits[..2]);
    }
}

/// The laziness, pinned. Every one of 5,000 documents holds `alpha`
/// next to `beta`, so the `prox` filter's approximation is the whole
/// collection and the old evaluator compared positions 5,000 times
/// before ranking anything. The pruned loop compares them only for a
/// document about to enter the heap, and — once ten of the twenty
/// `gamma` documents have raised θ above anything `alpha` alone can
/// score — leaps the `alpha` list block by block.
#[test]
fn prox_filter_checks_positions_only_for_heap_entrants() {
    let docs: Vec<Document> = (0..5000)
        .map(|i| {
            let gamma = if i % 250 == 125 { " gamma gamma" } else { "" };
            Document::new().field("body-of-text", format!("alpha beta w{}{gamma}", i % 7))
        })
        .collect();
    let filter = BoolNode::Prox {
        left: TermSpec::any("alpha"),
        right: TermSpec::any("beta"),
        distance: 3,
        ordered: false,
    };
    let ranking = RankNode::List(vec![
        RankNode::term(TermSpec::any("gamma")),
        RankNode::term(TermSpec::any("alpha")),
    ]);
    let opts = SearchOptions {
        limit: Some(10),
        min_score: f64::NEG_INFINITY,
    };
    let engine = ShardedEngine::build(&docs, config("Acme-1", 1));
    let (hits, _, report) = engine.search_top_k_observed(Some(&filter), Some(&ranking), &opts);
    assert_eq!(hits.len(), 10);
    assert!(
        (1..=200).contains(&report.positional_checks),
        "positions compared per filter document, not per heap entrant: {report:?}"
    );
    assert!(report.blocks_skipped > 0, "{report:?}");
    assert!(
        report.candidates >= 5000 && report.skipped_docs > 0,
        "{report:?}"
    );

    let oracle = Engine::build(&docs, config("Acme-1", 1));
    assert_eq!(
        hits,
        oracle.search_naive(Some(&filter), Some(&ranking))[..10]
    );

    // The same `prox` as a ranking, unbounded: every document scores
    // both sides, so every one pays its position check, and says so.
    let ranked_prox = RankNode::Prox {
        left: Box::new(RankNode::term(TermSpec::any("alpha"))),
        right: Box::new(RankNode::term(TermSpec::any("beta"))),
        distance: 3,
        ordered: false,
    };
    let unbounded = SearchOptions {
        limit: None,
        min_score: f64::NEG_INFINITY,
    };
    let (all, _, report) = engine.search_top_k_observed(None, Some(&ranked_prox), &unbounded);
    assert_eq!(all.len(), 5000);
    assert_eq!(report.positional_checks, 5000, "{report:?}");

    // Filter-only with a bound: ten documents walked, ten confirmed.
    let (first, _, report) = engine.search_top_k_observed(Some(&filter), None, &opts);
    assert_eq!(first.len(), 10);
    assert_eq!(report.positional_checks, 10, "{report:?}");
    assert!(report.filter_advances <= 10, "{report:?}");
}
