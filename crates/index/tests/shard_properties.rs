//! Property-based tests for the sharded engine: for random corpora,
//! random ranking expressions and every ranking algorithm, the sharded
//! fan-out + k-way merge must return exactly — bit-identical scores,
//! ordering, and doc-id tie-breaks — what the monolithic engine returns,
//! in every query mode (filter-only, ranking-only, combined) and for
//! shard counts {1, 2, 3, 7}, including `k` larger than any single
//! shard's hit count.

use std::collections::BTreeSet;

use proptest::prelude::*;
use starts_index::ranking::TermDocStats;
use starts_index::{
    BoolNode, DocId, Document, Engine, EngineConfig, FieldId, PositionsMode, PostingsFootprint,
    RankNode, ShardPolicy, ShardedEngine, TermMatch, TermSpec, TermStat, ANY_FIELD,
};
use starts_text::Thesaurus;

/// The same tiny closed vocabulary the top-k properties use, so queries
/// hit documents and equal scores (hence tie-breaks) are common.
const VOCAB: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

/// Shard counts exercised: 1 (monolithic delegation), 2, 3 (uneven
/// split of most corpus sizes), 7 (more shards than hits per shard —
/// many shards end up with zero or one matching doc).
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

/// A ranking expression using every operator the engine scores.
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

fn config(ranking_id: &str, fuzzy: bool, shards: usize) -> EngineConfig {
    EngineConfig {
        ranking_id: ranking_id.to_string(),
        fuzzy_ranking_ops: fuzzy,
        shards,
        // The properties quantify over physical shard counts — build
        // exactly what the strategy drew, whatever machine runs CI.
        shard_policy: ShardPolicy::Exact,
        ..EngineConfig::default()
    }
}

/// A vocabulary with inflections (so a `Stem` modifier on the
/// non-stemming default analyzer scans to several keys) and members of
/// `Thesaurus::computer_science` rings (so `Thesaurus` expands to
/// several keys).
const STATS_VOCAB: &[&str] = &[
    "database",
    "databases",
    "dbms",
    "search",
    "retrieval",
    "querying",
    "query",
    "queries",
    "index",
    "indexes",
    "indexing",
    "alpha",
];

/// Two-field documents over [`STATS_VOCAB`].
fn arb_stats_corpus() -> impl Strategy<Value = Vec<Document>> {
    let words = |n| proptest::collection::vec(0..STATS_VOCAB.len(), 1..n);
    proptest::collection::vec((words(4), words(25)), 1..20).prop_map(|docs| {
        let text = |ws: Vec<usize>| {
            let ws: Vec<&str> = ws.into_iter().map(|w| STATS_VOCAB[w]).collect();
            ws.join(" ")
        };
        docs.into_iter()
            .map(|(title, body)| {
                Document::new()
                    .field("title", text(title))
                    .field("body-of-text", text(body))
            })
            .collect()
    })
}

/// Plain, stem-scan and thesaurus terms; present and absent words; the
/// `Any` pseudo-field, real fields and a field no document has.
fn arb_stats_spec() -> impl Strategy<Value = TermSpec> {
    (
        prop_oneof![
            (0..STATS_VOCAB.len()).prop_map(|w| STATS_VOCAB[w]),
            Just("absentword"),
        ],
        prop_oneof![
            Just(None),
            Just(Some("title")),
            Just(Some("body-of-text")),
            Just(Some("no-such-field")),
        ],
        prop_oneof![
            Just(None),
            Just(Some(TermMatch::Stem)),
            Just(Some(TermMatch::Thesaurus)),
        ],
    )
        .prop_map(|(word, field, modifier)| TermSpec {
            field: field.map(str::to_string),
            term: word.to_string(),
            matches: modifier.into_iter().collect(),
            cmp: None,
        })
}

/// `(shard, local id)` of a global doc id, from the shards' sizes.
fn locate(engine: &ShardedEngine, doc: DocId) -> (usize, DocId) {
    let mut base = 0;
    for (i, shard) in engine.shards().iter().enumerate() {
        let n = shard.index().n_docs();
        if doc.0 < base + n {
            return (i, DocId(doc.0 - base));
        }
        base += n;
    }
    panic!("doc {doc:?} beyond the collection");
}

/// The fields whose lists a key of `field` reads: the field itself, or
/// every concrete field for `Any`, which keeps no lists of its own.
fn fields_of(engine: &ShardedEngine, field: FieldId) -> Vec<FieldId> {
    if field == ANY_FIELD {
        engine.schema().concrete_fields().collect()
    } else {
        vec![field]
    }
}

/// tf of one vocabulary key in one document, by scanning the key's
/// whole posting lists in the document's shard.
fn scan_tf(engine: &ShardedEngine, field: FieldId, key: &str, doc: DocId) -> u32 {
    let (shard, local) = locate(engine, doc);
    fields_of(engine, field)
        .into_iter()
        .filter_map(|f| engine.shards()[shard].index().postings(f, key))
        .filter_map(|list| list.docs_tfs().find(|&(d, _)| d == local))
        .map(|(_, tf)| tf)
        .sum()
}

/// Collection-wide df of one vocabulary key: the documents any of its
/// lists holds, shard by shard.
fn scan_df(engine: &ShardedEngine, field: FieldId, key: &str) -> u32 {
    engine
        .shards()
        .iter()
        .map(|s| {
            let docs: BTreeSet<DocId> = fields_of(engine, field)
                .into_iter()
                .filter_map(|f| s.index().postings(f, key))
                .flat_map(|list| list.docs())
                .collect();
            docs.len() as u32
        })
        .sum()
}

/// The collection-wide vocabulary of a field, sorted.
fn vocabulary(engine: &ShardedEngine, field: FieldId) -> BTreeSet<String> {
    let fields = fields_of(engine, field);
    engine
        .shards()
        .iter()
        .flat_map(|s| fields.iter().flat_map(|&f| s.index().field_vocabulary(f)))
        .map(|(term, _)| term.to_string())
        .collect()
}

/// `TermStats` computed the slow way: the matching keys are filtered
/// out of the whole vocabulary, every tf comes from a linear
/// `docs_tfs()` scan, and the cosine rankers' document norm is summed
/// from scratch (sorted term order, as the engine documents).
fn naive_term_stats(engine: &ShardedEngine, doc: DocId, spec: &TermSpec) -> TermStat {
    let field = match spec.field.as_deref() {
        None => Some(ANY_FIELD),
        Some(name) => engine.schema().get(name),
    };
    let Some(field) = field else {
        return TermStat {
            tf: 0,
            weight: 0.0,
            df: 0,
        };
    };
    let normalized = engine.analyzer().normalize_term(&spec.term);
    let matches = spec.vocab_predicate(engine.thesaurus());
    let keys: Vec<String> = vocabulary(engine, field)
        .into_iter()
        .filter(|vocab| {
            if spec.matches.is_empty() {
                *vocab == normalized
            } else {
                matches(&spec.term, vocab)
            }
        })
        .collect();
    let tf = keys.iter().map(|k| scan_tf(engine, field, k, doc)).sum();
    let df = keys
        .iter()
        .map(|k| scan_df(engine, field, k))
        .max()
        .unwrap_or(0);
    let ranking = engine.ranking();
    let stats = |tf, df, doc_norm| TermDocStats {
        tf,
        df,
        n_docs: engine.n_docs(),
        doc_tokens: engine.doc_token_count(doc),
        avg_tokens: engine.avg_doc_tokens(),
        doc_norm,
    };
    let doc_norm = if ranking.needs_doc_norms() {
        let mut sq = 0.0_f64;
        for term in vocabulary(engine, ANY_FIELD) {
            let tf = scan_tf(engine, ANY_FIELD, &term, doc);
            if tf > 0 {
                let df = scan_df(engine, ANY_FIELD, &term);
                let w = ranking.unnormalized_weight(&stats(tf, df, 1.0));
                sq += w * w;
            }
        }
        sq.sqrt()
    } else {
        1.0
    };
    TermStat {
        tf,
        weight: ranking.term_weight(&stats(tf, df, doc_norm)),
        df,
    }
}

proptest! {
    /// The footprint accumulated while the index is built equals a
    /// fresh walk over every posting list and stored value of every
    /// shard, with and without the positional arenas.
    #[test]
    fn build_time_footprint_equals_a_fresh_walk(
        docs in arb_corpus(),
        positions in prop_oneof![Just(PositionsMode::All), Just(PositionsMode::None)],
    ) {
        for &shards in SHARD_COUNTS {
            let engine = ShardedEngine::build(
                &docs,
                EngineConfig { positions, ..config("Acme-1", true, shards) },
            );
            let mut walked = PostingsFootprint::default();
            for shard in engine.shards() {
                let index = shard.index();
                let mut of_shard = PostingsFootprint::default();
                let fields = std::iter::once(ANY_FIELD).chain(index.schema().concrete_fields());
                for (_, list) in fields.flat_map(|f| index.field_vocabulary(f)) {
                    of_shard.lists += 1;
                    of_shard.postings += list.len() as u64;
                    of_shard.block_bytes += list.blocks().bytes();
                    if list.has_positions() {
                        of_shard.positional_lists += 1;
                        of_shard.positional_bytes += list.positional_bytes();
                    }
                }
                // The stored values: their text, plus one 8-byte
                // `(field, lang, end)` table entry each.
                for (_, text, _) in index.all_docs().flat_map(|d| index.doc_fields(d)) {
                    of_shard.stored_bytes += text.len() as u64 + 8;
                }
                prop_assert_eq!(index.postings_footprint(), of_shard, "shards={}", shards);
                walked.merge(&of_shard);
            }
            prop_assert_eq!(engine.postings_footprint(), walked, "shards={}", shards);
            prop_assert_eq!(walked.positional_lists > 0, positions == PositionsMode::All);
        }
    }

    /// The per-query term resolver reports exactly what a naive scan
    /// does — tf, df and the weight's bits — for every ranking
    /// algorithm, for single-key, multi-key (stem scan, thesaurus) and
    /// absent terms, for unknown fields, at every shard count; and
    /// `term_stats` is the same resolver.
    #[test]
    fn resolved_term_stats_equal_a_naive_scan(
        docs in arb_stats_corpus(),
        spec in arb_stats_spec(),
        ranking_id in arb_ranking_id(),
    ) {
        for &shards in SHARD_COUNTS {
            let engine = ShardedEngine::build(
                &docs,
                EngineConfig {
                    thesaurus: Thesaurus::computer_science(),
                    ..config(ranking_id, true, shards)
                },
            );
            let resolved = engine.resolve_term(&spec);
            for doc in (0..docs.len() as u32).map(DocId) {
                let expect = naive_term_stats(&engine, doc, &spec);
                let got = resolved.stats(doc);
                prop_assert_eq!(
                    (got.tf, got.df, got.weight.to_bits()),
                    (expect.tf, expect.df, expect.weight.to_bits()),
                    "shards={} doc={:?} spec={:?}", shards, doc, spec
                );
                prop_assert_eq!(engine.term_stats(doc, &spec), got);
            }
        }
    }

    /// Sharded ≡ monolithic for all three query modes, bounded and
    /// unbounded, at every shard count and for every ranking algorithm.
    /// `k` ranges past the corpus size, so it regularly exceeds any
    /// single shard's hit count.
    #[test]
    fn sharded_top_k_equals_monolithic(
        docs in arb_corpus(),
        filter_term in 0..VOCAB.len(),
        expr in arb_rank_expr(),
        ranking_id in arb_ranking_id(),
        fuzzy in any::<bool>(),
        k in 0usize..25,
    ) {
        let mono = Engine::build(&docs, config(ranking_id, fuzzy, 1));
        let filter = BoolNode::Term(TermSpec::any(VOCAB[filter_term]));
        for &shards in SHARD_COUNTS {
            let sharded = ShardedEngine::build(&docs, config(ranking_id, fuzzy, shards));
            for (f, r) in [
                (Some(&filter), None),
                (None, Some(&expr)),
                (Some(&filter), Some(&expr)),
            ] {
                for limit in [Some(k), None] {
                    let expect = mono.search_top_k(f, r, limit);
                    let got = sharded.search_top_k(f, r, limit);
                    prop_assert_eq!(
                        got, expect,
                        "shards={} limit={:?} filter={} ranked={}",
                        shards, limit, f.is_some(), r.is_some()
                    );
                }
            }
        }
    }

    /// Per-document statistics reported in results (`TermStats`) are
    /// identical under sharding: tf is document-local, df and the term
    /// weight's collection inputs come from the global statistics.
    #[test]
    fn sharded_term_stats_equal_monolithic(
        docs in arb_corpus(),
        term in 0..VOCAB.len(),
        ranking_id in arb_ranking_id(),
    ) {
        let mono = Engine::build(&docs, config(ranking_id, true, 1));
        let spec = TermSpec::any(VOCAB[term]);
        for &shards in SHARD_COUNTS {
            let sharded = ShardedEngine::build(&docs, config(ranking_id, true, shards));
            for doc in 0..docs.len() as u32 {
                let doc = starts_index::DocId(doc);
                prop_assert_eq!(
                    sharded.term_stats(doc, &spec),
                    mono.term_stats(doc, &spec),
                    "shards={} doc={:?}", shards, doc
                );
            }
        }
    }
}
