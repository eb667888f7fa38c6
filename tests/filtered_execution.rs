//! Filters through the whole source layer: for every vendor
//! personality, a query capped by `MaxNumberDocuments` (the engine stops
//! early — a lazy filter cursor inside the pruned loop, or the first k
//! documents of a filter-only query) must answer exactly as its twin
//! that opts out of the bound and has the engine produce everything.

use starts::index::Document;
use starts::proto::query::{parse_filter, parse_ranking, SortKey};
use starts::proto::{AnswerSpec, Field, Query};
use starts::source::{vendors, Source};

const WORDS: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    "lambda", "mu",
];

/// 700 documents — several posting blocks for the common words — with
/// skewed word frequencies, drawn from a fixed linear-congruential
/// stream.
fn library() -> Vec<Document> {
    let mut state = 19970526_u64;
    let mut draw = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    (0..700)
        .map(|i| {
            let len = 6 + draw(20);
            let body: Vec<&str> = (0..len)
                .map(|_| {
                    // The product of two draws favours the low indices.
                    let w = draw(WORDS.len() as u64) * draw(WORDS.len() as u64);
                    WORDS[(w / WORDS.len() as u64) as usize]
                })
                .collect();
            Document::new()
                .field("title", format!("Document {i}"))
                .field("body-of-text", body.join(" "))
                .field("linkage", format!("http://example.org/{i:04}"))
        })
        .collect()
}

fn query(filter: &str, ranking: &str, max_documents: usize) -> Query {
    Query {
        filter: (!filter.is_empty()).then(|| parse_filter(filter).unwrap()),
        ranking: (!ranking.is_empty()).then(|| parse_ranking(ranking).unwrap()),
        answer: AnswerSpec {
            fields: vec![Field::Title],
            max_documents,
            ..AnswerSpec::default()
        },
        ..Query::default()
    }
}

#[test]
fn bounded_filtered_queries_match_their_unbounded_twins() {
    let docs = library();
    let queries = [
        // filter + ranking: a term, `and-not`, `or`, `prox` in front of
        // a flat list and of an operator tree.
        (
            r#"(body-of-text "gamma")"#,
            r#"list((body-of-text "alpha") (body-of-text "kappa"))"#,
        ),
        (
            r#"((body-of-text "alpha") and-not (body-of-text "beta"))"#,
            r#"list((body-of-text "lambda") (body-of-text "alpha") (body-of-text "gamma"))"#,
        ),
        (
            r#"((body-of-text "mu") or (body-of-text "delta"))"#,
            r#"((body-of-text "mu") or ((body-of-text "delta") and (body-of-text "alpha")))"#,
        ),
        (
            r#"((body-of-text "alpha") prox[2,F] (body-of-text "beta"))"#,
            r#"list((body-of-text "mu") (body-of-text "alpha"))"#,
        ),
        // fewer positive scorers than k: the zero-scoring rest of the
        // filter set fills the page, in doc order.
        (r#"(body-of-text "beta")"#, r#"list((body-of-text "mu"))"#),
        // filter-only
        (
            r#"((body-of-text "alpha") prox[1,T] (body-of-text "gamma"))"#,
            "",
        ),
        (
            r#"((body-of-text "delta") and-not (body-of-text "alpha"))"#,
            "",
        ),
    ];
    for config in vendors::fleet() {
        let source = Source::build(config, &docs);
        for (filter, ranking) in queries {
            for k in [1, 10, 1000] {
                let bounded = query(filter, ranking, k);
                let mut twin = bounded.clone();
                // Sorts identically, but is not the default sort: the
                // source hands the engine no bound.
                twin.answer.sort_by = vec![SortKey::score_descending(); 2];
                let got = source.execute(&bounded);
                let expect = source.execute(&twin);
                assert_eq!(
                    got.documents,
                    expect.documents,
                    "{} k={k} filter={filter} ranking={ranking}",
                    source.id()
                );
                assert_eq!(got.actual_filter, expect.actual_filter);
                assert_eq!(got.actual_ranking, expect.actual_ranking);
                assert!(got.documents.len() <= k);
            }
        }
    }
}
