//! The §3.2 rank-merging problem, live: three web-scale sources with
//! *incompatible score scales* answer the same query, and the example
//! compares merge strategies side by side.
//!
//! Run with `cargo run --example web_metasearch`.
//!
//! One source is the paper's "top document always has a score of 1,000"
//! vendor; naive raw-score merging lets it flood the top ranks.
//! STARTS' TermStats make Example 9's re-ranking possible without
//! retrieving a single document.

use starts::index::Document;
use starts::meta::merge::{
    Merger, NormalizedMerge, RawScoreMerge, RoundRobinMerge, SourceResult, TfIdfMerge, TfMerge,
};
use starts::net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts::proto::query::parse_ranking;
use starts::proto::Query;
use starts::source::{vendors, Source, SourceConfig};

/// Build a web-ish collection where relevance is controlled: document i
/// mentions "databases"/"distributed" with known frequencies.
fn collection(tag: &str, sizes: &[(u32, u32)]) -> Vec<Document> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, (db, dist))| {
            let mut body = String::new();
            for _ in 0..*db {
                body.push_str("databases ");
            }
            for _ in 0..*dist {
                body.push_str("distributed ");
            }
            for f in 0..12 {
                body.push_str(&format!("filler{f} "));
            }
            Document::new()
                .field("title", format!("{tag} page {i} (db={db}, dist={dist})"))
                .field("body-of-text", body)
                .field("linkage", format!("http://{tag}/page{i}"))
        })
        .collect()
}

fn main() {
    let net = SimNet::new();
    // Three vendors: [0,1] cosine, [0,1000] scaled, and unbounded BM25.
    let fleet: Vec<(SourceConfig, Vec<Document>)> = vec![
        (
            vendors::acme("Acme"),
            collection("acme", &[(9, 7), (2, 1), (1, 0)]),
        ),
        (
            vendors::bolt("Bolt"), // Vendor-K: top doc = 1000
            collection("bolt", &[(3, 1), (1, 1), (0, 1)]),
        ),
        (
            vendors::okapi("Okapi"), // BM25, unbounded
            collection("okapi", &[(6, 5), (4, 2), (1, 1)]),
        ),
    ];
    for (cfg, docs) in fleet {
        wire_source(&net, Source::build(cfg, &docs), LinkProfile::default());
    }
    let client = StartsClient::new(&net);

    let query = Query {
        ranking: Some(
            parse_ranking(r#"list((body-of-text "databases") (body-of-text "distributed"))"#)
                .unwrap(),
        ),
        ..Query::default()
    };

    // Fan out manually and collect per-source results + metadata.
    let mut inputs = Vec::new();
    for id in ["acme", "bolt", "okapi"] {
        let metadata = client
            .fetch_metadata(&format!("starts://{id}/metadata"))
            .unwrap();
        let results = client
            .query(&format!("starts://{id}/query"), &query)
            .unwrap();
        println!(
            "{:<6} ranking algorithm {:<9} score range {:>6} .. {:<9} top raw score {:.3}",
            metadata.source_id,
            metadata.ranking_algorithm_id,
            metadata.score_range.0,
            if metadata.score_range.1.is_finite() {
                format!("{}", metadata.score_range.1)
            } else {
                "inf".to_string()
            },
            results
                .documents
                .first()
                .and_then(|d| d.raw_score)
                .unwrap_or(0.0)
        );
        inputs.push(SourceResult {
            metadata: metadata.into(),
            results,
            source_weight: 1.0,
        });
    }
    println!();

    // Compare merge strategies.
    let collection_sizes = [3u64, 3, 3];
    let tfidf = TfIdfMerge::from_inputs(&inputs, &collection_sizes);
    let strategies: Vec<&dyn Merger> = vec![
        &RawScoreMerge,
        &NormalizedMerge,
        &RoundRobinMerge,
        &TfMerge,
        &tfidf,
    ];
    for merger in strategies {
        let merged = merger.merge(&inputs);
        let top: Vec<String> = merged
            .iter()
            .take(4)
            .map(|d| {
                format!(
                    "{} ({:.2})",
                    d.linkage.trim_start_matches("http://"),
                    d.score
                )
            })
            .collect();
        println!("{:<18} {}", merger.name(), top.join("  >  "));
    }
    println!();
    println!(
        "note how `raw-score` puts Bolt's 1000-scale pages first regardless of content,\n\
         while the TermStats-based strategies rank by actual term occurrences (Example 9)."
    );
}
