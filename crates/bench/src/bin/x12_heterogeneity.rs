//! X12 — stemming / stop-word / tokenizer heterogeneity (§3.1).
//!
//! The same query sent to engines that differ ONLY in their text
//! pipeline returns different result sets; this experiment quantifies
//! the overlap (Jaccard) between the vendors' answers over the same
//! document collection, and replays the paper's two concrete anecdotes:
//! the "The Who" stop-word trap and the "Z39.50" tokenizer litmus test.

use std::collections::HashSet;

use starts_bench::{header, print_table, section};
use starts_proto::query::parse_ranking;
use starts_proto::Query;
use starts_source::{vendors, Source};

fn result_set(source: &Source, query: &Query) -> HashSet<String> {
    source
        .execute_traced(query, Some(starts_obs::Registry::global()))
        .documents
        .iter()
        .filter_map(|d| d.linkage().map(str::to_string))
        .collect()
}

fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    inter / union
}

fn main() {
    header("X12  text-pipeline heterogeneity: same docs, same query, different answers");
    section("mean pairwise Jaccard overlap of result sets (8 pipeline-sensitive queries)");
    // The synthetic corpus vocabulary is pipeline-neutral, so we overlay
    // a handcrafted English collection whose matching depends on
    // stemming, stop lists, case and tokenization.
    let english: Vec<starts_index::Document> = vec![
        (
            "e1",
            "Databases for distributed systems",
            "distributed databases replicate data across database sites",
        ),
        (
            "e2",
            "A database survey",
            "the database survey covers storage engines and indexing",
        ),
        (
            "e3",
            "The Who discography",
            "the who and their albums from the sixties",
        ),
        (
            "e4",
            "State-of-the-art retrieval",
            "state-of-the-art methods for text retrieval and ranking",
        ),
        (
            "e5",
            "Z39.50 in libraries",
            "searching library catalogs with Z39.50 clients",
        ),
        (
            "e6",
            "Compiling queries",
            "compilers translate queries into execution plans",
        ),
        (
            "e7",
            "UNIX system tools",
            "UNIX tools for indexing and searching files",
        ),
        (
            "e8",
            "Ranking algorithms",
            "ranked retrieval algorithms score documents by relevance",
        ),
    ]
    .into_iter()
    .map(|(id, title, body)| {
        starts_index::Document::new()
            .field("title", title)
            .field("body-of-text", body)
            .field("linkage", format!("http://eng/{id}"))
    })
    .collect();
    let sources: Vec<Source> = vendors::fleet()
        .into_iter()
        .filter(|c| c.query_parts.supports_ranking())
        .map(|cfg| Source::build(cfg, &english))
        .collect();
    let ids: Vec<String> = sources.iter().map(|s| s.id().to_string()).collect();
    let queries = [
        r#"list((body-of-text "database"))"#, // singular vs plural: stemming
        r#"list((body-of-text "databases"))"#,
        r#"list((body-of-text "the"))"#,              // stop word
        r#"list((body-of-text "state-of-the-art"))"#, // tokenizer joiners
        r#"list((body-of-text "Z39.50"))"#,           // tokenizer separators
        r#"list((body-of-text "UNIX"))"#,             // case
        r#"list((body-of-text "compiler"))"#,         // morphology (compilers)
        r#"list((body-of-text "ranked"))"#,           // morphology (ranking)
    ];
    let mut overlap = vec![vec![0.0f64; sources.len()]; sources.len()];
    for q in &queries {
        let query = Query {
            ranking: Some(parse_ranking(q).unwrap()),
            ..Query::default()
        };
        let sets: Vec<HashSet<String>> = sources.iter().map(|s| result_set(s, &query)).collect();
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                overlap[i][j] += jaccard(&sets[i], &sets[j]) / queries.len() as f64;
            }
        }
    }
    let mut columns: Vec<&str> = vec![""];
    columns.extend(ids.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = overlap
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut r = vec![ids[i].clone()];
            r.extend(row.iter().map(|v| format!("{v:.2}")));
            r
        })
        .collect();
    print_table(&columns, &rows);
    println!();
    println!(
        "   diagonal = 1; off-diagonal < 1 quantifies §3.1's query-language problem:\n\
         identical queries over identical documents disagree because of pipelines."
    );

    section("anecdote 1: \"The Who\" (stop words, §3.1)");
    let who_docs = vec![
        starts_index::Document::new()
            .field("title", "The Who: Live at Leeds")
            .field("body-of-text", "the who rock band live album")
            .field("linkage", "http://music/who"),
        starts_index::Document::new()
            .field("title", "Unrelated Database Text")
            .field("body-of-text", "indexing and retrieval")
            .field("linkage", "http://cs/db"),
    ];
    let query = Query {
        ranking: Some(parse_ranking(r#"list("the" "who")"#).unwrap()),
        drop_stop_words: false, // the client asks to keep stop words
        ..Query::default()
    };
    for cfg in [
        vendors::acme("Acme"),
        vendors::bolt("Bolt"),
        vendors::okapi("Okapi"),
    ] {
        let source = Source::build(cfg, &who_docs);
        let meta = source.metadata();
        let results = source.execute(&query);
        println!(
            "   {:<6} TurnOffStopWords={}  stop list={:<3}  actual terms kept={}  hits={}",
            source.id(),
            if meta.turn_off_stop_words { "T" } else { "F" },
            meta.stop_word_list.len(),
            results
                .actual_ranking
                .as_ref()
                .map(|r| r.terms().len())
                .unwrap_or(0),
            results.documents.len()
        );
    }
    println!(
        "   only the engine with no stop list (Okapi) can serve the query at all —\n\
         and STARTS metadata tells the metasearcher so in advance."
    );

    section("anecdote 2: \"Z39.50\" (tokenizers, §4.3.1)");
    let z_docs = vec![starts_index::Document::new()
        .field("title", "The Z39.50 protocol")
        .field("body-of-text", "searching with Z39.50 over libraries")
        .field("linkage", "http://lib/z3950")];
    let query = Query {
        ranking: Some(parse_ranking(r#"list((body-of-text "Z39.50"))"#).unwrap()),
        ..Query::default()
    };
    for cfg in [
        vendors::acme("Acme"),
        vendors::bolt("Bolt"),
        vendors::okapi("Okapi"),
    ] {
        let source = Source::build(cfg, &z_docs);
        let tokenizer = source.metadata().tokenizer_id_list[0].0.clone();
        let hits = source.execute(&query).documents.len();
        println!(
            "   {:<6} TokenizerIDList={:<8} query \"Z39.50\" hits={}",
            source.id(),
            tokenizer,
            hits
        );
    }
    println!(
        "   the named tokenizer id predicts the behaviour — the metasearcher learns it\n\
         once per tokenizer, as §4.3.1 prescribes."
    );
}
