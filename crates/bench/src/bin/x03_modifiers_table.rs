//! X3 — the §4.1.1 modifier table, regenerated, plus the live
//! `ModifiersSupported` matrix of the vendor fleet and a behavioural
//! check that each advertised modifier actually changes matching.

use starts_bench::{header, mark, print_table, section};
use starts_index::Document;
use starts_proto::attrs::BASIC1_MODIFIERS;
use starts_proto::query::parse_filter;
use starts_proto::{Modifier, Query};
use starts_source::{vendors, Source};

fn main() {
    header("X3  §4.1.1 modifier table (Basic-1) — paper table, regenerated");
    let rows: Vec<Vec<String>> = BASIC1_MODIFIERS
        .iter()
        .map(|(label, representative, new)| {
            vec![
                label.to_string(),
                representative.default_behaviour().to_string(),
                if *new { "Yes" } else { "No" }.to_string(),
            ]
        })
        .collect();
    print_table(&["Modifier", "Default", "New?"], &rows);

    section("live support matrix: ModifiersSupported across the vendor fleet");
    let docs = vec![
        Document::new()
            .field("title", "Database Systems")
            .field("author", "Ullman")
            .field("body-of-text", "databases and database design")
            .field("linkage", "http://x/1"),
        Document::new()
            .field("title", "The Who: a History")
            .field("author", "Ulman") // phonetic variant
            .field("body-of-text", "rock music history")
            .field("linkage", "http://x/2"),
    ];
    let sources: Vec<Source> = vendors::fleet()
        .into_iter()
        .map(|cfg| Source::build(cfg, &docs))
        .collect();
    let mut columns: Vec<&str> = vec!["Modifier"];
    let ids: Vec<String> = sources.iter().map(|s| s.id().to_string()).collect();
    columns.extend(ids.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = BASIC1_MODIFIERS
        .iter()
        .map(|(label, representative, _)| {
            let mut row = vec![label.to_string()];
            for s in &sources {
                row.push(mark(s.metadata().supports_modifier(representative)));
            }
            row
        })
        .collect();
    print_table(&columns, &rows);

    section("behavioural check: the stem modifier changes the result set");
    for s in &sources {
        let plain = Query::filter_only(parse_filter(r#"(title "databases")"#).unwrap());
        let stemmed = Query::filter_only(parse_filter(r#"(title stem "databases")"#).unwrap());
        let n_plain = s.execute(&plain).documents.len();
        let n_stem = s.execute(&stemmed).documents.len();
        let supports = s.metadata().supports_modifier(&Modifier::Stem);
        println!(
            "   {:<13} supports stem: {:<3}  plain \"databases\": {}  stem \"databases\": {}",
            s.id(),
            mark(supports),
            n_plain,
            n_stem
        );
        if supports {
            assert!(
                n_stem >= n_plain,
                "{}: stemming must not shrink the result set",
                s.id()
            );
        }
    }
}
