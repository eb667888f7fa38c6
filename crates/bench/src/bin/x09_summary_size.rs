//! X9 — content-summary compression (§4.3.2).
//!
//! The paper: summaries are "automatically generated … orders of
//! magnitude smaller than the original contents, and … useful in
//! distinguishing the more useful from the less useful sources". This
//! experiment measures the summary-to-corpus size ratio as collections
//! grow, and the selection quality retained when summaries are truncated
//! to their top-df words.

use starts_bench::{header, print_table, section};
use starts_corpus::{generate_corpus, generate_workload, CorpusConfig, WorkloadConfig};
use starts_meta::catalog::{Catalog, CatalogEntry};
use starts_meta::eval::{mean, selection_recall};
use starts_meta::metasearcher::Metasearcher;
use starts_meta::select::{GGlossSum, Selector};
use starts_net::LinkProfile;
use starts_proto::{IndexedSummary, SourceMetadata};
use starts_source::{Source, SourceConfig};

fn corpus_bytes(corpus: &starts_corpus::GeneratedCorpus) -> u64 {
    corpus
        .sources
        .iter()
        .flat_map(|s| s.docs.iter())
        .map(|d| d.byte_size() as u64)
        .sum()
}

fn main() {
    header("X9  content summaries: size vs usefulness (§4.3.2)");
    section("summary-to-corpus ratio as collections grow");
    let mut rows = Vec::new();
    for docs_per_source in [50usize, 200, 800] {
        let corpus = generate_corpus(&CorpusConfig {
            n_sources: 4,
            docs_per_source,
            n_topics: 2,
            seed: 404,
            ..CorpusConfig::default()
        });
        let total = corpus_bytes(&corpus);
        let summary_bytes: u64 = corpus
            .sources
            .iter()
            .map(|s| {
                let src = Source::build(SourceConfig::new(&s.id), &s.docs);
                src.content_summary().to_soif_bytes().len() as u64
            })
            .sum();
        rows.push(vec![
            format!("{}", corpus.total_docs()),
            format!("{:.1}", total as f64 / 1024.0),
            format!("{:.1}", summary_bytes as f64 / 1024.0),
            format!("{:.1}x", total as f64 / summary_bytes as f64),
        ]);
    }
    print_table(
        &["documents", "corpus KB", "summaries KB", "compression"],
        &rows,
    );
    println!();
    println!(
        "   the ratio grows with collection size (vocabulary grows sublinearly in\n\
         text size) — the paper's \"orders of magnitude\" holds asymptotically."
    );

    section("selection quality vs summary truncation (top-df words kept)");
    let corpus = generate_corpus(&CorpusConfig {
        n_sources: 8,
        docs_per_source: 150,
        n_topics: 4,
        seed: 405,
        ..CorpusConfig::default()
    });
    let workload = generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 30,
            ..WorkloadConfig::default()
        },
    );
    let mut rows = Vec::new();
    for max_terms in [0usize, 2000, 500, 100, 25] {
        // Build catalog entries straight from truncated summaries.
        let mut catalog = Catalog::default();
        let mut bytes = 0u64;
        for s in &corpus.sources {
            let mut cfg = SourceConfig::new(&s.id);
            cfg.summary_fields_qualified = false;
            cfg.summary_max_terms = max_terms;
            let src = Source::build(cfg, &s.docs);
            let summary = src.content_summary();
            bytes += summary.to_soif_bytes().len() as u64;
            catalog.entries.push(CatalogEntry {
                id: s.id.clone(),
                metadata_url: String::new(),
                metadata: SourceMetadata {
                    source_id: s.id.clone(),
                    ..SourceMetadata::default()
                }
                .into(),
                summary: IndexedSummary::new(summary).into(),
                sample_results: Vec::new(),
                link: LinkProfile::default(),
            });
        }
        let mut cov = Vec::new();
        for gq in &workload.queries {
            let owned = Metasearcher::selection_terms(&gq.query);
            let terms: Vec<(Option<&str>, &str)> = owned
                .iter()
                .map(|(f, t)| (f.as_deref(), t.as_str()))
                .collect();
            let chosen: Vec<usize> = GGlossSum
                .rank(&catalog, &terms)
                .into_iter()
                .take(2)
                .map(|(i, _)| i)
                .collect();
            cov.push(selection_recall(&chosen, &gq.relevant_by_source));
        }
        rows.push(vec![
            if max_terms == 0 {
                "full".to_string()
            } else {
                max_terms.to_string()
            },
            format!("{:.1}", bytes as f64 / 1024.0),
            format!("{:.3}", mean(&cov)),
        ]);
    }
    print_table(
        &["words/source", "summaries KB", "merit coverage (n=2)"],
        &rows,
    );

    section("verdict");
    println!(
        "   summaries stay useful under heavy truncation: topic-bearing words have\n\
         high df and survive, which is why GlOSS works off such small objects."
    );
}
