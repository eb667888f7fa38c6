//! X8 — query translation across capability-limited engines (§3.1, §4.1,
//! refs [3, 4]).
//!
//! Three client strategies face the heterogeneous fleet:
//!
//! * **verbatim** — send the query as-is; each source drops what it
//!   cannot do (the STARTS server-side rewrite);
//! * **per-source** — the metasearcher adapts per capability: folds
//!   ranking into Boolean for filter-only engines, expands `stem` from
//!   the content summary for engines without stemming;
//! * **LCD** — strip to the least common denominator first (§5's early
//!   metasearchers).
//!
//! Expected shape: per-source ≥ verbatim ≫ LCD in both answered-query
//! rate and recall.

use starts_bench::{header, print_table, section, standard_corpus, standard_workload};
use starts_meta::adapt::{adapt_query, least_common_denominator};
use starts_meta::eval::{mean, recall_at_k};
use starts_meta::merge::{Merger, NormalizedMerge, SourceResult};
use starts_net::host::wire_source;
use starts_net::{LinkProfile, SimNet, StartsClient};
use starts_proto::{Query, SourceMetadata};
use starts_source::{vendors, Source, SourceConfig};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Verbatim,
    PerSource,
    Lcd,
}

fn main() {
    header("X8  query translation: verbatim vs per-source adaptation vs LCD");
    let corpus = standard_corpus();
    let workload = standard_workload(&corpus);
    let net = SimNet::new();
    // The harshest mix: a boolean-only Glimpse, a rank-only site, and a
    // stemming BM25 engine share the corpus slices.
    let personalities: Vec<fn(&str) -> SourceConfig> = vec![
        vendors::glimpse,
        vendors::rankonly,
        vendors::okapi,
        vendors::acme,
    ];
    for (i, s) in corpus.sources.iter().enumerate() {
        let mut cfg = personalities[i % personalities.len()](&s.id);
        cfg.id = s.id.clone();
        cfg.name = s.id.clone();
        cfg.base_url = format!("starts://{}", s.id.to_lowercase());
        wire_source(&net, Source::build(cfg, &s.docs), LinkProfile::default());
    }
    let client = StartsClient::new(&net);
    // Gather metadata + summaries once (the §3.4 periodic crawl).
    let mut meta: Vec<(SourceMetadata, starts_proto::summary::ContentSummary)> = Vec::new();
    for s in &corpus.sources {
        let m = client
            .fetch_metadata(&format!("starts://{}/metadata", s.id.to_lowercase()))
            .unwrap();
        let cs = client.fetch_summary(&m.content_summary_linkage).unwrap();
        meta.push((m, cs));
    }

    let mut rows = Vec::new();
    for (label, mode) in [
        ("verbatim", Mode::Verbatim),
        ("per-source", Mode::PerSource),
        ("LCD", Mode::Lcd),
    ] {
        let mut answered = Vec::new();
        let mut recall = Vec::new();
        let mut kept_terms = Vec::new();
        for gq in &workload.queries {
            let all_meta: Vec<&SourceMetadata> = meta.iter().map(|(m, _)| m).collect();
            let lcd = least_common_denominator(&gq.query, &all_meta);
            let mut inputs = Vec::new();
            let mut sources_with_docs = 0usize;
            for (i, s) in corpus.sources.iter().enumerate() {
                let q: Query = match mode {
                    Mode::Verbatim => gq.query.clone(),
                    Mode::PerSource => adapt_query(&gq.query, &meta[i].0, &meta[i].1),
                    Mode::Lcd => lcd.clone(),
                };
                kept_terms.push(q.all_terms().len() as f64);
                let results = client
                    .query(&format!("starts://{}/query", s.id.to_lowercase()), &q)
                    .unwrap();
                if !results.documents.is_empty() {
                    sources_with_docs += 1;
                }
                inputs.push(SourceResult {
                    metadata: meta[i].0.clone().into(),
                    results,
                    source_weight: 1.0,
                });
            }
            answered.push(sources_with_docs as f64 / corpus.sources.len() as f64);
            let merged = NormalizedMerge.merge(&inputs);
            let ranked: Vec<String> = merged.into_iter().map(|d| d.linkage).collect();
            recall.push(recall_at_k(&ranked, &gq.relevant, 30));
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", mean(&answered)),
            format!("{:.3}", mean(&recall)),
            format!("{:.2}", mean(&kept_terms)),
        ]);
    }
    section(&format!(
        "{} queries over {} sources (glimpse/rankonly/okapi/acme rotation)",
        workload.queries.len(),
        corpus.sources.len()
    ));
    print_table(
        &[
            "strategy",
            "sources answering",
            "R@30 after merge",
            "terms sent (mean)",
        ],
        &rows,
    );

    section("verdict");
    let get = |i: usize, j: usize| rows[i][j].parse::<f64>().unwrap();
    let (verb_r, per_r, lcd_r) = (get(0, 2), get(1, 2), get(2, 2));
    println!(
        "   per-source adaptation R@30 = {per_r:.3}  >=  verbatim {verb_r:.3}  >  LCD {lcd_r:.3}"
    );
    assert!(per_r >= verb_r - 1e-9);
    assert!(verb_r >= lcd_r);
    println!(
        "   matches §4.1.1's warning: the least-common-denominator interface loses\n\
         capability even at sources that could have done more."
    );
}
