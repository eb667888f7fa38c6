//! X7 — rank merging quality (§3.2, §4.2, Examples 8–9).
//!
//! Heterogeneous vendors (incompatible score scales) index topical
//! slices of one corpus; each merge strategy combines their per-query
//! results and is scored against generator-known relevance, plus rank
//! correlation against the "single combined source" reference ranking
//! the metasearcher is supposed to emulate (§1).
//!
//! Expected shape: raw-score merging collapses (the Vendor-K sources
//! capture the top ranks); TermStats-based strategies (Example 9 tf,
//! global tf–idf) and range normalization recover most of the
//! single-source quality.

use starts_bench::{header, print_table, section, standard_corpus, standard_workload};
use starts_index::{Document, Engine, EngineConfig};
use starts_meta::eval::{kendall_tau, mean, precision_at_k, recall_at_k};
use starts_meta::merge::{
    Merger, NormalizedMerge, RawScoreMerge, RoundRobinMerge, SourceResult, TfIdfMerge, TfMerge,
    WeightedMerge,
};
use starts_net::host::wire_source;
use starts_net::{LinkProfile, SimNet, StartsClient};
use starts_source::{vendors, Source, SourceConfig};

fn main() {
    header("X7  rank merging quality across heterogeneous vendors");
    let corpus = standard_corpus();
    let workload = standard_workload(&corpus);
    let net = SimNet::new();
    // Rotate vendor personalities over the topical sources.
    let personalities: Vec<fn(&str) -> SourceConfig> =
        vec![vendors::acme, vendors::bolt, vendors::okapi];
    for (i, s) in corpus.sources.iter().enumerate() {
        let mut cfg = personalities[i % personalities.len()](&s.id);
        cfg.id = s.id.clone();
        cfg.name = s.id.clone();
        cfg.base_url = format!("starts://{}", s.id.to_lowercase());
        wire_source(&net, Source::build(cfg, &s.docs), LinkProfile::default());
    }
    // The reference: one engine over ALL documents (the "illusion of a
    // single combined document source", §1).
    let all_docs: Vec<Document> = corpus.all_docs();
    let global = Engine::build(&all_docs, EngineConfig::default());

    let client = StartsClient::new(&net);
    let sizes: Vec<u64> = corpus.sources.iter().map(|s| s.docs.len() as u64).collect();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let names = [
        "raw-score",
        "range-normalized",
        "round-robin",
        "termstats-tf",
        "termstats-tfidf",
        "belief-weighted",
    ];
    let mut metrics: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> =
        (0..names.len()).map(|_| (vec![], vec![], vec![])).collect();

    for gq in &workload.queries {
        // Fan out to every source.
        let mut inputs = Vec::new();
        for s in &corpus.sources {
            let metadata = client
                .fetch_metadata(&format!("starts://{}/metadata", s.id.to_lowercase()))
                .unwrap();
            let results = client
                .query(
                    &format!("starts://{}/query", s.id.to_lowercase()),
                    &gq.query,
                )
                .unwrap();
            inputs.push(SourceResult {
                metadata: metadata.into(),
                results,
                source_weight: 1.0,
            });
        }
        // Reference ranking from the single global engine.
        let rank_ir = starts_source::extensions::translate_ranking_ext(
            gq.query.ranking.as_ref().expect("workload queries rank"),
            global.index().analyzer(),
        );
        let reference: Vec<String> = global
            .eval_ranking(&rank_ir)
            .into_iter()
            .filter_map(|(doc, _)| {
                global
                    .index()
                    .doc_field(doc, global.index().schema().get("linkage")?)
                    .map(str::to_string)
            })
            .collect();

        let tfidf = TfIdfMerge::from_inputs(&inputs, &sizes);
        let strategies: Vec<&dyn Merger> = vec![
            &RawScoreMerge,
            &NormalizedMerge,
            &RoundRobinMerge,
            &TfMerge,
            &tfidf,
            &WeightedMerge,
        ];
        for (mi, merger) in strategies.iter().enumerate() {
            let merged = merger.merge(&inputs);
            let ranked: Vec<String> = merged.into_iter().map(|d| d.linkage).collect();
            metrics[mi]
                .0
                .push(precision_at_k(&ranked, &gq.relevant, 10));
            metrics[mi].1.push(recall_at_k(&ranked, &gq.relevant, 30));
            metrics[mi].2.push(kendall_tau(&ranked, &reference));
        }
    }

    for (name, (p, r, t)) in names.iter().zip(&metrics) {
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", mean(p)),
            format!("{:.3}", mean(r)),
            format!("{:.3}", mean(t)),
        ]);
    }
    section(&format!(
        "mean over {} queries, {} sources (vendors rotated acme/bolt/okapi)",
        workload.queries.len(),
        corpus.sources.len()
    ));
    print_table(
        &["merge strategy", "P@10", "R@30", "tau vs single-source"],
        &rows,
    );

    section("verdict");
    let p10 = |name: &str| -> f64 {
        let i = names.iter().position(|n| *n == name).unwrap();
        mean(&metrics[i].0)
    };
    println!(
        "   raw-score P@10 = {:.3}; best statistics-based = {:.3}",
        p10("raw-score"),
        p10("termstats-tfidf")
            .max(p10("termstats-tf"))
            .max(p10("range-normalized")),
    );
    assert!(
        p10("termstats-tfidf").max(p10("termstats-tf")) >= p10("raw-score"),
        "TermStats merging must not lose to raw scores"
    );
    println!(
        "   shape matches §3.2/Example 9: scores alone are incomparable; the exported\n\
         statistics are what make meaningful merging possible."
    );
}
