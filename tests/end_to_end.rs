//! End-to-end integration: the full stack (corpus → sources → network →
//! metasearcher) exercised together, with protocol-level invariants
//! checked along the way.

use starts::corpus::{generate_corpus, generate_workload, CorpusConfig, WorkloadConfig};
use starts::meta::catalog::Catalog;
use starts::meta::eval::{mean, recall_at_k, selection_recall};
use starts::meta::merge::{Merger, RawScoreMerge, SourceResult, TfMerge};
use starts::meta::metasearcher::{MetaConfig, Metasearcher};
use starts::meta::select::{BySize, GGlossSum, Selector};
use starts::net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts::source::{vendors, Source, SourceConfig};

fn small_corpus() -> starts::corpus::GeneratedCorpus {
    generate_corpus(&CorpusConfig {
        n_sources: 6,
        docs_per_source: 40,
        n_topics: 3,
        background_vocab: 400,
        topic_vocab: 60,
        doc_len: (20, 60),
        topic_skew: 0.4,
        bilingual_fraction: 0.0,
        seed: 1234,
    })
}

fn wire_corpus(net: &SimNet, corpus: &starts::corpus::GeneratedCorpus) -> Catalog {
    for s in &corpus.sources {
        wire_source(
            net,
            Source::build(SourceConfig::new(&s.id), &s.docs),
            LinkProfile::default(),
        );
    }
    let client = StartsClient::new(net);
    let mut catalog = Catalog::default();
    for s in &corpus.sources {
        catalog
            .discover_source(
                &client,
                &format!("starts://{}/metadata", s.id.to_lowercase()),
                LinkProfile::default(),
                false,
            )
            .unwrap();
    }
    catalog
}

#[test]
fn gloss_selection_beats_by_size() {
    let corpus = small_corpus();
    let net = SimNet::new();
    let catalog = wire_corpus(&net, &corpus);
    let workload = generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 25,
            ..WorkloadConfig::default()
        },
    );
    let mut gloss_cov = Vec::new();
    let mut size_cov = Vec::new();
    for gq in &workload.queries {
        let terms_owned = Metasearcher::selection_terms(&gq.query);
        let terms: Vec<(Option<&str>, &str)> = terms_owned
            .iter()
            .map(|(f, t)| (f.as_deref(), t.as_str()))
            .collect();
        for (selector, acc) in [
            (&GGlossSum as &dyn Selector, &mut gloss_cov),
            (&BySize, &mut size_cov),
        ] {
            let selected: Vec<usize> = selector
                .rank(&catalog, &terms)
                .into_iter()
                .take(2)
                .map(|(i, _)| i)
                .collect();
            acc.push(selection_recall(&selected, &gq.relevant_by_source));
        }
    }
    let gloss = mean(&gloss_cov);
    let size = mean(&size_cov);
    assert!(
        gloss > size + 0.2,
        "GlOSS ({gloss:.3}) should clearly beat size-only selection ({size:.3})"
    );
    assert!(gloss > 0.8, "GlOSS coverage too low: {gloss:.3}");
}

#[test]
fn metasearch_recall_improves_with_more_sources() {
    let corpus = small_corpus();
    let net = SimNet::new();
    let workload = generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 15,
            ..WorkloadConfig::default()
        },
    );
    let mut prev = -1.0;
    for k in [1usize, 3, 6] {
        let catalog = wire_corpus(&net, &corpus);
        let meta = Metasearcher::new(
            &net,
            catalog,
            MetaConfig {
                max_sources: k,
                max_results: 50,
                ..MetaConfig::default()
            },
        );
        let mut recalls = Vec::new();
        for gq in &workload.queries {
            let resp = meta.search(&gq.query);
            let ranked: Vec<String> = resp.merged.iter().map(|d| d.linkage.clone()).collect();
            recalls.push(recall_at_k(&ranked, &gq.relevant, 50));
        }
        let r = mean(&recalls);
        assert!(
            r >= prev - 0.02,
            "recall should not degrade with more sources: k={k}, {r:.3} < {prev:.3}"
        );
        prev = r;
    }
    assert!(
        prev > 0.5,
        "contacting all sources should find most: {prev:.3}"
    );
}

#[test]
fn heterogeneous_fleet_scores_stay_in_declared_ranges() {
    // Protocol invariant: every raw score a source returns lies inside
    // its exported ScoreRange.
    let net = SimNet::new();
    let corpus = small_corpus();
    for (i, cfg) in vendors::fleet().into_iter().enumerate() {
        wire_source(
            &net,
            Source::build(cfg, &corpus.sources[i % corpus.sources.len()].docs),
            LinkProfile::default(),
        );
    }
    let client = StartsClient::new(&net);
    let query = starts::proto::Query {
        ranking: Some(
            starts::proto::query::parse_ranking(r#"list((body-of-text "w0001"))"#).unwrap(),
        ),
        ..starts::proto::Query::default()
    };
    for id in ["acme-src", "bolt-src", "okapi-src", "rankonly-src"] {
        let metadata = client
            .fetch_metadata(&format!("starts://{id}/metadata"))
            .unwrap();
        let results = client
            .query(&format!("starts://{id}/query"), &query)
            .unwrap();
        let (lo, hi) = metadata.score_range;
        for d in &results.documents {
            if let Some(s) = d.raw_score {
                assert!(
                    s >= lo - 1e-9 && s <= hi + 1e-9,
                    "{id}: score {s} outside declared range {lo}..{hi}"
                );
            }
        }
    }
}

#[test]
fn merging_with_statistics_beats_raw_scores() {
    // Two personalities with incompatible scales index DIFFERENT topical
    // slices; ground truth says which documents are best. TermStats
    // merging must beat raw-score merging on average precision.
    let corpus = small_corpus();
    let net = SimNet::new();
    // Same documents but heterogeneous vendors per source.
    let mut configs = vec![
        vendors::acme("Gen-0"),
        vendors::bolt("Gen-1"),
        vendors::okapi("Gen-2"),
        vendors::acme("Gen-3"),
        vendors::bolt("Gen-4"),
        vendors::okapi("Gen-5"),
    ];
    for (cfg, s) in configs.drain(..).zip(&corpus.sources) {
        let mut cfg = cfg;
        cfg.id = s.id.clone();
        cfg.name = s.id.clone();
        cfg.base_url = format!("starts://{}", s.id.to_lowercase());
        wire_source(&net, Source::build(cfg, &s.docs), LinkProfile::default());
    }
    let client = StartsClient::new(&net);
    // Query BACKGROUND vocabulary words: every source holds them, so the
    // Vendor-K sources (Gen-1, Gen-4) always answer. Their documents are
    // no better than anyone else's — yet raw-score merging puts them
    // first because their top score is pinned at 1000 (§3.2).
    let mut raw_captures = Vec::new();
    let mut tf_captures = Vec::new();
    for word in ["w0003", "w0005", "w0008", "w0012", "w0002"] {
        let query = starts::proto::Query {
            ranking: Some(
                starts::proto::query::parse_ranking(&format!(r#"list((body-of-text "{word}"))"#))
                    .unwrap(),
            ),
            ..starts::proto::Query::default()
        };
        let mut inputs = Vec::new();
        for s in &corpus.sources {
            let metadata = client
                .fetch_metadata(&format!("starts://{}/metadata", s.id.to_lowercase()))
                .unwrap();
            let results = client
                .query(&format!("starts://{}/query", s.id.to_lowercase()), &query)
                .unwrap();
            inputs.push(SourceResult {
                metadata: metadata.into(),
                results,
                source_weight: 1.0,
            });
        }
        let bolt_answered = inputs.iter().any(|i| {
            (i.metadata.source_id == "Gen-1" || i.metadata.source_id == "Gen-4")
                && !i.results.documents.is_empty()
        });
        if !bolt_answered {
            continue;
        }
        let capture = |merged: Vec<starts::meta::MergedDoc>| -> f64 {
            let top: Vec<_> = merged.into_iter().take(5).collect();
            if top.is_empty() {
                return 0.0;
            }
            let bolt = top
                .iter()
                .filter(|d| d.sources.iter().any(|s| s == "Gen-1" || s == "Gen-4"))
                .count();
            bolt as f64 / top.len() as f64
        };
        raw_captures.push(capture(RawScoreMerge.merge(&inputs)));
        tf_captures.push(capture(TfMerge.merge(&inputs)));
    }
    assert!(
        !raw_captures.is_empty(),
        "no query reached the Vendor-K sources"
    );
    let raw_capture = mean(&raw_captures);
    let tf_capture = mean(&tf_captures);
    // Fair share of the top-5 for 2 of 6 equal sources is ~1/3.
    assert!(
        raw_capture > 0.8,
        "raw merging should let the 1000-scale vendor capture the top ranks: {raw_capture:.3}"
    );
    assert!(
        tf_capture < raw_capture - 0.3,
        "Example 9 re-ranking should break scale capture: raw {raw_capture:.3} vs tf {tf_capture:.3}"
    );
}

#[test]
fn transport_is_stateless_and_repeatable() {
    let corpus = small_corpus();
    let net = SimNet::new();
    wire_corpus(&net, &corpus);
    let client = StartsClient::new(&net);
    let gq = &generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 1,
            ..WorkloadConfig::default()
        },
    )
    .queries[0];
    let url = "starts://gen-0/query";
    let a = client.query(url, &gq.query).unwrap();
    let b = client.query(url, &gq.query).unwrap();
    assert_eq!(a, b, "identical stateless requests must agree");
}
