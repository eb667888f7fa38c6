//! X10 — black-box score calibration via SampleDatabaseResults (§4.2).
//!
//! Every source publishes the results of fixed queries over a fixed
//! sample collection. Fitting an affine map between two sources' scores
//! on the *same sample documents* recovers their scale relationship —
//! without ever learning the proprietary algorithms, exactly as §4.2
//! proposes. The experiment prints the fitted map matrix and shows that
//! calibrated merging repairs the raw-score disaster.

use starts_bench::{header, print_table, section};
use starts_corpus::{generate_corpus, CorpusConfig};
use starts_meta::calibrate::fit_score_map;
use starts_meta::eval::mean;
use starts_meta::merge::{Merger, RawScoreMerge, SourceResult};
use starts_net::host::wire_source;
use starts_net::{LinkProfile, SimNet, StartsClient};
use starts_proto::query::parse_ranking;
use starts_proto::Query;
use starts_source::{sample::sample_results, vendors, Source, SourceConfig};

fn main() {
    header("X10  black-box calibration from SampleDatabaseResults");
    let configs: Vec<SourceConfig> = vec![
        vendors::acme("Acme"),
        vendors::bolt("Bolt"),
        vendors::okapi("Okapi"),
        vendors::rankonly("Plain"),
    ];

    section("fitted affine maps into Acme's [0,1] scale (from samples)");
    let reference = sample_results(&configs[0]);
    let mut rows = Vec::new();
    let mut maps = Vec::new();
    for cfg in &configs {
        let samples = sample_results(cfg);
        let map = fit_score_map(&samples, &reference).expect("shared sample collection");
        rows.push(vec![
            cfg.id.clone(),
            format!("{:.6}", map.alpha),
            format!("{:.4}", map.beta),
            format!("{:.3}", map.correlation),
            map.n.to_string(),
        ]);
        maps.push(map);
    }
    print_table(&["source", "alpha", "beta", "corr", "pairs"], &rows);
    println!();
    println!(
        "   Bolt's alpha ≈ 1/1000 exposes its score-scale; Okapi/Plain get sensible\n\
         compressions — all inferred from published sample results alone."
    );

    section("calibrated merging vs raw merging on live data (disjoint slices)");
    // Each vendor indexes its own slice of one collection. The reference
    // order is a single global engine over ALL documents (the metasearch
    // ideal). Raw merging lets Bolt's 1000-scale slice capture the top;
    // calibrated scores are mutually comparable.
    let corpus = generate_corpus(&CorpusConfig {
        n_sources: 4,
        docs_per_source: 40,
        n_topics: 1,
        topic_skew: 0.2,
        seed: 2001,
        ..CorpusConfig::default()
    });
    let net = SimNet::new();
    for (cfg, slice) in configs.iter().zip(&corpus.sources) {
        let mut c = cfg.clone();
        c.base_url = format!("starts://{}", c.id.to_lowercase());
        wire_source(&net, Source::build(c, &slice.docs), LinkProfile::default());
    }
    let global =
        starts_index::Engine::build(&corpus.all_docs(), starts_index::EngineConfig::default());
    let client = StartsClient::new(&net);
    let mut raw_tau = Vec::new();
    let mut cal_tau = Vec::new();
    for word in ["w0002", "w0004", "w0007", "w0010", "w0015", "w0001"] {
        let query = Query {
            ranking: Some(parse_ranking(&format!(r#"list((body-of-text "{word}"))"#)).unwrap()),
            ..Query::default()
        };
        let mut raws = Vec::new();
        let mut cals = Vec::new();
        for (cfg, map) in configs.iter().zip(&maps) {
            let metadata = std::sync::Arc::new(
                client
                    .fetch_metadata(&format!("starts://{}/metadata", cfg.id.to_lowercase()))
                    .unwrap(),
            );
            let results = client
                .query(&format!("starts://{}/query", cfg.id.to_lowercase()), &query)
                .unwrap();
            let mut calibrated = results.clone();
            for d in &mut calibrated.documents {
                if let Some(s) = d.raw_score {
                    d.raw_score = Some(map.apply(s));
                }
            }
            raws.push(SourceResult {
                metadata: metadata.clone(),
                results,
                source_weight: 1.0,
            });
            cals.push(SourceResult {
                metadata,
                results: calibrated,
                source_weight: 1.0,
            });
        }
        // The global reference ranking for this query.
        let rank_ir = starts_source::translate::translate_ranking(query.ranking.as_ref().unwrap());
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
        let tau = |merged: Vec<starts_meta::MergedDoc>| -> f64 {
            let ranked: Vec<String> = merged.into_iter().map(|d| d.linkage).collect();
            starts_meta::eval::kendall_tau(&ranked, &reference)
        };
        raw_tau.push(tau(RawScoreMerge.merge(&raws)));
        cal_tau.push(tau(RawScoreMerge.merge(&cals)));
    }
    println!(
        "   rank correlation (Kendall tau) of the merged list against a single\n\
         global engine over all documents:"
    );
    println!("     raw scores       : {:.3}", mean(&raw_tau));
    println!("     calibrated scores: {:.3}", mean(&cal_tau));
    assert!(
        mean(&cal_tau) > mean(&raw_tau),
        "calibration should recover a scale-comparable merged order"
    );

    section("verdict");
    println!(
        "   sample-database results make sources calibratable as black boxes — the\n\
         mechanism §4.2 proposed for engines that cannot export statistics."
    );
}
