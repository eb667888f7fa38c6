//! Metasearch-layer benchmarks: source selection over a large catalog,
//! merge-strategy throughput, and the end-to-end search pipeline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use starts_bench::{standard_corpus, standard_workload, wire_and_discover};
use starts_meta::merge::{
    Merger, NormalizedMerge, RawScoreMerge, RoundRobinMerge, SourceResult, TfIdfMerge, TfMerge,
};
use starts_meta::metasearcher::{MetaConfig, Metasearcher};
use starts_meta::select::{BGloss, Cori, GGlossSum, Selector};
use starts_net::{SimNet, StartsClient};

fn bench_selection(c: &mut Criterion) {
    let corpus = standard_corpus();
    let net = SimNet::new();
    let catalog = wire_and_discover(&net, &corpus);
    let terms: Vec<(Option<&str>, &str)> = vec![
        (Some("body-of-text"), "t0x001"),
        (Some("body-of-text"), "t0x002"),
    ];
    let mut group = c.benchmark_group("select_12_sources");
    let selectors: Vec<(&str, Box<dyn Selector>)> = vec![
        ("bGlOSS", Box::new(BGloss)),
        ("gGlOSS", Box::new(GGlossSum)),
        ("CORI", Box::new(Cori::default())),
    ];
    for (name, selector) in &selectors {
        group.bench_with_input(BenchmarkId::from_parameter(name), selector, |b, s| {
            b.iter(|| s.rank(black_box(&catalog), black_box(&terms)))
        });
    }
    group.finish();
}

fn gather_inputs() -> Vec<SourceResult> {
    let corpus = standard_corpus();
    let net = SimNet::new();
    wire_and_discover(&net, &corpus);
    let client = StartsClient::new(&net);
    let workload = standard_workload(&corpus);
    let gq = &workload.queries[0];
    corpus
        .sources
        .iter()
        .map(|s| {
            let metadata = client
                .fetch_metadata(&format!("starts://{}/metadata", s.id.to_lowercase()))
                .unwrap();
            let results = client
                .query(
                    &format!("starts://{}/query", s.id.to_lowercase()),
                    &gq.query,
                )
                .unwrap();
            SourceResult {
                metadata: metadata.into(),
                results,
                source_weight: 1.0,
            }
        })
        .collect()
}

fn bench_merging(c: &mut Criterion) {
    let inputs = gather_inputs();
    let sizes: Vec<u64> = vec![80; 12];
    let tfidf = TfIdfMerge::from_inputs(&inputs, &sizes);
    let mut group = c.benchmark_group("merge_12_sources");
    let strategies: Vec<(&str, &dyn Merger)> = vec![
        ("raw", &RawScoreMerge),
        ("normalized", &NormalizedMerge),
        ("round_robin", &RoundRobinMerge),
        ("tf", &TfMerge),
        ("tfidf", &tfidf),
    ];
    for (name, merger) in strategies {
        group.bench_function(name, |b| b.iter(|| merger.merge(black_box(&inputs))));
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let corpus = standard_corpus();
    let net = SimNet::new();
    let catalog = wire_and_discover(&net, &corpus);
    let workload = standard_workload(&corpus);
    let meta = Metasearcher::new(
        &net,
        catalog,
        MetaConfig {
            max_sources: 3,
            ..MetaConfig::default()
        },
    );
    let query = &workload.queries[0].query;
    c.bench_function("metasearch/end_to_end_3_sources", |b| {
        b.iter(|| meta.search(black_box(query)))
    });
}

criterion_group!(benches, bench_selection, bench_merging, bench_end_to_end);
criterion_main!(benches);
