//! X15 — sharded engine: parallel index build and shard-by-shard top-k
//! (beyond the paper's artifacts).
//!
//! The monolithic engine builds its index and answers every query on
//! one thread. The sharded engine partitions the documents across N
//! shards and builds the per-shard indexes concurrently. A query still
//! runs on its caller's thread: `search_top_k` evaluates the shards in
//! order, each starting from the score floor the earlier ones reached,
//! and k-way-merges the per-shard sorted lists — with global collection
//! statistics, so the merged top-k is *bit-identical* to the monolithic
//! answer (enforced here by a spot check and exhaustively by
//! `crates/index/tests/shard_properties.rs`).
//!
//! This experiment measures what sharding buys and costs at each shard
//! count (1/2/4/8): index build rate in docs/s, and query QPS with
//! p50/p95/p99 latency at k = 10 on the same Zipf workload X14 uses.
//! The artifact records `machine_parallelism`: the build can only speed
//! up on spare cores, while every extra shard costs each query one more
//! resolve-and-evaluate pass on any machine.
//!
//! Writes `BENCH_shard.json` (override with `--out PATH`); pass
//! `--smoke` for a seconds-scale CI run on the standard corpus.

use std::time::Instant;

use starts_bench::{
    header, machine_parallelism, measure, print_table, provenance_note, rank_node, section,
    standard_corpus, zipf_workload, BenchArgs, LatencyStats,
};
use starts_corpus::{generate_corpus, CorpusConfig};
use starts_index::{EngineConfig, ShardPolicy, ShardedEngine};

/// Result-list bound for every query (the X14 regime).
const K: usize = 10;

/// Shard counts under measurement; 1 is the monolithic baseline.
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let out_path = args.out_or("BENCH_shard.json");
    let n_queries = if smoke { 60 } else { 400 };
    let parallelism = machine_parallelism();

    header("X15  sharded engine: parallel build + shard-by-shard top-k vs monolithic");
    let corpus = if smoke {
        standard_corpus()
    } else {
        generate_corpus(&CorpusConfig {
            n_sources: 12,
            docs_per_source: 400,
            n_topics: 4,
            background_vocab: 1500,
            topic_vocab: 100,
            doc_len: (25, 90),
            topic_skew: 0.35,
            bilingual_fraction: 0.0,
            seed: 19970526,
        })
    };
    let docs = corpus.all_docs();
    let terms = zipf_workload(&corpus, n_queries, 1997);
    println!(
        "corpus: {} docs; workload: {} Zipf queries; k = {K}; \
         machine parallelism: {parallelism}",
        docs.len(),
        terms.len()
    );
    if parallelism < *SHARD_COUNTS.last().unwrap() {
        println!(
            "note: only {parallelism} hardware thread(s) available — shard counts \
             beyond that cannot build faster"
        );
    }

    // Exact policy: this experiment exists to measure what each
    // *physical* shard count costs, so the adaptive coalescing that
    // deployments get by default is deliberately switched off here.
    let config = |shards: usize| EngineConfig {
        shards,
        shard_policy: ShardPolicy::Exact,
        ..EngineConfig::default()
    };

    // Baseline for the exactness spot check.
    let baseline = ShardedEngine::build(&docs, config(1));

    let mut rows = Vec::new();
    let mut stats = Vec::new();
    for &shards in SHARD_COUNTS {
        let build_start = Instant::now();
        let engine = ShardedEngine::build(&docs, config(shards));
        let build_s = build_start.elapsed().as_secs_f64().max(1e-12);
        let build_docs_per_s = docs.len() as f64 / build_s;

        // Exactness spot check on the first queries of the workload;
        // the property suite covers this exhaustively.
        for t in terms.iter().take(10) {
            let node = rank_node(t);
            assert_eq!(
                engine.search_top_k(None, Some(&node), Some(K)),
                baseline.search_top_k(None, Some(&node), Some(K)),
                "sharded top-k diverged from monolithic at shards={shards}"
            );
        }

        let qs = measure(&terms, |t| {
            let node = rank_node(t);
            engine.search_top_k(None, Some(&node), Some(K)).len()
        });
        let mut row = qs.row(&shards.to_string());
        row.insert(1, format!("{build_docs_per_s:.0}"));
        rows.push(row);
        stats.push(ShardStats {
            shards,
            build_s,
            build_docs_per_s,
            qs,
        });
    }

    section("build rate and query latency per shard count");
    print_table(
        &[
            "shards",
            "build docs/s",
            "QPS",
            "p50 µs",
            "p95 µs",
            "p99 µs",
        ],
        &rows,
    );
    println!();
    let base_build = stats[0].build_docs_per_s;
    for s in &stats[1..] {
        println!(
            "shards={}: build {:.2}x vs monolithic, query p95 {:.1} µs vs {:.1} µs",
            s.shards,
            s.build_docs_per_s / base_build.max(1e-9),
            s.qs.p95_us,
            stats[0].qs.p95_us
        );
    }

    let json = render_json(smoke, &docs.len(), n_queries, parallelism, &stats);
    std::fs::write(&out_path, json).expect("write BENCH_shard.json");
    println!("wrote {out_path}");
}

/// Per-shard-count measurements.
struct ShardStats {
    shards: usize,
    build_s: f64,
    build_docs_per_s: f64,
    qs: LatencyStats,
}

/// Hand-rolled JSON artifact (schema documented in
/// `docs/performance.md`).
fn render_json(
    smoke: bool,
    n_docs: &usize,
    n_queries: usize,
    parallelism: usize,
    stats: &[ShardStats],
) -> String {
    let shards: Vec<String> = stats
        .iter()
        .map(|s| {
            format!(
                "    {{\"shards\": {}, \"build_s\": {:.4}, \"build_docs_per_s\": {:.0}, \
                 \"qps\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}",
                s.shards,
                s.build_s,
                s.build_docs_per_s,
                s.qs.qps,
                s.qs.p50_us,
                s.qs.p95_us,
                s.qs.p99_us
            )
        })
        .collect();
    let note = provenance_note(
        parallelism,
        "shard counts above the core count cannot build faster, and every \
         extra shard costs each query one more pass on the calling thread",
    );
    format!(
        "{{\n  \"bench\": \"x15_shard\",\n  \
         \"note\": \"{note}\",\n  \"smoke\": {smoke},\n  \"k\": {K},\n  \
         \"queries\": {n_queries},\n  \"docs\": {n_docs},\n  \
         \"machine_parallelism\": {parallelism},\n  \"shards\": [\n{}\n  ]\n}}\n",
        shards.join(",\n")
    )
}
