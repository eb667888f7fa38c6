//! X14 — the top-k hot path, measured (beyond the paper's artifacts).
//!
//! STARTS callers always bound their answer (`max-documents`, §4.1.3),
//! yet the original evaluator scored and fully sorted every candidate
//! before truncating. This experiment measures what the bounded
//! pipeline buys inside the engine:
//!
//! * **engine-naive** — the reference evaluator
//!   (`Engine::eval_ranking_naive`): repeated two-way unions, one
//!   tree-walk per candidate document, full sort, truncate;
//! * **engine-topk** — the fast path (`Engine::eval_ranking_top_k`):
//!   leaves resolved once, Block-Max WAND over the block postings,
//!   bounded heap selection (X16 measures the pruning in depth).
//!
//! The layers above the engine — a source's parse → translate →
//! execute → render pipeline and the federated fan-out over it — are
//! clocked by the end-to-end benchmark (`benchmark/README.md`:
//! `source.execute_us`, `meta.search_us` on `fed_zipf`), not here.
//!
//! The Zipf-distributed query workload mirrors real term frequencies:
//! most queries contain at least one very common word, which is
//! exactly the regime where scoring everything hurts.
//!
//! Writes `BENCH_hotpath.json` (override with `--out PATH`); pass
//! `--smoke` for a seconds-scale CI run on the standard corpus.

use std::time::Instant;

use starts_bench::{
    header, machine_parallelism, measure, print_table, provenance_note, rank_node, section,
    standard_corpus, zipf_workload, BenchArgs, LatencyStats,
};
use starts_corpus::{generate_corpus, CorpusConfig, GeneratedCorpus};
use starts_index::{Engine, EngineConfig};

/// Result-list bound for every path (the ISSUE's `max-documents ≤ 20`
/// regime).
const K: usize = 10;

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let out_path = args.out_or("BENCH_hotpath.json");
    let n_queries = if smoke { 60 } else { 400 };

    header("X14  top-k hot path: naive walk vs bounded Block-Max-WAND pipeline");
    let corpus = if smoke {
        standard_corpus()
    } else {
        // A larger corpus than the standard one: the hot path's win
        // grows with candidate-set size, so measure where it matters.
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
    let terms = zipf_workload(&corpus, n_queries, 1997);
    println!(
        "corpus: {} sources, {} docs; workload: {} Zipf queries; k = {K}",
        corpus.sources.len(),
        corpus.total_docs(),
        terms.len()
    );

    // Engine paths: one engine over the combined corpus. Time the build
    // too — the indexing rate is part of the artifact (see
    // docs/performance.md).
    let docs = corpus.all_docs();
    let build_start = Instant::now();
    let engine = Engine::build(&docs, EngineConfig::default());
    let build_docs_per_s = docs.len() as f64 / build_start.elapsed().as_secs_f64().max(1e-12);
    println!(
        "index build: {build_docs_per_s:.0} docs/s over {} docs",
        docs.len()
    );
    let naive = measure(&terms, |t| {
        let node = rank_node(t);
        let mut hits = engine.eval_ranking_naive(&node);
        hits.truncate(K);
        hits.len()
    });
    let topk = measure(&terms, |t| {
        let node = rank_node(t);
        engine.eval_ranking_top_k(&node, Some(K)).len()
    });

    let speedup = topk.qps / naive.qps.max(1e-9);
    section("throughput and latency per path");
    print_table(
        &["path", "QPS", "p50 µs", "p95 µs", "p99 µs"],
        &[naive.row("engine-naive"), topk.row("engine-topk")],
    );
    println!();
    println!(
        "engine fast path speedup at k={K}: {speedup:.2}x \
         (naive {:.0} QPS -> top-k {:.0} QPS)",
        naive.qps, topk.qps
    );
    // The bounded pipeline exists to beat the full sort; losing to it
    // is a regression on any machine.
    assert!(
        speedup >= 1.0,
        "top-k ({:.0} QPS) is slower than the naive walk ({:.0} QPS)",
        topk.qps,
        naive.qps
    );

    let json = render_json(smoke, &corpus, n_queries, build_docs_per_s, &naive, &topk);
    std::fs::write(&out_path, json).expect("write BENCH_hotpath.json");
    println!("wrote {out_path}");
}

/// Hand-rolled JSON artifact (schema documented in
/// `docs/performance.md`).
fn render_json(
    smoke: bool,
    corpus: &GeneratedCorpus,
    n_queries: usize,
    build_docs_per_s: f64,
    naive: &LatencyStats,
    topk: &LatencyStats,
) -> String {
    let parallelism = machine_parallelism();
    let note = provenance_note(
        parallelism,
        "the engine speedup is machine-independent but absolute QPS is not",
    );
    format!(
        "{{\n  \"bench\": \"x14_hotpath\",\n  \"note\": \"{note}\",\n  \
         \"smoke\": {smoke},\n  \"k\": {K},\n  \
         \"queries\": {n_queries},\n  \"machine_parallelism\": {parallelism},\n  \
         \"corpus\": {{\"sources\": {}, \"docs\": {}}},\n  \
         \"build_docs_per_s\": {build_docs_per_s:.0},\n  \
         \"paths\": {{\n    \"engine_naive\": {},\n    \"engine_topk\": {}\n  }},\n  \
         \"engine_speedup\": {:.2}\n}}\n",
        corpus.sources.len(),
        corpus.total_docs(),
        naive.json(),
        topk.json(),
        topk.qps / naive.qps.max(1e-9),
    )
}
