//! X17 — hedged requests against a straggler (beyond the paper's
//! artifacts).
//!
//! The serving layer (`starts-serve`) runs the metasearch pipeline
//! under bounded running slots and a fixed dispatch pool, with
//! singleflight, caching, hedging and deadlines. This experiment is the hedging on/off A/B: the network is
//! paced into real time and one source is made a straggler (400
//! simulated ms against 50 for the rest) with a fast replica wired
//! beside it. With hedging off every query waits for the straggler;
//! with hedging on the health-derived delay fires a backup to the
//! replica and the tail collapses.
//!
//! Unpaced serving throughput — the server against a single caller, QPS
//! versus client count — is the end-to-end benchmark's business
//! (`benchmark/README.md`: `qps`, `serve.miss_us`, `meta.search_us` on
//! `fed_zipf` / `hot_repeat`), not this binary's.
//!
//! Writes `BENCH_concurrency.json` (override with `--out PATH`); pass
//! `--smoke` for a seconds-scale CI run.

use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use starts_bench::{
    header, machine_parallelism, print_table, provenance_note, section, standard_corpus,
    starts_query, zipf_workload, BenchArgs, LatencyStats,
};
use starts_corpus::{generate_corpus, CorpusConfig, GeneratedCorpus};
use starts_meta::catalog::Catalog;
use starts_meta::metasearcher::MetaConfig;
use starts_net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts_serve::{HedgeConfig, ServeConfig, Server};
use starts_source::{Source, SourceConfig};

/// Result-list bound, matching the X14 hot-path regime.
const K: usize = 10;

/// Client count for the hedged-tail experiment.
const HEDGE_CLIENTS: usize = 4;

/// Pacing for the hedged-tail experiment: 50µs of wall time per
/// simulated millisecond (the straggler's 400 sim ms → 20ms wall).
const HEDGE_PACING: u64 = 50;

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let out_path = args.out_or("BENCH_concurrency.json");
    let n_queries = if smoke { 40 } else { 160 };

    header("X17  concurrent serving: hedged tails against a straggler");
    let corpus = if smoke {
        standard_corpus()
    } else {
        generate_corpus(&CorpusConfig {
            n_sources: 12,
            docs_per_source: 200,
            n_topics: 4,
            background_vocab: 1500,
            topic_vocab: 100,
            doc_len: (25, 90),
            topic_skew: 0.35,
            bilingual_fraction: 0.0,
            seed: 19970526,
        })
    };
    let terms = zipf_workload(&corpus, n_queries, 2026);
    println!(
        "corpus: {} sources, {} docs; workload: {} Zipf queries; k = {K}",
        corpus.sources.len(),
        corpus.total_docs(),
        terms.len()
    );

    section("hedged tail: one 400ms straggler among 50ms sources, fast replica");
    let straggler = corpus.sources[0].id.clone();
    let (net, catalog, replicas) = wire_with_straggler(&corpus, &straggler);
    let tail = |hedge_on: bool| -> LatencyStats {
        net.set_pacing(HEDGE_PACING);
        let server = Server::new(
            Arc::clone(&net),
            catalog.clone(),
            MetaConfig {
                max_results: K,
                max_sources: corpus.sources.len(), // every wave meets the straggler
                ..MetaConfig::default()
            },
            ServeConfig {
                query_workers: HEDGE_CLIENTS,
                // Paced dispatches hold a worker while they sleep; give
                // every in-flight (source, hedge) pair its own worker so
                // queueing doesn't mask the straggler.
                dispatch_workers: 2 * HEDGE_CLIENTS * corpus.sources.len(),
                queue_capacity: 2 * HEDGE_CLIENTS + 16,
                cache_ttl: Duration::ZERO,
                hedge: HedgeConfig {
                    enabled: hedge_on,
                    factor: 0.25,
                    min_delay_ms: 100, // fires at 100 sim ms, well before 400
                },
                replicas: replicas.clone(),
                ..ServeConfig::default()
            },
        );
        let stats = run_clients(&server, &terms, HEDGE_CLIENTS);
        net.set_pacing(0);
        stats
    };
    let hedge_off = tail(false);
    let hedge_on = tail(true);
    let snap = net.registry().snapshot();
    let hedges_launched = snap.counter("serve.hedge.launched", &[("source", &straggler)]);
    let hedge_wins = snap.counter("serve.hedge.wins", &[("source", &straggler)]);
    print_table(
        &["hedging", "QPS", "p50 µs", "p95 µs", "p99 µs"],
        &[hedge_off.row("off"), hedge_on.row("on")],
    );
    println!();
    println!(
        "hedges launched {hedges_launched}, won {hedge_wins}; \
         p95 {:.0}µs -> {:.0}µs",
        hedge_off.p95_us, hedge_on.p95_us
    );

    let json = render_json(
        smoke,
        &corpus,
        n_queries,
        &hedge_off,
        &hedge_on,
        hedges_launched,
        hedge_wins,
    );
    std::fs::write(&out_path, json).expect("write BENCH_concurrency.json");
    println!("wrote {out_path}");
}

/// Drive `clients` threads over even shares of the workload against one
/// server; aggregate per-request latencies across all threads.
fn run_clients(server: &Server, terms: &[Vec<String>], clients: usize) -> LatencyStats {
    // Warmup outside the timed window.
    for t in terms.iter().take(5) {
        server.search(&starts_query(t, K)).expect("warmup query");
    }
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(terms.len()));
    let barrier = Barrier::new(clients);
    let total = Instant::now();
    std::thread::scope(|scope| {
        for chunk in chunks(terms, clients) {
            let (latencies, barrier) = (&latencies, &barrier);
            scope.spawn(move || {
                let mut local = Vec::with_capacity(chunk.len());
                barrier.wait();
                for t in chunk {
                    let start = Instant::now();
                    let outcome = server.search(&starts_query(t, K)).expect("serve query");
                    std::hint::black_box(outcome.response.merged.len());
                    local.push(start.elapsed().as_secs_f64() * 1e6);
                }
                latencies.lock().expect("latency sink").extend(local);
            });
        }
    });
    let elapsed = total.elapsed().as_secs_f64();
    LatencyStats::from_latencies(latencies.into_inner().expect("latency sink"), elapsed)
}

/// Split a slice into `n` near-even contiguous chunks (no empties).
fn chunks<T>(items: &[T], n: usize) -> Vec<&[T]> {
    let size = items.len().div_ceil(n.max(1));
    items.chunks(size.max(1)).collect()
}

/// Wire the corpus with one straggler source (400 sim ms) and a fast
/// replica of it; every other source sits behind a 50ms link.
fn wire_with_straggler(
    corpus: &GeneratedCorpus,
    straggler: &str,
) -> (Arc<SimNet>, Catalog, HashMap<String, String>) {
    let net = Arc::new(SimNet::new());
    for s in &corpus.sources {
        let latency_ms = if s.id == straggler { 400 } else { 50 };
        wire_source(
            &net,
            Source::build(SourceConfig::new(&s.id), &s.docs),
            LinkProfile {
                latency_ms,
                cost_per_query: 0.0,
            },
        );
    }
    // The replica: same documents, its own endpoints, a fast link.
    let replica_id = format!("{straggler}-r");
    let replica_docs = &corpus
        .sources
        .iter()
        .find(|s| s.id == straggler)
        .expect("straggler in corpus")
        .docs;
    let replica_url = wire_source(
        &net,
        Source::build(SourceConfig::new(&replica_id), replica_docs),
        LinkProfile {
            latency_ms: 40,
            cost_per_query: 0.0,
        },
    );
    let client = StartsClient::new(&net);
    let mut catalog = Catalog::default();
    for s in &corpus.sources {
        catalog
            .discover_source(
                &client,
                &format!("starts://{}/metadata", s.id.to_lowercase()),
                LinkProfile::default(),
                false,
            )
            .expect("discovery");
    }
    let replicas = HashMap::from([(straggler.to_string(), replica_url)]);
    (net, catalog, replicas)
}

/// Hand-rolled JSON artifact (schema documented in
/// `docs/performance.md`).
fn render_json(
    smoke: bool,
    corpus: &GeneratedCorpus,
    n_queries: usize,
    hedge_off: &LatencyStats,
    hedge_on: &LatencyStats,
    hedges_launched: u64,
    hedge_wins: u64,
) -> String {
    let parallelism = machine_parallelism();
    let note = provenance_note(
        parallelism,
        "the hedged-tail rows are paced (sleep-bound), so they barely move \
         with core count",
    );
    format!(
        "{{\n  \"bench\": \"x17_concurrency\",\n  \"note\": \"{note}\",\n  \
         \"smoke\": {smoke},\n  \"k\": {K},\n  \
         \"queries\": {n_queries},\n  \"machine_parallelism\": {parallelism},\n  \
         \"corpus\": {{\"sources\": {}, \"docs\": {}}},\n  \
         \"hedged\": {{\n    \"clients\": {HEDGE_CLIENTS},\n    \
         \"pacing_us_per_ms\": {HEDGE_PACING},\n    \
         \"off\": {},\n    \"on\": {},\n    \
         \"hedges_launched\": {hedges_launched},\n    \
         \"hedge_wins\": {hedge_wins}\n  }}\n}}\n",
        corpus.sources.len(),
        corpus.total_docs(),
        hedge_off.json(),
        hedge_on.json(),
    )
}
