//! The work budget: what an index build, a sharded search, the serving
//! layer's cached path, the results and summary codecs and the recording
//! calls cost,
//! in counts that
//! repeat from run to run on any machine — heap bytes held at peak and
//! after, postings bytes by representation, postings scored, allocator
//! calls, bytes on the wire and spans closed — checked against the
//! values in `BUDGET.json`.
//!
//! The binary installs a counting global allocator and holds exactly one
//! test, so nothing else in the process allocates while it measures.
//! `cargo test --test work_budget -- --nocapture` prints the rows. A
//! change that moves a row updates `BUDGET.json` in the same diff.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starts::corpus::{generate_corpus, CorpusConfig, GeneratedCorpus, Zipf};
use starts::index::ShardPolicy;
use starts::meta::catalog::Catalog;
use starts::meta::metasearcher::MetaConfig;
use starts::meta::pipeline::normalized_query_key;
use starts::net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts::obs::{ManualClock, Monitor, MonitorConfig, Registry};
use starts::proto::query::ast::{FilterExpr, ProxSpec, QTerm, RankExpr, WeightedTerm};
use starts::proto::{
    AnswerSpec, ContentSummary, Field, Modifier, Query, QueryResults, TraceContext,
};
use starts::serve::{HedgeConfig, ServeConfig, Served, Server};
use starts::soif::ParseMode;
use starts::source::{vendors, Source};

/// Bytes currently allocated (as requested, not as rounded up by the
/// system allocator).
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `LIVE_BYTES` since it was last reset.
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Allocator calls that obtained memory: `alloc`, `alloc_zeroed` and
/// `realloc`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method hands its caller's arguments unchanged to the
// same method of `System` and returns what it returns, so the caller's
// guarantees under the `GlobalAlloc` contract are exactly what `System`
// needs. The counters are statistics; nothing reads them to decide
// anything about memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // A realloc briefly holds both blocks.
        grow(new_size);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Count `bytes` as live and raise the high-water mark to match.
fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 19970526;
const QUERIES: usize = 320;
const K: usize = 10;

/// `fed_zipf`'s federation: 12 sources × 500 documents over the five
/// vendor personalities, 3 sources selected per query.
fn wire_fleet(net: &SimNet) -> (Catalog, GeneratedCorpus) {
    let corpus = generate_corpus(&CorpusConfig {
        n_sources: 12,
        docs_per_source: 500,
        n_topics: 4,
        background_vocab: 1500,
        topic_vocab: 100,
        doc_len: (25, 90),
        topic_skew: 0.35,
        bilingual_fraction: 0.0,
        seed: SEED,
    });
    let personalities = [
        vendors::acme,
        vendors::bolt,
        vendors::okapi,
        vendors::glimpse,
        vendors::rankonly,
    ];
    let client = StartsClient::new(net);
    let mut catalog = Catalog::default();
    for (slot, s) in corpus.sources.iter().enumerate() {
        let config = personalities[slot % personalities.len()](&s.id);
        wire_source(net, Source::build(config, &s.docs), LinkProfile::default());
        let url = format!("starts://{}/metadata", s.id.to_ascii_lowercase());
        catalog
            .discover_source(&client, &url, LinkProfile::default(), false)
            .expect("discovery of a just-wired source");
    }
    (catalog, corpus)
}

/// Documents of the one source the index rows build.
const INDEX_DOCS: usize = 4000;

/// One source of `INDEX_DOCS` documents in `big_tree`'s corpus shape.
fn index_corpus() -> GeneratedCorpus {
    generate_corpus(&CorpusConfig {
        n_sources: 1,
        docs_per_source: INDEX_DOCS,
        n_topics: 4,
        background_vocab: 1500,
        topic_vocab: 100,
        doc_len: (25, 90),
        topic_skew: 0.35,
        bilingual_fraction: 0.0,
        seed: SEED,
    })
}

/// Build one Acme source over [`index_corpus`] — one exact shard, so
/// the build runs on this thread — and return, per document, its heap
/// high-water mark above the starting point, the bytes it still holds
/// once built, the allocator calls the build made, and the bytes of
/// its block postings and of its positional frames.
fn index_rows() -> [(&'static str, f64); 5] {
    let corpus = index_corpus();
    let s = &corpus.sources[0];
    let mut config = vendors::acme(&s.id);
    config.engine.shards = 1;
    config.engine.shard_policy = ShardPolicy::Exact;
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let calls = ALLOCATIONS.load(Ordering::Relaxed);
    let source = Source::build(config, &s.docs);
    let calls = ALLOCATIONS.load(Ordering::Relaxed) - calls;
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - base;
    let retained = LIVE_BYTES.load(Ordering::Relaxed) - base;
    let footprint = source.engine().postings_footprint();
    drop(source);
    let n = s.docs.len() as f64;
    [
        ("index.build.peak_live_bytes_per_doc", peak as f64 / n),
        ("index.retained_bytes_per_doc", retained as f64 / n),
        ("index.build.allocations_per_doc", calls as f64 / n),
        (
            "index.block_bytes_per_doc",
            footprint.block_bytes as f64 / n,
        ),
        (
            "index.positional_bytes_per_doc",
            footprint.positional_bytes as f64 / n,
        ),
    ]
}

/// Allocator calls per warm span with no fields (nested two deep, on
/// paths seen before, into a span ring already full), and per lookup
/// of a labelled counter that already exists: what the hot path pays
/// to record.
fn obs_rows() -> (f64, f64) {
    const N: u64 = 1_000;
    let reg = Registry::new();
    let span = || {
        let _outer = reg.span("serve.query");
        let _inner = reg.span("dispatch");
    };
    let lookup = || {
        reg.counter_with("meta.source.queries", &[("source", "Gen-0"), ("wave", "1")])
            .inc();
    };
    // Warm: the first use interns the paths and makes the instrument;
    // a few thousand spans grow the ring to its cap.
    for _ in 0..4 * N {
        span();
    }
    lookup();
    let calls = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..N {
        span();
    }
    let spans = ALLOCATIONS.load(Ordering::Relaxed) - calls;
    let calls = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..N {
        lookup();
    }
    let lookups = ALLOCATIONS.load(Ordering::Relaxed) - calls;
    (spans as f64 / (2 * N) as f64, lookups as f64 / N as f64)
}

/// Postings scored per query — `candidates − skipped_docs` from each
/// answer's EXPLAIN tree — when `queries` run at k = `K` on a
/// `shards`-shard Acme source over [`index_corpus`]. With two shards
/// the second starts from the score floor the first one reached, so
/// the row falls when that floor carries over and rises when it does
/// not.
fn postings_scored(shards: usize, queries: &[Query]) -> f64 {
    let corpus = index_corpus();
    let s = &corpus.sources[0];
    let mut config = vendors::acme(&s.id);
    config.engine.shards = shards;
    config.engine.shard_policy = ShardPolicy::Exact;
    let source = Source::build(config, &s.docs);
    assert_eq!(source.engine().shard_count(), shards);
    let mut scored = 0;
    for query in queries {
        let traced = Query {
            trace: Some(TraceContext {
                query_id: "q-budget".to_string(),
                parent_path: "meta.search/dispatch/source".to_string(),
                parent_span_id: 1,
            }),
            ..query.clone()
        };
        let profile = source.execute(&traced).profile.expect("a traced answer");
        let execute = profile.find("execute").expect("an execute stage");
        let count = |key: &str| -> u64 {
            let value = execute.meta_value(key).expect("a prune count");
            value.parse().expect("a count")
        };
        scored += count("candidates") - count("skipped_docs");
    }
    scored as f64 / queries.len() as f64
}

/// A `fed_zipf`-shaped word: a topic word three times in ten, else a
/// background word, each drawn from a Zipf over its list.
fn word_sampler(corpus: &GeneratedCorpus) -> impl Fn(&mut StdRng) -> QTerm + '_ {
    let background = Zipf::new(corpus.background.len(), 1.0);
    let topic = Zipf::new(corpus.topics[0].len(), 0.8);
    move |rng| {
        let w = if rng.gen_bool(0.3) {
            let t = rng.gen_range(0..corpus.topics.len());
            &corpus.topics[t][topic.sample(rng)]
        } else {
            &corpus.background[background.sample(rng)]
        };
        QTerm::fielded(Field::BodyOfText, w.as_str())
    }
}

/// A ranked query for the `K` best documents.
fn top_k(filter: Option<FilterExpr>, ranking: RankExpr) -> Query {
    Query {
        filter,
        ranking: Some(ranking),
        answer: AnswerSpec {
            fields: vec![Field::Title],
            max_documents: K,
            ..AnswerSpec::default()
        },
        ..Query::default()
    }
}

/// `QUERIES` pairwise distinct `fed_zipf`-shaped queries: 1–3 ranked
/// words, mostly common ones, one query in four under a filter.
fn query_pool(corpus: &GeneratedCorpus) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let word = word_sampler(corpus);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(QUERIES);
    while pool.len() < QUERIES {
        let terms = rng.gen_range(1..=3);
        let ranking = RankExpr::list_of((0..terms).map(|_| word(&mut rng)));
        let filter = (rng.gen_range(0..4) == 0).then(|| FilterExpr::term(word(&mut rng)));
        let query = top_k(filter, ranking);
        if seen.insert(normalized_query_key(&query)) {
            pool.push(query);
        }
    }
    pool
}

/// `QUERIES` operator-tree rankings over [`word_sampler`]'s words, in
/// turn `and(a, b)`, `or(a, and(b, c))`, `and-not(a, b)` and
/// `prox[3](a, b)`: shapes that never take the flat-list fast path.
fn tree_pool(corpus: &GeneratedCorpus) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let word = word_sampler(corpus);
    let term = |rng: &mut StdRng| Box::new(RankExpr::term(word(rng)));
    (0..QUERIES)
        .map(|i| {
            let ranking = match i % 4 {
                0 => RankExpr::And(term(&mut rng), term(&mut rng)),
                1 => {
                    let a = term(&mut rng);
                    RankExpr::Or(a, Box::new(RankExpr::And(term(&mut rng), term(&mut rng))))
                }
                2 => RankExpr::AndNot(term(&mut rng), term(&mut rng)),
                _ => RankExpr::Prox(
                    WeightedTerm::plain(word(&mut rng)),
                    ProxSpec {
                        distance: 3,
                        ordered: false,
                    },
                    WeightedTerm::plain(word(&mut rng)),
                ),
            };
            top_k(None, ranking)
        })
        .collect()
}

/// `QUERIES` one-word rankings over [`word_sampler`]'s words, in turn
/// under `stem` and right-truncated to their first four letters. The
/// Acme vendor does not stem its index, so both expand to several
/// vocabulary keys, and Block-Max WAND bounds the leaf with a sidecar
/// built for the query.
fn multikey_pool(corpus: &GeneratedCorpus) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let word = word_sampler(corpus);
    (0..QUERIES)
        .map(|i| {
            let term = word(&mut rng);
            let term = if i % 2 == 0 {
                term.with(Modifier::Stem)
            } else {
                let prefix: String = term.value.text.chars().take(4).collect();
                QTerm::fielded(Field::BodyOfText, prefix).with(Modifier::RightTruncation)
            };
            top_k(None, RankExpr::term(term))
        })
        .collect()
}

/// The checked-in value of one `BUDGET.json` row.
fn budget(name: &str) -> f64 {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BUDGET.json"))
        .expect("BUDGET.json at the package root");
    let key = format!("\"{name}\"");
    let at = text
        .find(&key)
        .unwrap_or_else(|| panic!("no {key} in BUDGET.json"));
    let value = text[at + key.len()..].trim_start().trim_start_matches(':');
    let end = value
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c.is_whitespace()))
        .unwrap_or(value.len());
    value[..end].trim().parse().expect("a number")
}

fn check(name: &str, measured: f64) {
    let budget = budget(name);
    println!("{name}: {measured:.1} (budget {budget})");
    assert!(
        measured <= budget * 1.05,
        "{name} = {measured:.1} is over its budget of {budget} by more than 5 %"
    );
}

/// Spans closed so far on the net's registry, every path counted.
fn spans_closed(net: &SimNet) -> u64 {
    let snap = net.registry().snapshot();
    let spans = snap
        .histograms
        .iter()
        .filter(|h| h.id.name == "span.duration_us");
    spans.map(|h| h.count).sum()
}

/// Threads this process runs now (Linux: one `/proc/self/task` entry
/// each).
fn threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks.count()
}

#[test]
fn the_cached_path_stays_within_its_budget() {
    // Before anything else runs: no other thread allocates meanwhile.
    let index = index_rows();
    let (per_span, per_lookup) = obs_rows();

    let net = Arc::new(SimNet::new());
    // The monitor samples the registry once per second of its clock,
    // and a sample allocates: on a frozen clock the misses below take
    // exactly one, however long a loaded machine makes them run.
    net.set_monitor(Arc::new(Monitor::new(MonitorConfig {
        clock: Arc::new(ManualClock::new(0)),
        ..MonitorConfig::default()
    })));
    let (catalog, corpus) = wire_fleet(&net);
    let summaries: Vec<_> = catalog
        .entries
        .iter()
        .map(|e| Arc::clone(&e.summary))
        .collect();
    let queries = query_pool(&corpus);
    // Its build spawns a thread per shard, so it runs after the index
    // rows have taken their allocation readings.
    let sharded = postings_scored(2, &queries);
    let tree = postings_scored(1, &tree_pool(&corpus));
    let multikey = postings_scored(1, &multikey_pool(&corpus));
    let threads_before = threads();
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig {
            max_sources: 3,
            max_results: K,
            ..MetaConfig::default()
        },
        ServeConfig {
            query_workers: 1,
            hedge: HedgeConfig {
                enabled: false,
                ..HedgeConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let server_threads = threads().saturating_sub(threads_before);

    // Every query once: each leads a wave and leaves its answer cached.
    // One client never finds the running slot taken, so each miss runs
    // on this thread from plan to merge — the hosts behind an unpaced
    // net answer on it too — and nothing waits for a slot; a miss would
    // be counted on every thread it touched.
    let mut reports = Vec::with_capacity(queries.len());
    let queued = || net.registry().snapshot().counter("serve.queued", &[]);
    let (spans_before, net_before, queued_before) = (spans_closed(&net), net.stats(), queued());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for query in &queries {
        let outcome = server.search(query).expect("served");
        assert_eq!(outcome.via, Served::Executed);
        reports.push(outcome.wave.expect("a miss runs a wave"));
    }
    // Each miss freed its running slot before its `search` returned.
    assert_eq!(net.registry().snapshot().gauge("serve.inflight", &[]), 0.0);
    let misses = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let (spans, net_after) = (spans_closed(&net) - spans_before, net.stats());
    let handed_off = queued() - queued_before;
    let wire_bytes = (net_after.bytes_sent + net_after.bytes_received)
        - (net_before.bytes_sent + net_before.bytes_received);
    assert_eq!(server.cached_responses(), queries.len());

    // Every query again: each is a hit, answered on this thread. The
    // default selector ranks from the catalog alone, so a hit closes
    // its `serve.query` span and no `select` or `adapt`.
    let spans_before = spans_closed(&net);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for query in &queries {
        let outcome = server.search(query).expect("served");
        assert_eq!(outcome.via, Served::CacheHit);
    }
    let hits = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let hit_spans = spans_closed(&net) - spans_before;

    // What the cache holds is exactly what invalidating it frees.
    let cached = server.cached_responses();
    let held = LIVE_BYTES.load(Ordering::Relaxed);
    server.invalidate_cache();
    let freed = held - LIVE_BYTES.load(Ordering::Relaxed);
    assert_eq!(server.cached_responses(), 0);

    // The results codec alone, over every response the misses received:
    // encoded as its host encodes it, decoded as the client decodes it.
    let responses: Vec<&QueryResults> = reports
        .iter()
        .flat_map(|report| report.per_source.iter().map(|s| &s.results))
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for results in &responses {
        let bytes = results.to_soif_stream();
        let decoded = QueryResults::from_soif_stream(&bytes).expect("a response decodes");
        assert_eq!(&decoded, *results);
    }
    let codec = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // The summary codec alone, over the fleet's content summaries:
    // encoded as a host serves one, decoded as discovery reads it.
    let terms: usize = summaries.iter().map(|s| s.total_terms()).sum();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for summary in &summaries {
        let bytes = summary.to_soif_bytes();
        let decoded = ContentSummary::from_soif_bytes(&bytes, ParseMode::Strict);
        assert_eq!(decoded.as_ref(), Ok(&***summary));
    }
    let summary_codec = ALLOCATIONS.load(Ordering::Relaxed) - before;

    for (name, per_doc) in index {
        check(name, per_doc);
    }
    check("index.sharded.postings_scored_per_query", sharded);
    check("index.tree.postings_scored_per_query", tree);
    check("index.multikey.postings_scored_per_query", multikey);
    let n = queries.len() as f64;
    check(
        "serve.cache.retained_bytes_per_entry",
        freed as f64 / cached as f64,
    );
    check("serve.hit.allocations_per_request", hits as f64 / n);
    check("serve.hit.spans_per_request", hit_spans as f64 / n);
    check("serve.miss.allocations_per_request", misses as f64 / n);
    check("serve.miss.wire_bytes_per_request", wire_bytes as f64 / n);
    check("serve.miss.spans_per_request", spans as f64 / n);
    check("serve.miss.queued_per_request", handed_off as f64 / n);
    check("serve.threads_per_server", server_threads as f64);
    check(
        "codec.results.allocations_per_response",
        codec as f64 / responses.len() as f64,
    );
    check(
        "codec.summary.allocations_per_term",
        summary_codec as f64 / terms as f64,
    );
    check("obs.span.allocations_per_span", per_span);
    check("obs.lookup.allocations_per_call", per_lookup);
}
