//! Workload definitions and the seeded generators behind them.
//!
//! A workload is a federation shape (how many sources, which vendor
//! personalities, how the links behave), a pool of distinct queries and
//! a request sequence over that pool. Everything is generated here from
//! one `--seed` and handed to the program as plain `Document`s and
//! `Query`s; the program never sees the seed.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starts_corpus::{generate_corpus, CorpusConfig, GeneratedCorpus, Zipf};
use starts_proto::query::ast::{FilterExpr, ProxSpec, QTerm, RankExpr};
use starts_proto::{AnswerSpec, Field, Query};

/// SIGMOD'97 opened on 1997-05-26; the repo's experiments all seed from it.
pub const DEFAULT_SEED: u64 = 19970526;

/// `AnswerSpec::max_documents` and `MetaConfig::max_results` on every workload.
pub const K: usize = 10;

/// Closed-loop client threads (= `nproc` of the reference box).
pub const CLIENTS: usize = 2;

/// `ServeConfig::query_workers`, pinned so the numbers do not change
/// meaning with the host's core count.
pub const QUERY_WORKERS: usize = 2;

/// Length of the pre-drawn popularity sequence (`hot_repeat`); requests
/// wrap around it, which no run of 60 s or less reaches.
const SEQUENCE_LEN: usize = 1 << 18;

/// The vendor personalities of `starts_source::vendors`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vendor {
    Acme,
    Bolt,
    Okapi,
    Glimpse,
    RankOnly,
}

/// Which query generator a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 1–3-term flat ranked lists, one in four with an `and` filter.
    Flat,
    /// Four operator-tree shapes anchored by a rare topic word.
    Tree,
}

/// Real-time link behaviour of the `wan_straggler` federation.
#[derive(Debug, Clone, Copy)]
pub struct Wan {
    /// `SimNet::set_pacing`: µs of wall time per simulated ms.
    pub pacing_us_per_ms: u64,
    /// Link latency of every source but the straggler, simulated ms.
    pub link_ms: u32,
    /// Link latency of source 0, simulated ms.
    pub straggler_ms: u32,
    /// Link latency of source 0's replica, simulated ms.
    pub replica_ms: u32,
    pub hedge_factor: f64,
    pub hedge_min_delay_ms: u64,
    /// `ServeConfig::deadline_ms` (wall).
    pub deadline_ms: u64,
    pub dispatch_workers: usize,
}

/// Everything that defines one workload. Sizes live here and nowhere
/// else; the result JSON echoes them. Why each workload exists is in
/// `BENCHMARK.json` and `README.md`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub n_sources: usize,
    pub docs_per_source: usize,
    /// Cycled over the sources.
    pub vendors: &'static [Vendor],
    /// `EngineConfig::shards` with `ShardPolicy::Exact`; 0 keeps the
    /// vendor's own (adaptive) setting.
    pub exact_shards: usize,
    pub max_sources: usize,
    pub shape: Shape,
    pub n_queries: usize,
    /// `ServeConfig::default()` caching (60 s TTL) when true, off when false.
    pub cache: bool,
    /// Zipf(1.0) popularity over the pool when true, round-robin when false.
    pub zipf_popularity: bool,
    /// `Server::invalidate_source` before every n-th request (global counter).
    pub invalidate_every: Option<u64>,
    pub wan: Option<Wan>,
}

const FLEET: &[Vendor] = &[
    Vendor::Acme,
    Vendor::Bolt,
    Vendor::Okapi,
    Vendor::Glimpse,
    Vendor::RankOnly,
];

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "fed_zipf",
        n_sources: 12,
        docs_per_source: 500,
        vendors: FLEET,
        exact_shards: 0,
        max_sources: 3,
        shape: Shape::Flat,
        n_queries: 8192,
        cache: false,
        zipf_popularity: false,
        invalidate_every: None,
        wan: None,
    },
    Spec {
        name: "big_tree",
        n_sources: 2,
        docs_per_source: 40_000,
        vendors: &[Vendor::Acme],
        exact_shards: 2,
        max_sources: 2,
        shape: Shape::Tree,
        n_queries: 4096,
        cache: false,
        zipf_popularity: false,
        invalidate_every: None,
        wan: None,
    },
    Spec {
        name: "hot_repeat",
        n_sources: 12,
        docs_per_source: 500,
        vendors: FLEET,
        exact_shards: 0,
        max_sources: 3,
        shape: Shape::Flat,
        n_queries: 8192,
        cache: true,
        zipf_popularity: true,
        invalidate_every: Some(10_000),
        wan: None,
    },
    Spec {
        name: "wan_straggler",
        n_sources: 4,
        docs_per_source: 2000,
        vendors: &[Vendor::Acme, Vendor::Bolt, Vendor::Okapi, Vendor::Glimpse],
        exact_shards: 0,
        max_sources: 4,
        shape: Shape::Flat,
        n_queries: 8192,
        cache: false,
        zipf_popularity: false,
        invalidate_every: None,
        wan: Some(Wan {
            pacing_us_per_ms: 100,
            link_ms: 50,
            straggler_ms: 400,
            replica_ms: 40,
            hedge_factor: 0.25,
            hedge_min_delay_ms: 100,
            deadline_ms: 1000,
            dispatch_workers: 16,
        }),
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The generated inputs of one workload.
pub struct Inputs {
    pub corpus: GeneratedCorpus,
    /// The pool of distinct queries.
    pub queries: Vec<Query>,
    /// Pool indices in request order; request `n` asks for
    /// `queries[sequence[n % sequence.len()]]`.
    pub sequence: Vec<u32>,
}

/// SplitMix64 step: derives independent sub-seeds (corpus, query pool,
/// popularity) from the one `--seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn corpus_config(spec: &Spec, seed: u64) -> CorpusConfig {
    // Corpus shape as x14: 4 topics, 1,500 background / 100 topic words,
    // 25–90 tokens per document, skew 0.35.
    CorpusConfig {
        n_sources: spec.n_sources,
        docs_per_source: spec.docs_per_source,
        n_topics: 4,
        background_vocab: 1500,
        topic_vocab: 100,
        doc_len: (25, 90),
        topic_skew: 0.35,
        bilingual_fraction: 0.0,
        seed: sub_seed(seed, 1),
    }
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let corpus = generate_corpus(&corpus_config(spec, seed));
    let queries = query_pool(spec, &corpus, sub_seed(seed, 2));
    let sequence = if spec.zipf_popularity {
        popularity_sequence(queries.len(), SEQUENCE_LEN, sub_seed(seed, 3))
    } else {
        (0..queries.len() as u32).collect()
    };
    Inputs {
        corpus,
        queries,
        sequence,
    }
}

/// `len` pool indices drawn with Zipf(1.0) popularity over `pool` queries.
pub fn popularity_sequence(pool: usize, len: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(pool, 1.0);
    (0..len).map(|_| zipf.sample(&mut rng) as u32).collect()
}

/// Word sampler shared by both query shapes: background words by
/// Zipf(1.0) rank, topic words by Zipf(0.8) rank — the distributions the
/// corpus generator itself draws tokens from.
struct Words<'c> {
    corpus: &'c GeneratedCorpus,
    background: Zipf,
    topic: Zipf,
    /// Topics that some source actually holds.
    live_topics: usize,
}

impl<'c> Words<'c> {
    fn new(corpus: &'c GeneratedCorpus) -> Self {
        Words {
            corpus,
            background: Zipf::new(corpus.background.len(), 1.0),
            topic: Zipf::new(corpus.topics[0].len(), 0.8),
            live_topics: corpus.topics.len().min(corpus.sources.len()),
        }
    }

    fn background(&self, rng: &mut StdRng) -> &'c str {
        &self.corpus.background[self.background.sample(rng)]
    }

    fn topic(&self, rng: &mut StdRng) -> &'c str {
        let t = rng.gen_range(0..self.live_topics);
        &self.corpus.topics[t][self.topic.sample(rng)]
    }

    /// The `zipf_workload` mixture: mostly common words, sometimes a
    /// rare, discriminative one.
    fn mixed(&self, rng: &mut StdRng) -> &'c str {
        if rng.gen_bool(0.3) {
            self.topic(rng)
        } else {
            self.background(rng)
        }
    }
}

fn body(word: &str) -> QTerm {
    QTerm::fielded(Field::BodyOfText, word)
}

fn bounded(filter: Option<FilterExpr>, ranking: RankExpr) -> Query {
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

fn flat_query(words: &Words<'_>, rng: &mut StdRng) -> Query {
    let k = rng.gen_range(1..=3);
    let ranking = RankExpr::list_of((0..k).map(|_| body(words.mixed(rng))));
    let filter = (rng.gen_range(0..4) == 0).then(|| {
        let first = FilterExpr::term(body(words.mixed(rng)));
        if rng.gen_bool(0.5) {
            FilterExpr::and(first, FilterExpr::term(body(words.mixed(rng))))
        } else {
            first
        }
    });
    bounded(filter, ranking)
}

fn tree_query(words: &Words<'_>, rng: &mut StdRng) -> Query {
    let anchor = body(words.topic(rng));
    let a = body(words.background(rng));
    let b = body(words.background(rng));
    let c = body(words.background(rng));
    let t = RankExpr::term;
    match rng.gen_range(0..4) {
        // or-filter + `or`/`and` ranking
        0 => bounded(
            Some(FilterExpr::or(
                FilterExpr::term(anchor.clone()),
                FilterExpr::term(a.clone()),
            )),
            RankExpr::Or(
                Box::new(t(anchor)),
                Box::new(RankExpr::And(Box::new(t(a)), Box::new(t(b)))),
            ),
        ),
        // ranked list with a nested `or`
        1 => bounded(
            None,
            RankExpr::List(vec![
                t(anchor),
                RankExpr::Or(Box::new(t(a)), Box::new(t(b))),
                t(c),
            ]),
        ),
        // `and-not` filter + 3-term list
        2 => bounded(
            Some(FilterExpr::and_not(
                FilterExpr::term(a.clone()),
                FilterExpr::term(b),
            )),
            RankExpr::List(vec![t(anchor), t(a), t(c)]),
        ),
        // `prox` filter + 2-term list
        _ => bounded(
            Some(FilterExpr::Prox(
                a.clone(),
                ProxSpec {
                    distance: 8,
                    ordered: false,
                },
                b,
            )),
            RankExpr::List(vec![t(anchor), t(a)]),
        ),
    }
}

/// `spec.n_queries` pairwise distinct queries.
fn query_pool(spec: &Spec, corpus: &GeneratedCorpus, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let words = Words::new(corpus);
    let mut seen: HashSet<String> = HashSet::with_capacity(spec.n_queries);
    let mut pool = Vec::with_capacity(spec.n_queries);
    while pool.len() < spec.n_queries {
        let q = match spec.shape {
            Shape::Flat => flat_query(&words, &mut rng),
            Shape::Tree => tree_query(&words, &mut rng),
        };
        if seen.insert(starts_meta::pipeline::normalized_query_key(&q)) {
            pool.push(q);
        }
    }
    pool
}

/// The request schedule: which pool query request `n` asks for, and
/// whether an invalidation precedes it. Pure functions of the global
/// request counter, so any number of client threads pulling numbers
/// from one atomic follow the same schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule<'a> {
    pub sequence: &'a [u32],
    pub invalidate_every: Option<u64>,
    pub n_sources: usize,
}

impl Schedule<'_> {
    pub fn query_index(&self, n: u64) -> usize {
        self.sequence[(n % self.sequence.len() as u64) as usize] as usize
    }

    /// The catalog slot to invalidate before request `n`, if any:
    /// source `(n / every) mod n_sources` before every `every`-th request.
    pub fn invalidation(&self, n: u64) -> Option<usize> {
        let every = self.invalidate_every?;
        (n > 0 && n.is_multiple_of(every)).then(|| ((n / every) % self.n_sources as u64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn small(shape: Shape, zipf_popularity: bool) -> Spec {
        Spec {
            n_sources: 4,
            docs_per_source: 30,
            n_queries: 64,
            shape,
            zipf_popularity,
            ..SPECS[0]
        }
    }

    #[test]
    fn one_seed_one_input_two_seeds_two_inputs() {
        for (shape, pop) in [(Shape::Flat, true), (Shape::Tree, false)] {
            let spec = small(shape, pop);
            let a = generate(&spec, 7);
            let b = generate(&spec, 7);
            let c = generate(&spec, 8);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.sequence, b.sequence);
            for (x, y) in a.corpus.sources.iter().zip(&b.corpus.sources) {
                assert_eq!(x.docs, y.docs);
            }
            assert_ne!(a.queries, c.queries);
            assert_ne!(a.corpus.sources[0].docs, c.corpus.sources[0].docs);
            if pop {
                assert_ne!(a.sequence, c.sequence);
            }
        }
    }

    #[test]
    fn sub_seeds_are_independent_streams() {
        let s: HashSet<u64> = (1..=3).map(|i| sub_seed(DEFAULT_SEED, i)).collect();
        assert_eq!(s.len(), 3);
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
    }

    #[test]
    fn pool_queries_are_distinct_bounded_and_shaped() {
        let flat = generate(&small(Shape::Flat, false), 3);
        let keys: HashSet<String> = flat
            .queries
            .iter()
            .map(starts_meta::pipeline::normalized_query_key)
            .collect();
        assert_eq!(keys.len(), 64);
        for q in &flat.queries {
            assert_eq!(q.answer.max_documents, K);
            let n = q.ranking.as_ref().unwrap().terms().len();
            assert!((1..=3).contains(&n));
            if let Some(f) = &q.filter {
                assert!((1..=2).contains(&f.terms().len()));
            }
        }
        assert!(flat.queries.iter().any(|q| q.filter.is_some()));
        let tree = generate(&small(Shape::Tree, false), 3);
        assert!(tree
            .queries
            .iter()
            .any(|q| matches!(q.filter, Some(FilterExpr::Prox(..)))));
        assert!(tree
            .queries
            .iter()
            .any(|q| matches!(q.ranking, Some(RankExpr::Or(..)))));
    }

    #[test]
    fn popularity_sequence_stays_in_the_pool_and_is_skewed() {
        let seq = popularity_sequence(100, 20_000, 11);
        assert_eq!(seq.len(), 20_000);
        assert!(seq.iter().all(|&i| (i as usize) < 100));
        let head = seq.iter().filter(|&&i| i == 0).count();
        let tail = seq.iter().filter(|&&i| i == 99).count();
        // Zipf(1.0) over 100 ranks: P(0) ≈ 0.19, P(99) ≈ 0.002.
        assert!(head > 3000 && tail < 200, "head {head} tail {tail}");
    }

    #[test]
    fn round_robin_schedule_cycles_the_pool() {
        let seq: Vec<u32> = (0..5).collect();
        let s = Schedule {
            sequence: &seq,
            invalidate_every: None,
            n_sources: 3,
        };
        assert_eq!(s.query_index(0), 0);
        assert_eq!(s.query_index(7), 2);
        assert_eq!(s.invalidation(10_000), None);
    }

    #[test]
    fn invalidations_land_exactly_every_10000th_request_under_two_threads() {
        let seq = [0u32];
        let schedule = Schedule {
            sequence: &seq,
            invalidate_every: Some(10_000),
            n_sources: 12,
        };
        let counter = AtomicU64::new(0);
        let fired: Mutex<Vec<(u64, usize)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let n = counter.fetch_add(1, Ordering::Relaxed);
                    if n >= 130_001 {
                        break;
                    }
                    if let Some(slot) = schedule.invalidation(n) {
                        fired.lock().unwrap().push((n, slot));
                    }
                });
            }
        });
        let mut fired = fired.into_inner().unwrap();
        fired.sort_unstable();
        let expected: Vec<(u64, usize)> = (1..=13u64)
            .map(|i| (i * 10_000, (i % 12) as usize))
            .collect();
        assert_eq!(fired, expected);
    }
}
