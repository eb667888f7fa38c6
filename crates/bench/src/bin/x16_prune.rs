//! X16 — dynamic pruning: what Block-Max-WAND top-k skips (beyond the
//! paper's artifacts).
//!
//! Scoring every candidate and letting a heap discard the losers (the
//! naive oracle X14 measures) wastes most of the work on a bounded
//! query. Block-Max WAND skips the scoring itself: postings live in
//! fixed 128-doc bit-packed blocks (doc-id deltas and tfs
//! frame-of-reference packed at the block's own bit widths) with a
//! per-block score upper bound recorded at build time; at query time
//! doc-sorted cursors select a pivot against the top-k threshold θ and
//! whole blocks whose bound falls strictly below θ are jumped without
//! ever being decoded —
//! including through `and`/`or`/weighted operator *trees*, whose bound
//! is propagated bottom-up per block. Under sharding the shards run one
//! after another and each starts from the k-th score the earlier ones
//! reached, so a full heap in one shard tightens the bound check of
//! every shard after it. The results are *bit-identical* to the naive
//! oracle (`Engine::search_naive`: every candidate scored, one full
//! sort), enforced here by a spot check and exhaustively by
//! `crates/index/tests/prune_properties.rs`.
//!
//! Three workloads stress different skip regimes, each measured at
//! requested shard counts 1 and 4. Shard requests resolve under the
//! default adaptive policy, so on a machine with fewer cores than
//! shards the shards=4 rows build fewer physical shards instead of
//! paying a query pass per shard the build could not parallelize:
//!
//! * `zipf` — the X14 mix: 1–3 word flat lists, mostly common words,
//!   sometimes a rare topic word (the historical baseline),
//! * `tree` — operator-tree-heavy: nested `and`/`or`/`and-not` shapes,
//!   every query anchored by a rare topic word so the threshold rises
//!   fast and tree-bound pruning engages,
//! * `long` — long-postings: the most common background words (the
//!   longest lists in the index) paired with one rare anchor, the
//!   workload where leaping undecoded blocks pays most,
//! * `unfielded` — the `zipf` mix with every term unfielded: each leaf
//!   reads the `Any` view, its term's lists in every field, merged per
//!   query into one bounded list (the index keeps no `Any` list of its
//!   own).
//!
//! A fourth workload, `filtered`, puts a Boolean **filter** in front of
//! the ranking — the query shapes of the end-to-end benchmark's
//! `big_tree` at this corpus size, one row per shape:
//!
//! * `or` / `and-not` / `prox` — an `or`, `and-not` or `prox[8,F]`
//!   filter over background words with a ranking anchored by a rare
//!   topic word; `list` is `big_tree`'s unfiltered fourth shape, the
//!   control,
//! * `selective` — a rare-word filter over a common-word ranking, where
//!   the filter cursor leads the loop,
//! * `filter-only` — a `prox` filter and no ranking: the first `k`
//!   documents the filter admits.
//!
//! The filter is a lazy cursor inside the Block-Max-WAND loop. Every
//! filtered query must answer as the oracle does, and on the `prox`
//! rows the loop must compare positions for fewer documents than hold
//! both words (an eager evaluator compares them all).
//!
//! Reported per configuration: QPS, p50/p95/p99 latency, the fraction
//! of candidate postings skipped unscored, and the number of whole
//! blocks jumped without decoding. The artifact also records raw block
//! decode throughput (`decode_mints_per_s`, millions of u32s per
//! second streamed out of the bit-packed frames) and the postings
//! footprint per field class: the default build that keeps the
//! positional arena for `prox`, and a `PositionsMode::None` build
//! where search runs off the blocks alone.
//!
//! Writes `BENCH_prune.json` (override with `--out PATH`); pass
//! `--smoke` for a seconds-scale CI run on the standard corpus.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starts_bench::{
    decode_mints_per_s, header, machine_parallelism, measure, print_table, provenance_note,
    rank_node, section, standard_corpus, zipf_workload, BenchArgs, LatencyStats,
};
use starts_corpus::{generate_corpus, CorpusConfig, GeneratedCorpus, Zipf};
use starts_index::{
    BoolNode, EngineConfig, PositionsMode, PruneReport, RankNode, SearchOptions, ShardedEngine,
    TermSpec,
};

/// Result-list bound for every query (the X14 regime).
const K: usize = 10;

/// Shard counts under measurement: the monolithic engine and a split
/// wide enough that the floor carried between shards matters.
const SHARD_COUNTS: &[usize] = &[1, 4];

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let out_path = args.out_or("BENCH_prune.json");
    let n_queries = if smoke { 60 } else { 400 };
    let parallelism = machine_parallelism();

    header("X16  dynamic pruning: what Block-Max-WAND top-k skips");
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
    let mut workloads = vec![
        Workload::ranked(
            "zipf",
            zipf_workload(&corpus, n_queries, 1997)
                .iter()
                .map(|t| rank_node(t))
                .collect(),
        ),
        Workload::ranked(
            "unfielded",
            zipf_workload(&corpus, n_queries, 1997)
                .iter()
                .map(|t| unfielded_node(t))
                .collect(),
        ),
        Workload::ranked("tree", tree_workload(&corpus, n_queries, 4111)),
        Workload::ranked("long", long_postings_workload(&corpus, n_queries, 5309)),
    ];
    workloads.extend(filtered_workloads(&corpus, n_queries, 2600));
    println!(
        "corpus: {} docs; workloads: {} x {} queries; k = {K}; \
         machine parallelism: {parallelism}",
        docs.len(),
        workloads.len(),
        n_queries
    );

    let config = |shards: usize| EngineConfig {
        shards,
        ..EngineConfig::default()
    };
    let opts = SearchOptions {
        limit: Some(K),
        ..SearchOptions::default()
    };

    // The monolithic engine: its oracle is the exactness reference.
    let baseline = ShardedEngine::build(&docs, config(1));
    let oracle = &baseline.shards()[0];
    let footprint = baseline.postings_footprint();
    // The positions-free field class: the same corpus with the
    // positional store retired, so search runs off the bit-packed
    // blocks alone. Its footprint shows what a no-`prox` schema pays.
    let no_positions = ShardedEngine::build(
        &docs,
        EngineConfig {
            positions: PositionsMode::None,
            ..config(1)
        },
    );
    let footprint_none = no_positions.postings_footprint();
    let decode_mints = decode_mints_per_s(&baseline, if smoke { 0.2 } else { 1.0 });

    let mut rows = Vec::new();
    let mut stats = Vec::new();
    for workload in &workloads {
        let cooccurring = workload.cooccurring(&baseline);
        for &shards in SHARD_COUNTS {
            // The filtered shapes are measured monolithic only: what they
            // compare is the filter's place in the loop, and the extra
            // shard passes of a multi-shard row add nothing to it.
            if workload.shape.is_some() && shards != 1 {
                continue;
            }
            let engine = ShardedEngine::build(&docs, config(shards));

            // Exactness against the oracle — a spot check on the
            // ranking-only workloads (the property suite covers them
            // exhaustively), every query of the filtered one — and the
            // prune tallies over all.
            let mut report = PruneReport::default();
            for (i, q) in workload.queries.iter().enumerate() {
                let (hits, _, r) =
                    engine.search_top_k_observed(q.filter.as_ref(), q.ranking.as_ref(), &opts);
                report.merge(&r);
                if i < 10 || workload.shape.is_some() {
                    let mut expect = oracle.search_naive(q.filter.as_ref(), q.ranking.as_ref());
                    expect.truncate(K);
                    assert_eq!(
                        hits,
                        expect,
                        "pruned top-k diverged at workload={} shards={shards} query={i}",
                        workload.label()
                    );
                }
            }
            // A filter-only query ranks nothing, so it has nothing to
            // prune.
            if workload.queries.iter().any(|q| q.ranking.is_some()) {
                assert!(
                    report.skipped_docs > 0,
                    "pruning never engaged on the {} workload: {report:?}",
                    workload.label()
                );
                // Whole-block jumps need lists spanning several blocks;
                // splitting the corpus across shards can shrink every
                // list under the 128-doc block size, so the hard
                // assertion is monolithic-only.
                if shards == 1 {
                    assert!(
                        report.blocks_skipped > 0,
                        "no whole block was ever jumped on the {} workload: {report:?}",
                        workload.label()
                    );
                }
            }
            // The laziness the `prox` rows exist to show: positions
            // compared for fewer documents than hold both words.
            if let Some(both) = cooccurring {
                assert!(
                    report.positional_checks < both,
                    "{}: {} position checks for {both} co-occurring documents",
                    workload.label(),
                    report.positional_checks
                );
            }
            let pruned_fraction = if report.candidates > 0 {
                report.skipped_docs as f64 / report.candidates as f64
            } else {
                0.0
            };

            let qs = measure(&workload.queries, |q| {
                engine
                    .search_top_k_observed(q.filter.as_ref(), q.ranking.as_ref(), &opts)
                    .0
                    .len()
            });
            rows.push(vec![
                workload.label(),
                shards.to_string(),
                format!("{:.0}", qs.qps),
                format!("{:.1}", qs.p50_us),
                format!("{:.1}", qs.p95_us),
                format!("{:.1}", qs.p99_us),
                format!("{:.1}%", pruned_fraction * 100.0),
                report.blocks_skipped.to_string(),
                report.positional_checks.to_string(),
            ]);
            stats.push(PruneStats {
                workload: workload.name,
                shape: workload.shape,
                cooccurring,
                shards,
                qs,
                pruned_fraction,
                report,
            });
        }
    }

    section("query latency and skipped work per workload and shard count");
    print_table(
        &[
            "workload",
            "shards",
            "QPS",
            "p50 µs",
            "p95 µs",
            "p99 µs",
            "pruned",
            "blocks",
            "pos checks",
        ],
        &rows,
    );
    println!();
    println!(
        "postings memory: {} lists, {} postings; {} B positional frames, \
         {} B stored fields, {} B bit-packed blocks ({} B with positions retired)",
        footprint.lists,
        footprint.postings,
        footprint.positional_bytes,
        footprint.stored_bytes,
        footprint.block_bytes,
        footprint_none.block_bytes
    );
    println!("block decode throughput: {decode_mints:.1} M ints/s streaming every list");

    let json = render_json(
        smoke,
        docs.len(),
        n_queries,
        parallelism,
        &footprint,
        &footprint_none,
        decode_mints,
        &stats,
    );
    std::fs::write(&out_path, json).expect("write BENCH_prune.json");
    println!("wrote {out_path}");
}

/// One engine query: an optional filter in front of an optional ranking.
struct Query {
    filter: Option<BoolNode>,
    ranking: Option<RankNode>,
}

/// A named query mix; `shape` names one row of the `filtered` workload.
struct Workload {
    name: &'static str,
    shape: Option<&'static str>,
    queries: Vec<Query>,
}

impl Workload {
    fn ranked(name: &'static str, nodes: Vec<RankNode>) -> Self {
        Workload {
            name,
            shape: None,
            queries: nodes
                .into_iter()
                .map(|node| Query {
                    filter: None,
                    ranking: Some(node),
                })
                .collect(),
        }
    }

    fn label(&self) -> String {
        match self.shape {
            Some(shape) => format!("{}/{shape}", self.name),
            None => self.name.to_string(),
        }
    }

    /// Documents holding both words of each top-level `prox` filter,
    /// summed over the workload — what an eager evaluator compares
    /// positions for. `None` when no query carries one.
    fn cooccurring(&self, engine: &ShardedEngine) -> Option<u64> {
        let mut total = None;
        for q in &self.queries {
            if let Some(BoolNode::Prox { left, right, .. }) = &q.filter {
                let both =
                    BoolNode::and(BoolNode::Term(left.clone()), BoolNode::Term(right.clone()));
                *total.get_or_insert(0) += engine.search(Some(&both), None).len() as u64;
            }
        }
        total
    }
}

/// Per-configuration measurements.
struct PruneStats {
    workload: &'static str,
    shape: Option<&'static str>,
    /// See [`Workload::cooccurring`].
    cooccurring: Option<u64>,
    shards: usize,
    qs: LatencyStats,
    pruned_fraction: f64,
    report: PruneReport,
}

/// A term leaf on the `body-of-text` field.
fn leaf(word: &str) -> RankNode {
    RankNode::term(TermSpec::fielded("body-of-text", word))
}

/// [`rank_node`]'s flat `list` with every term unfielded.
fn unfielded_node(terms: &[String]) -> RankNode {
    RankNode::List(
        terms
            .iter()
            .map(|t| RankNode::term(TermSpec::any(t.as_str())))
            .collect(),
    )
}

/// A random common background word (Zipf-distributed, low rank = long
/// posting list).
fn bg_word(corpus: &GeneratedCorpus, zipf: &Zipf, rng: &mut StdRng) -> String {
    corpus.background[zipf.sample(rng)].clone()
}

/// A random rare topic word (high scores on few documents — these are
/// what drive the top-k threshold up early).
fn topic_word(corpus: &GeneratedCorpus, zipf: &Zipf, rng: &mut StdRng) -> String {
    let t = rng.gen_range(0..corpus.topics.len());
    corpus.topics[t][zipf.sample(rng)].clone()
}

/// Operator-tree-heavy workload: nested `and`/`or`/`and-not` shapes the
/// block-max evaluator must prune *through* by propagating per-block
/// bounds bottom-up. Every query is anchored by a rare topic word so a
/// few high-scoring documents raise θ early and the common-word
/// subtrees become block-skippable.
fn tree_workload(corpus: &GeneratedCorpus, n: usize, seed: u64) -> Vec<RankNode> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bg = Zipf::new(corpus.background.len(), 1.0);
    let topic = Zipf::new(corpus.topics[0].len(), 0.8);
    (0..n)
        .map(|_| {
            let anchor = leaf(&topic_word(corpus, &topic, &mut rng));
            let a = leaf(&bg_word(corpus, &bg, &mut rng));
            let b = leaf(&bg_word(corpus, &bg, &mut rng));
            let c = leaf(&bg_word(corpus, &bg, &mut rng));
            match rng.gen_range(0..4) {
                0 => RankNode::Or(vec![anchor, RankNode::And(vec![a, b])]),
                1 => RankNode::List(vec![anchor, RankNode::Or(vec![a, b]), c]),
                2 => RankNode::Or(vec![
                    RankNode::List(vec![anchor, a]),
                    RankNode::AndNot(Box::new(b), Box::new(c)),
                ]),
                _ => RankNode::And(vec![
                    RankNode::Or(vec![anchor, a]),
                    RankNode::Or(vec![b, c]),
                ]),
            }
        })
        .collect()
}

/// Long-postings workload: the most common background words — the
/// longest posting lists in the index, spanning the most blocks — with
/// one rare topic anchor. Once the anchor's documents fill the heap,
/// whole blocks of the common lists fall below θ and are jumped
/// without decoding.
fn long_postings_workload(corpus: &GeneratedCorpus, n: usize, seed: u64) -> Vec<RankNode> {
    let mut rng = StdRng::seed_from_u64(seed);
    let topic = Zipf::new(corpus.topics[0].len(), 0.8);
    let head = corpus.background.len().min(8);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(1..=2);
            let mut leaves = vec![leaf(&topic_word(corpus, &topic, &mut rng))];
            for _ in 0..k {
                leaves.push(leaf(&corpus.background[rng.gen_range(0..head)]));
            }
            RankNode::List(leaves)
        })
        .collect()
}

/// A term leaf of a filter, on the `body-of-text` field.
fn filter_term(word: &str) -> BoolNode {
    BoolNode::Term(TermSpec::fielded("body-of-text", word))
}

/// The `filtered` workload, one [`Workload`] per shape (module docs):
/// the four query shapes of the end-to-end benchmark's `big_tree`, a
/// selective filter, and a bounded filter-only query. Every shape draws
/// the same word quadruples — a rare topic anchor and three Zipf
/// background words — so the rows differ by shape alone.
fn filtered_workloads(corpus: &GeneratedCorpus, n: usize, seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bg = Zipf::new(corpus.background.len(), 1.0);
    let topic = Zipf::new(corpus.topics[0].len(), 0.8);
    let words: Vec<[String; 4]> = (0..n)
        .map(|_| {
            [
                topic_word(corpus, &topic, &mut rng),
                bg_word(corpus, &bg, &mut rng),
                bg_word(corpus, &bg, &mut rng),
                bg_word(corpus, &bg, &mut rng),
            ]
        })
        .collect();
    let prox = |a: &str, b: &str| BoolNode::Prox {
        left: TermSpec::fielded("body-of-text", a),
        right: TermSpec::fielded("body-of-text", b),
        distance: 8,
        ordered: false,
    };
    type Shape = fn(&dyn Fn(&str, &str) -> BoolNode, &[String; 4]) -> Query;
    let shapes: [(&'static str, Shape); 6] = [
        ("or", |_, [anchor, a, b, _]| Query {
            filter: Some(BoolNode::or(filter_term(anchor), filter_term(a))),
            ranking: Some(RankNode::Or(vec![
                leaf(anchor),
                RankNode::And(vec![leaf(a), leaf(b)]),
            ])),
        }),
        ("list", |_, [anchor, a, b, c]| Query {
            filter: None,
            ranking: Some(RankNode::List(vec![
                leaf(anchor),
                RankNode::Or(vec![leaf(a), leaf(b)]),
                leaf(c),
            ])),
        }),
        ("and-not", |_, [anchor, a, b, c]| Query {
            filter: Some(BoolNode::and_not(filter_term(a), filter_term(b))),
            ranking: Some(RankNode::List(vec![leaf(anchor), leaf(a), leaf(c)])),
        }),
        ("prox", |prox, [anchor, a, b, _]| Query {
            filter: Some(prox(a, b)),
            ranking: Some(RankNode::List(vec![leaf(anchor), leaf(a)])),
        }),
        ("selective", |_, [anchor, a, b, c]| Query {
            filter: Some(filter_term(anchor)),
            ranking: Some(RankNode::List(vec![leaf(a), leaf(b), leaf(c)])),
        }),
        ("filter-only", |prox, [_, a, b, _]| Query {
            filter: Some(prox(a, b)),
            ranking: None,
        }),
    ];
    shapes
        .into_iter()
        .map(|(shape, build)| Workload {
            name: "filtered",
            shape: Some(shape),
            queries: words.iter().map(|w| build(&prox, w)).collect(),
        })
        .collect()
}

/// Hand-rolled JSON artifact (schema documented in
/// `docs/performance.md`).
#[allow(clippy::too_many_arguments)]
fn render_json(
    smoke: bool,
    n_docs: usize,
    n_queries: usize,
    parallelism: usize,
    footprint: &starts_index::PostingsFootprint,
    footprint_none: &starts_index::PostingsFootprint,
    decode_mints: f64,
    stats: &[PruneStats],
) -> String {
    let configs: Vec<String> = stats
        .iter()
        .map(|s| {
            // Rows of the `filtered` workload name their shape and
            // report the filter's own work; the older rows keep the
            // fields they always had.
            let shape = s
                .shape
                .map_or_else(String::new, |shape| format!(" \"shape\": \"{shape}\","));
            let mut filter_work = String::new();
            if s.shape.is_some() {
                filter_work = format!(
                    ", \"filter_advances\": {}, \"positional_checks\": {}",
                    s.report.filter_advances, s.report.positional_checks
                );
                if let Some(both) = s.cooccurring {
                    filter_work.push_str(&format!(", \"cooccurring_docs\": {both}"));
                }
            }
            format!(
                "    {{\"workload\": \"{}\",{shape} \"shards\": {}, \"qps\": {:.1}, \
                 \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"pruned_fraction\": {:.4}, \"skipped_docs\": {}, \"candidates\": {}, \
                 \"blocks_skipped\": {}{filter_work}}}",
                s.workload,
                s.shards,
                s.qs.qps,
                s.qs.p50_us,
                s.qs.p95_us,
                s.qs.p99_us,
                s.pruned_fraction,
                s.report.skipped_docs,
                s.report.candidates,
                s.report.blocks_skipped
            )
        })
        .collect();
    let note = provenance_note(
        parallelism,
        "explicit shard requests resolve adaptively at build time (capped by \
         machine parallelism and corpus size), so a shards=4 row on a narrow \
         machine builds fewer physical shards, searched one after another on \
         the calling thread; postings_bytes_no_positions is the positions-free field \
         class (blocks only)",
    );
    format!(
        "{{\n  \"bench\": \"x16_prune\",\n  \
         \"note\": \"{note}\",\n  \
         \"smoke\": {smoke},\n  \"k\": {K},\n  \"queries\": {n_queries},\n  \
         \"docs\": {n_docs},\n  \"machine_parallelism\": {parallelism},\n  \
         \"decode_mints_per_s\": {decode_mints:.1},\n  \
         \"postings_bytes\": {{\"positional\": {}, \"blocks\": {}}},\n  \
         \"postings_bytes_no_positions\": {{\"positional\": {}, \"blocks\": {}}},\n  \
         \"configs\": [\n{}\n  ]\n}}\n",
        footprint.positional_bytes,
        footprint.block_bytes,
        footprint_none.positional_bytes,
        footprint_none.block_bytes,
        configs.join(",\n")
    )
}
