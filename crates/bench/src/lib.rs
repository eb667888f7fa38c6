//! Shared scaffolding for the STARTS experiment binaries (X1–X19): the
//! standard corpus and workloads, the one measuring loop and latency
//! summary the timed binaries (X14–X17) share.
//!
//! Every experiment binary regenerates one artifact of the paper (a
//! figure, a table, or a claim); DESIGN.md §4 maps them and
//! EXPERIMENTS.md records paper-vs-measured. Binaries print plain-text
//! tables to stdout so their output can be diffed between runs.
//! End-to-end and per-layer clocks live in `benchmark/`, not here.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starts_corpus::{
    generate_corpus, generate_workload, CorpusConfig, GeneratedCorpus, Workload, WorkloadConfig,
    Zipf,
};
use starts_index::{RankNode, TermSpec};
use starts_meta::catalog::Catalog;
use starts_net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts_proto::query::ast::{QTerm, RankExpr};
use starts_proto::{AnswerSpec, Field, Query};
use starts_source::{Source, SourceConfig};

/// The standard experiment corpus: 12 sources, 4 topics, moderate skew.
pub fn standard_corpus() -> GeneratedCorpus {
    generate_corpus(&CorpusConfig {
        n_sources: 12,
        docs_per_source: 80,
        n_topics: 4,
        background_vocab: 1500,
        topic_vocab: 100,
        doc_len: (25, 90),
        topic_skew: 0.35,
        bilingual_fraction: 0.0,
        seed: 19970526, // SIGMOD'97 started May 26, 1997 (Tucson, AZ)
    })
}

/// The standard workload over [`standard_corpus`].
pub fn standard_workload(corpus: &GeneratedCorpus) -> Workload {
    generate_workload(
        corpus,
        &WorkloadConfig {
            n_queries: 40,
            terms_per_query: (1, 3),
            max_documents: 30,
            seed: 1996,
        },
    )
}

/// Draw `n` queries of 1–3 words with Zipf-distributed ranks: mostly
/// background vocabulary (common words, big posting lists), sometimes a
/// topic word (rare, discriminative). The one workload shape of the
/// timed binaries: X14–X18 all draw from it (X16 beside its own tree,
/// long-postings and filtered mixes), through [`rank_node`] at the
/// engine level or [`starts_query`] at the protocol level.
pub fn zipf_workload(corpus: &GeneratedCorpus, n: usize, seed: u64) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bg = Zipf::new(corpus.background.len(), 1.0);
    let topic = Zipf::new(corpus.topics[0].len(), 0.8);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(1..=3);
            (0..k)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        let t = rng.gen_range(0..corpus.topics.len());
                        corpus.topics[t][topic.sample(&mut rng)].clone()
                    } else {
                        corpus.background[bg.sample(&mut rng)].clone()
                    }
                })
                .collect()
        })
        .collect()
}

/// The engine-level ranking expression for a term list: a flat `list`
/// over `body-of-text`.
pub fn rank_node(terms: &[String]) -> RankNode {
    RankNode::List(
        terms
            .iter()
            .map(|t| RankNode::term(TermSpec::fielded("body-of-text", t)))
            .collect(),
    )
}

/// The STARTS query for a term list (the protocol-level twin of
/// [`rank_node`]), bounded to `k` documents.
pub fn starts_query(terms: &[String], k: usize) -> Query {
    Query {
        ranking: Some(RankExpr::list_of(
            terms
                .iter()
                .map(|t| QTerm::fielded(Field::BodyOfText, t.clone())),
        )),
        answer: AnswerSpec {
            fields: vec![Field::Title],
            max_documents: k,
            ..AnswerSpec::default()
        },
        ..Query::default()
    }
}

/// Throughput and per-query latency of one measured run. Percentiles
/// are nearest-rank over the sorted samples (index `round((n-1)·p)`).
#[derive(Debug, PartialEq)]
pub struct LatencyStats {
    pub qps: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

impl LatencyStats {
    /// Summarise per-query latencies (µs, any order, at least one)
    /// taken over `elapsed_s` seconds of wall time.
    pub fn from_latencies(mut lat_us: Vec<f64>, elapsed_s: f64) -> Self {
        let n = lat_us.len();
        lat_us.sort_by(f64::total_cmp);
        let pct = |p: f64| -> f64 {
            let idx = ((n - 1) as f64 * p).round() as usize;
            lat_us[idx]
        };
        LatencyStats {
            qps: n as f64 / elapsed_s.max(1e-12),
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
        }
    }

    /// A `[name, QPS, p50, p95, p99]` row for [`print_table`].
    pub fn row(&self, name: &str) -> Vec<String> {
        vec![
            name.to_string(),
            format!("{:.0}", self.qps),
            format!("{:.1}", self.p50_us),
            format!("{:.1}", self.p95_us),
            format!("{:.1}", self.p99_us),
        ]
    }

    /// The `{"qps": …, "p50_us": …, "p95_us": …, "p99_us": …}` object
    /// of the bench artifacts.
    pub fn json(&self) -> String {
        format!(
            "{{\"qps\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}",
            self.qps, self.p50_us, self.p95_us, self.p99_us
        )
    }
}

/// Timed passes [`measure`] makes over a workload; it reports the one
/// with the median QPS.
const TIMED_PASSES: usize = 3;

/// Time one closure over the whole workload and summarise per-query
/// latency. The first five items run once untimed beforehand (warmup:
/// touch caches, fault in lazily-built state). The timed pass runs
/// three times and the pass with the median QPS is reported,
/// its latency percentiles with it: one short window on a shared
/// two-core machine can read half or twice its neighbour's QPS.
pub fn measure<T>(items: &[T], mut run: impl FnMut(&T) -> usize) -> LatencyStats {
    for item in items.iter().take(5) {
        run(item);
    }
    let mut passes: Vec<LatencyStats> = (0..TIMED_PASSES)
        .map(|_| {
            let mut lat_us: Vec<f64> = Vec::with_capacity(items.len());
            let total = Instant::now();
            for item in items {
                let start = Instant::now();
                std::hint::black_box(run(item));
                lat_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            LatencyStats::from_latencies(lat_us, total.elapsed().as_secs_f64())
        })
        .collect();
    passes.sort_by(|a, b| a.qps.total_cmp(&b.qps));
    passes.swap_remove(TIMED_PASSES / 2)
}

/// Read a flag's value from the command line, accepting both
/// `--flag value` and `--flag=value` spellings.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    find_flag_value(&args, flag)
}

fn find_flag_value(args: &[String], flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

/// The flags every experiment binary honours, parsed once.
///
/// X14–X16 grew near-identical copies of `--smoke` / `--out`; this
/// struct is the one place that knows the spelling of all of them.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--smoke`: seconds-scale run for CI (smaller corpus/workload).
    pub smoke: bool,
    /// `--out PATH`: where to write the bench's JSON artifact.
    pub out: Option<String>,
    /// `--live`: render a top-style terminal dashboard while the bench
    /// runs (X18).
    pub live: bool,
    /// `--alerts-jsonl PATH`: where the monitor appends structured
    /// alert transition events (X18).
    pub alerts_jsonl: Option<String>,
}

impl BenchArgs {
    /// Parse the process's command line.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_args(&args)
    }

    /// Parse an explicit argument list (testable form of [`parse`]).
    ///
    /// [`parse`]: BenchArgs::parse
    pub fn from_args(args: &[String]) -> Self {
        BenchArgs {
            smoke: args.iter().any(|a| a == "--smoke"),
            out: find_flag_value(args, "--out"),
            live: args.iter().any(|a| a == "--live"),
            alerts_jsonl: find_flag_value(args, "--alerts-jsonl"),
        }
    }

    /// The output path, or `default` when `--out` was not given.
    pub fn out_or(&self, default: &str) -> String {
        self.out.clone().unwrap_or_else(|| default.to_string())
    }
}

/// One full streaming pass over every postings list in the engine —
/// every shard, each concrete field (`Any` keeps no lists) — through
/// the block decoder. Returns (ints decoded, checksum): each posting
/// decodes to two u32s (doc-id and tf), and the checksum keeps the
/// decode loop from being optimized away.
pub fn decode_pass(engine: &starts_index::ShardedEngine) -> (u64, u64) {
    let mut ints = 0u64;
    let mut sum = 0u64;
    for shard in engine.shards() {
        let index = shard.index();
        for field in index.schema().concrete_fields() {
            for (_, postings) in index.field_vocabulary(field) {
                for (doc, tf) in postings.docs_tfs() {
                    sum = sum
                        .wrapping_add(u64::from(doc.0))
                        .wrapping_add(u64::from(tf));
                }
                ints += 2 * postings.len() as u64;
            }
        }
    }
    (ints, sum)
}

/// Raw block-decode throughput in millions of u32s per second:
/// repeatedly stream the whole index through the decoder (see
/// [`decode_pass`]) until at least `min_secs` of wall time has
/// accumulated; one untimed pass warms the cache.
pub fn decode_mints_per_s(engine: &starts_index::ShardedEngine, min_secs: f64) -> f64 {
    std::hint::black_box(decode_pass(engine));
    let mut ints = 0u64;
    let mut sum = 0u64;
    let start = Instant::now();
    loop {
        let (i, s) = decode_pass(engine);
        ints += i;
        sum = sum.wrapping_add(s);
        if start.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    std::hint::black_box(sum);
    ints as f64 / start.elapsed().as_secs_f64().max(1e-12) / 1e6
}

/// Hardware threads available to this process (1 when unknown). Bench
/// JSON artifacts record it as provenance, so a reader of the docs can
/// tell what kind of machine a number came from.
pub fn machine_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The uniform provenance note for bench JSON artifacts:
/// `"measured on a N-core container; <detail>"`.
pub fn provenance_note(parallelism: usize, detail: &str) -> String {
    format!("measured on a {parallelism}-core container; {detail}")
}

pub fn wire_and_discover(net: &SimNet, corpus: &GeneratedCorpus) -> Catalog {
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
            .expect("discovery");
    }
    catalog
}

/// Print a ruled header line.
pub fn header(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Print a sub-header.
pub fn section(title: &str) {
    println!();
    println!("-- {title}");
}

/// Render a simple aligned table.
pub fn print_table(columns: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(4)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = columns.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Yes/no marker for capability matrices.
pub fn mark(b: bool) -> String {
    if b {
        "yes".to_string()
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_corpus_is_deterministic() {
        let a = standard_corpus();
        let b = standard_corpus();
        assert_eq!(a.total_docs(), b.total_docs());
        assert_eq!(a.sources.len(), 12);
    }

    #[test]
    fn arg_value_reads_both_spellings() {
        let find = |args: &[&str], flag: &str| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            find_flag_value(&args, flag)
        };
        let args = ["x18", "--alerts-jsonl", "out.jsonl"];
        assert_eq!(find(&args, "--alerts-jsonl").as_deref(), Some("out.jsonl"));
        let args = ["x18", "--alerts-jsonl=out2.jsonl"];
        assert_eq!(find(&args, "--alerts-jsonl").as_deref(), Some("out2.jsonl"));
        // A trailing flag has no value; a longer flag is not a prefix match.
        assert_eq!(find(&["x18", "--alerts-jsonl"], "--alerts-jsonl"), None);
        assert_eq!(find(&["x18", "--alerts-jsonl-x=a"], "--alerts-jsonl"), None);
        assert_eq!(find(&["x18"], "--alerts-jsonl"), None);
        // The process's own argv carries no such flag.
        assert_eq!(arg_value("--definitely-not-passed"), None);
    }

    #[test]
    fn bench_args_parse_every_flag() {
        let argv: Vec<String> = [
            "x14",
            "--smoke",
            "--out",
            "fresh.json",
            "--live",
            "--alerts-jsonl=a.jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = BenchArgs::from_args(&argv);
        assert!(args.smoke && args.live);
        assert_eq!(args.out.as_deref(), Some("fresh.json"));
        assert_eq!(args.alerts_jsonl.as_deref(), Some("a.jsonl"));
        assert_eq!(args.out_or("default.json"), "fresh.json");

        // A flag no binary honours (any more) is ignored, not an error.
        let none = BenchArgs::from_args(&["x01".to_string(), "--retired-flag".to_string()]);
        assert!(!none.smoke && !none.live);
        assert_eq!((&none.out, &none.alerts_jsonl), (&None, &None));
        assert_eq!(none.out_or("default.json"), "default.json");
    }

    #[test]
    fn zipf_workload_is_deterministic_and_bounded() {
        let corpus = generate_corpus(&CorpusConfig {
            n_sources: 2,
            docs_per_source: 5,
            ..CorpusConfig::default()
        });
        let a = zipf_workload(&corpus, 25, 7);
        let b = zipf_workload(&corpus, 25, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|q| (1..=3).contains(&q.len())));
    }

    #[test]
    fn from_latencies_takes_nearest_rank_percentiles() {
        // 20 samples, 1..=20 µs, shuffled: sorted index round(19·p) is
        // 10 / 18 / 19 for p50 / p95 / p99.
        let lat: Vec<f64> = [
            7, 20, 3, 14, 1, 9, 18, 5, 12, 16, 2, 11, 19, 6, 15, 4, 13, 8, 17, 10,
        ]
        .iter()
        .map(|&v| f64::from(v))
        .collect();
        let stats = LatencyStats::from_latencies(lat, 4.0);
        assert_eq!(
            stats,
            LatencyStats {
                qps: 5.0, // 20 samples / 4 s
                p50_us: 11.0,
                p95_us: 19.0,
                p99_us: 20.0,
            }
        );
        assert_eq!(stats.row("path"), ["path", "5", "11.0", "19.0", "20.0"]);
        assert_eq!(
            stats.json(),
            r#"{"qps": 5.0, "p50_us": 11.0, "p95_us": 19.0, "p99_us": 20.0}"#
        );

        // One sample is every percentile.
        let one = LatencyStats::from_latencies(vec![42.5], 0.5);
        assert_eq!(
            (one.qps, one.p50_us, one.p95_us, one.p99_us),
            (2.0, 42.5, 42.5, 42.5)
        );
    }

    #[test]
    fn the_median_pass_is_reported() {
        // Three items: a warmup round, then three timed passes whose
        // items take 2 ms, 20 ms and nothing — the median-QPS pass is
        // the first.
        let items = [0usize, 1, 2];
        let mut calls = 0usize;
        let stats = measure(&items, |&i| {
            let ms = [0, 2, 20, 0][calls / items.len()];
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(ms));
            i
        });
        assert!(
            stats.p50_us >= 2_000.0 && stats.p50_us < 20_000.0,
            "{stats:?}"
        );
    }

    #[test]
    fn warmup_runs_the_first_five_then_every_item_is_timed() {
        for n in [3usize, 8] {
            let warm = n.min(5);
            let items: Vec<usize> = (0..n).collect();
            let mut seen = Vec::new();
            let stats = measure(&items, |&i| {
                // Warmup calls are slow, timed calls are not: a summary
                // that included the warmup would show it.
                if seen.len() < warm {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                seen.push(i);
                i
            });
            let expected: Vec<usize> = (0..warm)
                .chain((0..TIMED_PASSES).flat_map(|_| 0..n))
                .collect();
            assert_eq!(
                seen, expected,
                "run is called min(5, n) + 3n times, in order"
            );
            let warmup_s = 0.020 * warm as f64;
            assert!(
                stats.qps > n as f64 / warmup_s,
                "timed window includes the warmup: {stats:?}"
            );
        }
    }

    #[test]
    fn provenance_note_names_the_machine() {
        assert_eq!(
            provenance_note(4, "numbers below"),
            "measured on a 4-core container; numbers below"
        );
        assert!(machine_parallelism() >= 1);
    }

    #[test]
    fn wiring_discovers_all_sources() {
        let corpus = generate_corpus(&CorpusConfig {
            n_sources: 3,
            docs_per_source: 5,
            ..CorpusConfig::default()
        });
        let net = SimNet::new();
        let catalog = wire_and_discover(&net, &corpus);
        assert_eq!(catalog.len(), 3);
    }
}
