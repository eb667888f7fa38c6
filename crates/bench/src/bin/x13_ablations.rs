//! X13 — ablations of the reproduction's own design choices (beyond the
//! paper's artifacts; DESIGN.md §6).
//!
//! Three engineering decisions in this implementation correspond to
//! latitude the paper deliberately left to implementers. Each ablation
//! flips one choice and measures the consequence:
//!
//! 1. **Fuzzy vs. flattened ranking operators** — §4.1.1 allows a source
//!    to interpret Boolean-like ranking operators as fuzzy connectives or
//!    to "simply ignore" them (Example 4). Does it matter?
//! 2. **Stemming at index time vs. query-time vocabulary scan** — the
//!    `Stem` modifier can be served by a stemmed index (O(1) lookup) or
//!    by scanning the vocabulary (no index commitment). Cost vs.
//!    flexibility.
//! 3. **Field-qualified vs. flat content summaries** — §4.3.2 prefers
//!    field-qualified word lists "if possible". What does qualification
//!    buy source selection, and what does it cost in bytes?

use std::time::Instant;

use starts_bench::{header, print_table, section, standard_corpus};
use starts_corpus::generate_workload;
use starts_index::{BoolNode, Engine, EngineConfig, TermMatch, TermSpec};
use starts_meta::catalog::{Catalog, CatalogEntry};
use starts_meta::eval::{mean, selection_recall};
use starts_meta::metasearcher::Metasearcher;
use starts_meta::select::{GGlossSum, Selector};
use starts_net::LinkProfile;
use starts_proto::query::parse_ranking;
use starts_proto::{IndexedSummary, SourceMetadata};
use starts_source::{Source, SourceConfig};
use starts_text::AnalyzerConfig;

fn main() {
    header("X13  design-choice ablations (implementation latitude the paper left open)");
    ablation_fuzzy_ops();
    ablation_stemming();
    ablation_summary_fields();
}

/// 1. Fuzzy vs flattened ranking operators (Example 4's two readings).
fn ablation_fuzzy_ops() {
    section("1. fuzzy ranking operators vs flatten-to-list (Example 4)");
    let corpus = standard_corpus();
    let docs = corpus.all_docs();
    let fuzzy = Engine::build(
        &docs,
        EngineConfig {
            fuzzy_ranking_ops: true,
            ..EngineConfig::default()
        },
    );
    let flat = Engine::build(
        &docs,
        EngineConfig {
            fuzzy_ranking_ops: false,
            ..EngineConfig::default()
        },
    );
    // Query shape where the interpretations diverge: and-queries over
    // terms with asymmetric frequencies.
    let queries = [
        r#"((body-of-text "w0001") and (body-of-text "w0050"))"#,
        r#"((body-of-text "w0002") and (body-of-text "t0x001"))"#,
        r#"((body-of-text "w0000") or (body-of-text "w0100"))"#,
    ];
    let mut rows = Vec::new();
    for q in &queries {
        let expr = parse_ranking(q).unwrap();
        let ir = starts_source::translate::translate_ranking(&expr);
        let rf = fuzzy.eval_ranking(&ir);
        let rl = flat.eval_ranking(&ir);
        // How much do the two engines' rankings agree on their top 10?
        let top = |r: &[(starts_index::DocId, f64)]| -> Vec<u32> {
            r.iter().take(10).map(|(d, _)| d.0).collect()
        };
        let tf = top(&rf);
        let tl = top(&rl);
        let overlap = tf.iter().filter(|d| tl.contains(d)).count();
        rows.push(vec![
            q.chars().take(48).collect::<String>(),
            rf.len().to_string(),
            rl.len().to_string(),
            format!("{overlap}/10"),
        ]);
    }
    print_table(
        &[
            "ranking expression",
            "fuzzy hits",
            "flat hits",
            "top-10 overlap",
        ],
        &rows,
    );
    println!(
        "   `and` under fuzzy semantics scores only co-occurring docs above zero;\n\
         flattened-to-list scores any doc with either term — both behaviours are\n\
         protocol-legal, which is exactly why the actual query must be reported."
    );
}

/// 2. Stemming at index time vs query-time vocabulary scan.
fn ablation_stemming() {
    section("2. stem support: stemmed index (direct lookup) vs vocabulary scan");
    let corpus = standard_corpus();
    let docs = corpus.all_docs();
    let stemmed_index = Engine::build(
        &docs,
        EngineConfig {
            analyzer: AnalyzerConfig {
                stem: true,
                ..AnalyzerConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    let plain_index = Engine::build(&docs, EngineConfig::default());
    let query = BoolNode::Term(TermSpec::any("w0001").with(TermMatch::Stem));
    let time = |engine: &Engine| -> (f64, usize) {
        let mut n = 0;
        let start = Instant::now();
        for _ in 0..30 {
            n = engine.eval_filter(&query).len();
        }
        (start.elapsed().as_secs_f64() * 1e6 / 30.0, n)
    };
    let (us_direct, n_direct) = time(&stemmed_index);
    let (us_scan, n_scan) = time(&plain_index);
    print_table(
        &["strategy", "matches", "eval µs"],
        &[
            vec![
                "stemmed index (lookup)".to_string(),
                n_direct.to_string(),
                format!("{us_direct:.1}"),
            ],
            vec![
                "plain index (vocab scan)".to_string(),
                n_scan.to_string(),
                format!("{us_scan:.1}"),
            ],
        ],
    );
    println!(
        "   the stemmed index answers stem queries ~{:.0}x faster, but commits the\n\
         whole index (and its content summary!) to stems — the flexibility/cost\n\
         trade every vendor at the workshop weighed.",
        (us_scan / us_direct.max(1e-9)).max(1.0)
    );
}

/// 3. Field-qualified vs flat summaries for source selection.
fn ablation_summary_fields() {
    section("3. content summaries: field-qualified vs flat (§4.3.2 \"if possible\")");
    let corpus = standard_corpus();
    let workload = generate_workload(
        &corpus,
        &starts_corpus::WorkloadConfig {
            n_queries: 30,
            ..starts_corpus::WorkloadConfig::default()
        },
    );
    let mut rows = Vec::new();
    for qualified in [true, false] {
        let mut catalog = Catalog::default();
        let mut bytes = 0u64;
        for s in &corpus.sources {
            let mut cfg = SourceConfig::new(&s.id);
            cfg.summary_fields_qualified = qualified;
            let src = Source::build(cfg, &s.docs);
            let summary = src.content_summary();
            bytes += summary.to_soif_bytes().len() as u64;
            catalog.entries.push(CatalogEntry {
                id: s.id.clone(),
                metadata_url: String::new(),
                metadata: SourceMetadata {
                    source_id: s.id.clone(),
                    ..SourceMetadata::default()
                }
                .into(),
                summary: IndexedSummary::new(summary).into(),
                sample_results: Vec::new(),
                link: LinkProfile::default(),
            });
        }
        let mut cov = Vec::new();
        for gq in &workload.queries {
            let owned = Metasearcher::selection_terms(&gq.query);
            let terms: Vec<(Option<&str>, &str)> = owned
                .iter()
                .map(|(f, t)| (f.as_deref(), t.as_str()))
                .collect();
            let chosen: Vec<usize> = GGlossSum
                .rank(&catalog, &terms)
                .into_iter()
                .take(2)
                .map(|(i, _)| i)
                .collect();
            cov.push(selection_recall(&chosen, &gq.relevant_by_source));
        }
        rows.push(vec![
            if qualified { "field-qualified" } else { "flat" }.to_string(),
            format!("{:.1}", bytes as f64 / 1024.0),
            format!("{:.3}", mean(&cov)),
        ]);
    }
    print_table(
        &["summary style", "total KB", "merit coverage (n=2)"],
        &rows,
    );
    println!(
        "   field qualification costs bytes (words repeat per field) and here buys\n\
         little coverage — the workload queries one field. It pays off for fielded\n\
         workloads (title-only queries against title-section statistics); the paper's\n\
         \"if possible\" hedge is the right default."
    );
}
