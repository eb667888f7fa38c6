//! Automatic content-summary generation (§4.3.2).
//!
//! "This data is automatically generated, is orders of magnitude smaller
//! than the original contents, and has proven useful in distinguishing
//! the more useful from the less useful sources for a given query." The
//! summary is generated straight from the inverted index: for each field
//! (or for the whole source when field qualification is off), the word
//! list with total postings and document frequency.
//!
//! The flags reflect the engine truthfully: if the engine stems its
//! index, the exported words *are* stems and `Stemming: T`; if the
//! engine eliminates stop words at index time, they are absent and
//! `StopWords: F` — the paper prefers unstemmed/case-preserved words "if
//! possible", and whether that is possible depends on the engine.

use std::collections::BTreeMap;

use starts_index::ANY_FIELD;
use starts_proto::summary::{ContentSummary, SummarySection, TermSummary};
use starts_text::CaseMode;

use crate::source::Source;

/// Generate the content summary for a source.
pub fn generate(source: &Source) -> ContentSummary {
    let engine = source.engine();
    let cfg = engine.analyzer().config();
    let mut sections = Vec::new();
    if source.config().summary_fields_qualified {
        // One section per concrete field, in schema order.
        for fid in engine.schema().concrete_fields() {
            let terms = collect_terms(engine, fid, source.config().summary_max_terms);
            if terms.is_empty() {
                continue;
            }
            let langs = engine.field_languages(fid);
            sections.push(SummarySection {
                field: Some(engine.schema().name(fid).to_string()),
                language: langs.first().cloned(),
                terms,
            });
        }
    } else {
        let terms = collect_terms(engine, ANY_FIELD, source.config().summary_max_terms);
        if !terms.is_empty() {
            sections.push(SummarySection {
                field: None,
                language: None,
                terms,
            });
        }
    }
    ContentSummary {
        stemmed: cfg.stem,
        // Words in the index never include the engine's stop words.
        stop_words_included: cfg.stop_words.is_empty(),
        case_sensitive: cfg.case == CaseMode::Sensitive,
        num_docs: engine.n_docs(),
        sections,
    }
}

fn collect_terms(
    engine: &starts_index::ShardedEngine,
    field: starts_index::FieldId,
    max_terms: usize,
) -> Vec<TermSummary> {
    // BTreeMap gives deterministic (sorted) export order. Shards hold
    // disjoint document subsets, so per-shard postings totals and
    // document frequencies add up to the collection-wide figures.
    // `Any` keeps no lists: its figures are the index's per-term
    // columns.
    let mut stats: BTreeMap<&str, (u64, u32)> = BTreeMap::new();
    for shard in engine.shards() {
        let index = shard.index();
        let mut add = |term, total, df| {
            let entry = stats.entry(term).or_insert((0, 0));
            entry.0 += total;
            entry.1 += df;
        };
        if field == ANY_FIELD {
            for (term, df, total) in index.any_vocabulary() {
                add(term, total, df);
            }
        } else {
            for (term, postings) in index.field_vocabulary(field) {
                add(term, postings.total_tf(), postings.len() as u32);
            }
        }
    }
    let mut terms: Vec<TermSummary> = stats
        .into_iter()
        .map(|(term, (total, df))| TermSummary {
            term: term.to_string(),
            total_postings: Some(total),
            doc_freq: Some(df),
        })
        .collect();
    if max_terms > 0 && terms.len() > max_terms {
        // Keep the highest-df words — the ones that matter for source
        // selection — then restore alphabetical order.
        terms.sort_by(|a, b| b.doc_freq.cmp(&a.doc_freq).then(a.term.cmp(&b.term)));
        terms.truncate(max_terms);
        terms.sort_by(|a, b| a.term.cmp(&b.term));
    }
    terms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SourceConfig;
    use starts_index::Document;
    use starts_text::AnalyzerConfig;

    fn docs() -> Vec<Document> {
        vec![
            Document::new()
                .field("title", "algorithm analysis")
                .field("body-of-text", "algorithm algorithm data"),
            Document::new()
                .field("title", "data structures")
                .field("body-of-text", "algorithm data data"),
        ]
    }

    #[test]
    fn field_qualified_summary() {
        let s = Source::build(SourceConfig::new("S"), &docs());
        let summary = s.content_summary();
        assert_eq!(summary.num_docs, 2);
        assert!(summary.fields_qualified());
        // df("title", "algorithm") = 1; df("body-of-text", "algorithm") = 2.
        assert_eq!(summary.df(Some("title"), "algorithm"), 1);
        assert_eq!(summary.df(Some("body-of-text"), "algorithm"), 2);
        // Total postings of "algorithm" in body = 3.
        let t = summary.lookup(Some("body-of-text"), "algorithm").unwrap();
        assert_eq!(t.total_postings, Some(3));
    }

    #[test]
    fn unqualified_summary() {
        let mut cfg = SourceConfig::new("S");
        cfg.summary_fields_qualified = false;
        let s = Source::build(cfg, &docs());
        let summary = s.content_summary();
        assert!(!summary.fields_qualified());
        assert_eq!(summary.sections.len(), 1);
        // Whole-document df.
        assert_eq!(summary.df(None, "algorithm"), 2);
        assert_eq!(summary.df(None, "data"), 2);
    }

    #[test]
    fn flags_reflect_engine() {
        let mut cfg = SourceConfig::new("S");
        cfg.engine.analyzer = AnalyzerConfig {
            stem: true,
            stop_words: starts_text::StopWordList::none(),
            ..AnalyzerConfig::default()
        };
        let s = Source::build(cfg, &docs());
        let summary = s.content_summary();
        assert!(summary.stemmed);
        assert!(summary.stop_words_included);
        // Stemmed summary contains stems.
        assert!(summary.lookup(Some("title"), "structur").is_some());
    }

    #[test]
    fn truncation_keeps_high_df_terms() {
        let mut cfg = SourceConfig::new("S");
        cfg.summary_fields_qualified = false;
        cfg.summary_max_terms = 2;
        let s = Source::build(cfg, &docs());
        let summary = s.content_summary();
        assert_eq!(summary.total_terms(), 2);
        // algorithm and data (df 2 each) beat analysis/structures (df 1).
        assert!(summary.lookup(None, "algorithm").is_some());
        assert!(summary.lookup(None, "data").is_some());
    }

    #[test]
    fn summary_round_trips_through_soif() {
        let s = Source::build(SourceConfig::new("S"), &docs());
        let summary = s.content_summary();
        let bytes = summary.to_soif_bytes();
        let back = ContentSummary::from_soif_bytes(&bytes, starts_soif::ParseMode::Strict).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn summary_is_much_smaller_than_contents() {
        // The §4.3.2 claim, on a corpus with heavy repetition.
        let docs: Vec<Document> = (0..50)
            .map(|i| {
                Document::new().field(
                    "body-of-text",
                    format!("common words repeat here always {} {}", i % 7, i % 3),
                )
            })
            .collect();
        let s = Source::build(SourceConfig::new("S"), &docs);
        let corpus_bytes: usize = (0..50)
            .map(|i| format!("common words repeat here always {} {}", i % 7, i % 3).len())
            .sum();
        let summary_bytes = s.content_summary().to_soif_bytes().len();
        assert!(
            summary_bytes < corpus_bytes / 2,
            "summary {summary_bytes} vs corpus {corpus_bytes}"
        );
    }
}
