//! Multi-language support end to end (§4.1.1's l-strings and the
//! bilingual Source-1 of Examples 10–11).

use starts::corpus::{generate_corpus, CorpusConfig};
use starts::index::Document;
use starts::proto::query::ast::{QTerm, RankExpr};
use starts::proto::query::parse_filter;
use starts::proto::{Field, LString, Query};
use starts::source::{Source, SourceConfig};
use starts::text::LangTag;

/// The paper's bilingual source: American English and Spanish documents.
fn bilingual_source() -> Source {
    let docs = vec![
        Document::new()
            .field_lang("title", "algorithm analysis", LangTag::en_us())
            .field_lang(
                "body-of-text",
                "analysis of algorithm behavior in databases",
                LangTag::en_us(),
            )
            .field("linkage", "http://x/en-1"),
        Document::new()
            .field_lang("title", "algoritmo de datos", LangTag::es())
            .field_lang(
                "body-of-text",
                "un algoritmo para datos distribuidos",
                LangTag::es(),
            )
            .field("linkage", "http://x/es-1"),
    ];
    let mut cfg = SourceConfig::new("Source-1");
    cfg.languages = vec![LangTag::en_us(), LangTag::es()];
    Source::build(cfg, &docs)
}

#[test]
fn metadata_exports_both_languages() {
    let s = bilingual_source();
    let m = s.metadata();
    assert_eq!(m.source_languages, vec![LangTag::en_us(), LangTag::es()]);
    // One tokenizer id per language, as in Example 10's TokenizerIDList.
    assert_eq!(m.tokenizer_id_list.len(), 2);
    // The per-field languages surface in the content summary's sections
    // (Example 11's `Language{5}: en-US` / `Language{2}: es` headers).
    let summary = s.content_summary();
    let title_langs: Vec<&LangTag> = summary
        .sections
        .iter()
        .filter(|sec| sec.field.as_deref() == Some("title"))
        .filter_map(|sec| sec.language.as_ref())
        .collect();
    assert!(!title_langs.is_empty());
}

#[test]
fn content_summary_sections_by_language() {
    // Example 11's shape: per-field sections with Spanish and English
    // words, each carrying statistics.
    let s = bilingual_source();
    let summary = s.content_summary();
    assert_eq!(summary.num_docs, 2);
    assert_eq!(summary.df(Some("title"), "algorithm"), 1);
    assert_eq!(summary.df(Some("title"), "algoritmo"), 1);
    assert_eq!(summary.df(Some("body-of-text"), "datos"), 1);
}

#[test]
fn spanish_lstring_queries_match_spanish_documents() {
    let s = bilingual_source();
    let term = QTerm {
        field: Some(Field::BodyOfText),
        modifiers: vec![],
        value: LString::tagged(LangTag::es(), "datos"),
    };
    let q = Query {
        ranking: Some(RankExpr::term(term)),
        ..Query::default()
    };
    let results = s.execute(&q);
    assert_eq!(results.documents.len(), 1);
    assert_eq!(results.documents[0].linkage(), Some("http://x/es-1"));
}

#[test]
fn monolingual_source_drops_foreign_terms() {
    // An en-US-only source receiving `[es "datos"]` drops the term and
    // reports it via the actual query.
    let docs = vec![Document::new()
        .field("body-of-text", "plain english text about datos even")
        .field("linkage", "http://x/en")];
    let mut cfg = SourceConfig::new("Mono");
    cfg.languages = vec![LangTag::en_us()];
    let s = Source::build(cfg, &docs);
    let q = Query {
        filter: Some(
            parse_filter(r#"((body-of-text [es "datos"]) or (body-of-text "english"))"#).unwrap(),
        ),
        ..Query::default()
    };
    let results = s.execute(&q);
    let actual = results.actual_filter.as_ref().unwrap();
    assert_eq!(actual.terms().len(), 1, "the Spanish term must be dropped");
    assert_eq!(actual.terms()[0].value.text, "english");
}

#[test]
fn bilingual_generated_corpus_round_trips() {
    // The corpus generator's bilingual sources produce tagged documents
    // that survive indexing, summarization and SOIF.
    let corpus = generate_corpus(&CorpusConfig {
        n_sources: 2,
        docs_per_source: 10,
        bilingual_fraction: 0.6,
        seed: 777,
        ..CorpusConfig::default()
    });
    let bilingual = corpus.sources.iter().find(|s| s.bilingual).unwrap();
    let mut cfg = SourceConfig::new(&bilingual.id);
    cfg.languages = vec![LangTag::en_us(), LangTag::es()];
    let source = Source::build(cfg, &bilingual.docs);
    let summary = source.content_summary();
    let bytes = summary.to_soif_bytes();
    let back = starts::proto::summary::ContentSummary::from_soif_bytes(
        &bytes,
        starts::soif::ParseMode::Strict,
    )
    .unwrap();
    assert_eq!(back, summary);
    // Spanish vocabulary is present in the summary.
    assert!(summary
        .sections
        .iter()
        .any(|sec| sec.terms.iter().any(|t| t.term.starts_with("es"))));
}
