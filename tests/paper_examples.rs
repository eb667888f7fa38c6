//! Golden reproduction of the paper's twelve worked examples
//! (experiment X5 runs the printable version; these tests pin the
//! bytes).
//!
//! Where the paper's hand-computed SOIF byte counts are arithmetically
//! consistent, we match them byte for byte (modulo the LaTeX `` ''
//! quoting of the camera-ready copy, which renders ASCII `"`). The few
//! inconsistent counts in the paper are documented in EXPERIMENTS.md.

use starts::proto::query::{
    parse_filter, parse_ranking, print_filter, print_ranking, AnswerSpec, SortKey,
};
use starts::proto::{
    Field, Modifier, QTerm, Query, QueryResults, Resource, ResultDocument, TermStatsEntry,
};
use starts::soif::{write_object, ParseMode};
use starts::text::LangTag;

/// Example 1: the filter + ranking query that opens §4.1.1.
#[test]
fn example_1_filter_and_ranking() {
    let f = parse_filter(r#"((author "Ullman") and (title "databases"))"#).unwrap();
    assert_eq!(f.terms().len(), 2);
    assert_eq!(
        print_filter(&f),
        r#"((author "Ullman") and (title "databases"))"#
    );
    let r =
        parse_ranking(r#"list((body-of-text "distributed") (body-of-text "databases"))"#).unwrap();
    assert_eq!(r.terms().len(), 2);
}

/// Example 2: `(title stem "databases")` matches stem-equal words.
#[test]
fn example_2_stem_semantics() {
    use starts::index::{BoolNode, Document, Engine, EngineConfig, TermMatch, TermSpec};
    let engine = Engine::build(
        &[
            Document::new().field("title", "database systems"),
            Document::new().field("title", "cooking at home"),
        ],
        EngineConfig::default(),
    );
    let q = BoolNode::Term(TermSpec::fielded("title", "databases").with(TermMatch::Stem));
    let hits = engine.eval_filter(&q);
    assert_eq!(
        hits.len(),
        1,
        "\"database\" shares the stem of \"databases\""
    );
}

/// Example 3: `(t1 prox[3,T] t2)` — at most 3 words between, ordered.
#[test]
fn example_3_prox() {
    use starts::index::{BoolNode, Document, Engine, EngineConfig, TermSpec};
    let engine = Engine::build(
        &[
            // t1 then 3 words then t2: matches.
            Document::new().field("body-of-text", "alpha one two three beta"),
            // t1 then 4 words then t2: does not match.
            Document::new().field("body-of-text", "alpha one two three four beta"),
            // reversed order: does not match when ordered.
            Document::new().field("body-of-text", "beta alpha"),
        ],
        EngineConfig::default(),
    );
    let q = BoolNode::Prox {
        left: TermSpec::any("alpha"),
        right: TermSpec::any("beta"),
        distance: 3,
        ordered: true,
    };
    let hits = engine.eval_filter(&q);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, 0);
}

/// Example 4: and = min (0.3), list = weighted mean (0.55) for term
/// weights 0.3 and 0.8.
#[test]
fn example_4_fuzzy_interpretation() {
    // Verified at the AST level here and numerically in the engine's
    // unit tests; this test pins the paper's arithmetic.
    let w_distributed: f64 = 0.3;
    let w_databases: f64 = 0.8;
    let and_score = w_distributed.min(w_databases);
    let list_score = 0.5 * w_distributed + 0.5 * w_databases;
    assert_eq!(and_score, 0.3);
    assert_eq!(list_score, 0.55);
    // And both expressions parse to the right shapes.
    assert!(matches!(
        parse_ranking(r#"("distributed" and "databases")"#).unwrap(),
        starts::proto::RankExpr::And(_, _)
    ));
    assert!(matches!(
        parse_ranking(r#"list("distributed" "databases")"#).unwrap(),
        starts::proto::RankExpr::List(_)
    ));
}

/// Example 5: term weights in ranking expressions.
#[test]
fn example_5_weights() {
    let r = parse_ranking(r#"list(("distributed" 0.7) ("databases" 0.3))"#).unwrap();
    let weights: Vec<f64> = r.terms().iter().map(|t| t.effective_weight()).collect();
    assert_eq!(weights, vec![0.7, 0.3]);
    assert_eq!(
        print_ranking(&r),
        r#"list(("distributed" 0.7) ("databases" 0.3))"#
    );
}

fn example_6_query() -> Query {
    Query {
        filter: Some(parse_filter(r#"((author "Ullman") and (title stem "databases"))"#).unwrap()),
        ranking: Some(
            parse_ranking(r#"list((body-of-text "distributed") (body-of-text "databases"))"#)
                .unwrap(),
        ),
        drop_stop_words: true,
        answer: AnswerSpec {
            fields: vec![Field::Title, Field::Author],
            sort_by: vec![SortKey::score_descending()],
            min_doc_score: 0.5,
            max_documents: 10,
        },
        ..Query::default()
    }
}

/// Example 6: the @SQuery object, byte for byte.
#[test]
fn example_6_soif_bytes() {
    let bytes = write_object(&example_6_query().to_soif());
    let expected = "@SQuery{\n\
        Version{10}: STARTS 1.0\n\
        FilterExpression{48}: ((author \"Ullman\") and (title stem \"databases\"))\n\
        RankingExpression{61}: list((body-of-text \"distributed\") (body-of-text \"databases\"))\n\
        DropStopWords{1}: T\n\
        DefaultAttributeSet{7}: basic-1\n\
        DefaultLanguage{5}: en-US\n\
        AnswerFields{12}: title author\n\
        MinDocumentScore{3}: 0.5\n\
        MaxNumberDocuments{2}: 10\n\
        }\n";
    assert_eq!(String::from_utf8(bytes).unwrap(), expected);
}

/// Example 7: a filter-only source ignores the ranking expression and
/// reports the actual query.
#[test]
fn example_7_actual_query() {
    use starts::index::Document;
    use starts::source::{vendors, Source};
    // A filter-only engine that does support the stem modifier (the
    // paper's Example 7 source executes its full filter expression).
    let mut config = vendors::glimpse("Glimpse");
    config.supported_modifiers.push(Modifier::Stem);
    let source = Source::build(
        config,
        &[Document::new()
            .field("author", "Jeffrey Ullman")
            .field("title", "database design")
            .field("linkage", "http://x/1")],
    );
    let results = source.execute(&example_6_query());
    assert_eq!(
        print_filter(results.actual_filter.as_ref().unwrap()),
        r#"((author "Ullman") and (title stem "databases"))"#
    );
    assert!(
        results.actual_ranking.is_none(),
        "ranking silently dropped, reported via the actual query"
    );
}

fn example_8_results() -> QueryResults {
    QueryResults {
        sources: vec!["Source-1".to_string()],
        actual_filter: Some(
            parse_filter(r#"((author "Ullman") and (title stem "databases"))"#).unwrap(),
        ),
        actual_ranking: Some(parse_ranking(r#"(body-of-text "databases")"#).unwrap()),
        documents: vec![ResultDocument {
            raw_score: Some(0.82),
            sources: vec!["Source-1".to_string()],
            fields: vec![
                (
                    Field::Linkage,
                    "http://www-db.stanford.edu/~ullman/pub/dood.ps".to_string(),
                ),
                (
                    Field::Title,
                    "A Comparison Between Deductive and Object-Oriented Database Systems"
                        .to_string(),
                ),
                (Field::Author, "Jeffrey D. Ullman".to_string()),
            ],
            term_stats: vec![
                TermStatsEntry {
                    term: QTerm::fielded(Field::BodyOfText, "distributed"),
                    term_frequency: 10,
                    term_weight: 0.31,
                    document_frequency: 190,
                },
                TermStatsEntry {
                    term: QTerm::fielded(Field::BodyOfText, "databases"),
                    term_frequency: 15,
                    term_weight: 0.51,
                    document_frequency: 232,
                },
            ],
            doc_size_kb: 248,
            doc_count: 10213,
        }],
        profile: None,
    }
}

/// Example 8: the @SQResults/@SQRDocument stream.
#[test]
fn example_8_soif_stream() {
    let results = example_8_results();
    let text = String::from_utf8(results.to_soif_stream()).unwrap();
    // Header: counts 48 and 26 are the paper's own.
    assert!(text.contains("ActualFilterExpression{48}: "));
    assert!(text.contains("ActualRankingExpression{26}: (body-of-text \"databases\")"));
    assert!(text.contains("NumDocSOIFs{1}: 1"));
    // Document object.
    assert!(text.contains("RawScore{4}: 0.82"));
    assert!(text.contains("DocSize{3}: 248"));
    assert!(text.contains("DocCount{5}: 10213"));
    assert!(text.contains("(body-of-text \"distributed\") 10 0.31 190"));
    assert!(text.contains("(body-of-text \"databases\") 15 0.51 232"));
    // And it round-trips.
    let back = QueryResults::from_soif_stream(text.as_bytes()).unwrap();
    assert_eq!(back, results);
}

/// Example 9: the metasearcher re-ranks by term frequency and reverses
/// the sources' raw-score order.
#[test]
fn example_9_reranking() {
    use starts::meta::merge::{Merger, RawScoreMerge, SourceResult, TfMerge};
    use starts::proto::SourceMetadata;
    let source_1 = SourceResult {
        metadata: SourceMetadata {
            source_id: "Source-1".to_string(),
            ..SourceMetadata::default()
        }
        .into(),
        results: example_8_results(),
        source_weight: 1.0,
    };
    let mut lagunita = example_8_results();
    lagunita.sources = vec!["Source-2".to_string()];
    lagunita.documents[0] = ResultDocument {
        raw_score: Some(0.27),
        sources: vec!["Source-2".to_string()],
        fields: vec![
            (
                Field::Linkage,
                "http://elib.stanford.edu/lagunita.ps".to_string(),
            ),
            (
                Field::Title,
                "Database Research: Achievements and Opportunities into the 21st. Century"
                    .to_string(),
            ),
        ],
        term_stats: vec![
            TermStatsEntry {
                term: QTerm::fielded(Field::BodyOfText, "distributed"),
                term_frequency: 20,
                term_weight: 0.12,
                document_frequency: 901,
            },
            TermStatsEntry {
                term: QTerm::fielded(Field::BodyOfText, "databases"),
                term_frequency: 34,
                term_weight: 0.15,
                document_frequency: 788,
            },
        ],
        doc_size_kb: 125,
        doc_count: 9031,
    };
    let source_2 = SourceResult {
        metadata: SourceMetadata {
            source_id: "Source-2".to_string(),
            ..SourceMetadata::default()
        }
        .into(),
        results: lagunita,
        source_weight: 1.0,
    };
    let inputs = [source_1, source_2];
    // Raw scores put Source-1's document first (0.82 > 0.27)…
    let raw = RawScoreMerge.merge(&inputs);
    assert!(raw[0].linkage.contains("dood"));
    // …but Example 9's metasearcher ranks Source-2's document higher
    // (20+34 occurrences vs 10+15).
    let reranked = TfMerge.merge(&inputs);
    assert!(reranked[0].linkage.contains("lagunita"));
    assert_eq!(reranked[0].score, 54.0);
}

/// Example 10: the @SMetaAttributes object's values.
#[test]
fn example_10_metadata() {
    use starts::proto::metadata::{FieldModCombo, QueryParts, SourceMetadata};
    let m = SourceMetadata {
        source_id: "Source-1".to_string(),
        fields_supported: vec![(Field::Author, vec![])],
        modifiers_supported: vec![(Modifier::Phonetic, vec![])],
        field_modifier_combinations: vec![FieldModCombo {
            field: Field::Author,
            modifiers: vec![Modifier::Phonetic],
        }],
        query_parts_supported: QueryParts::Both,
        score_range: (0.0, 1.0),
        ranking_algorithm_id: "Acme-1".to_string(),
        source_languages: vec![LangTag::en_us(), LangTag::es()],
        source_name: "Stanford DB Group".to_string(),
        linkage: "http://www-db.stanford.edu/cgi-bin/query".to_string(),
        content_summary_linkage: "ftp://www-db.stanford.edu/cont_sum.txt".to_string(),
        date_changed: Some("1996-03-31".to_string()),
        ..SourceMetadata::default()
    };
    let text = String::from_utf8(m.to_soif_bytes()).unwrap();
    assert!(text.contains("QueryPartsSupported{2}: RF"));
    assert!(text.contains("ScoreRange{7}: 0.0 1.0"));
    assert!(text.contains("RankingAlgorithmID{6}: Acme-1"));
    assert!(text.contains("DefaultMetaAttributeSet{8}: mbasic-1"));
    assert!(text.contains("source-languages{8}: en-US es"));
    assert!(text.contains("source-name{17}: Stanford DB Group"));
    assert!(text.contains("date-changed{10}: 1996-03-31")); // paper says {9}: off by one
    assert!(text.contains("content-summary-linkage{38}: ftp://www-db.stanford.edu/cont_sum.txt"));
    let back = SourceMetadata::from_soif_bytes(text.as_bytes(), ParseMode::Strict).unwrap();
    assert_eq!(back, m);
}

/// Example 11: the bilingual content summary.
#[test]
fn example_11_content_summary() {
    use starts::proto::summary::{ContentSummary, SummarySection, TermSummary};
    let s = ContentSummary {
        stemmed: false,
        stop_words_included: false,
        case_sensitive: false,
        num_docs: 892,
        sections: vec![
            SummarySection {
                field: Some("title".to_string()),
                language: Some(LangTag::en_us()),
                terms: vec![
                    TermSummary {
                        term: "algorithm".to_string(),
                        total_postings: Some(100),
                        doc_freq: Some(53),
                    },
                    TermSummary {
                        term: "analysis".to_string(),
                        total_postings: Some(50),
                        doc_freq: Some(23),
                    },
                ],
            },
            SummarySection {
                field: Some("title".to_string()),
                language: Some(LangTag::es()),
                terms: vec![
                    TermSummary {
                        term: "algoritmo".to_string(),
                        total_postings: Some(23),
                        doc_freq: Some(11),
                    },
                    TermSummary {
                        term: "datos".to_string(),
                        total_postings: Some(59),
                        doc_freq: Some(12),
                    },
                ],
            },
        ],
    };
    let text = String::from_utf8(s.to_soif_bytes()).unwrap();
    assert!(text.contains("Stemming{1}: F"));
    assert!(text.contains("StopWords{1}: F"));
    assert!(text.contains("CaseSensitive{1}: F"));
    assert!(text.contains("Fields{1}: T"));
    assert!(text.contains("NumDocs{3}: 892"));
    assert!(text.contains("Field{5}: title"));
    assert!(text.contains("Language{5}: en-US"));
    assert!(text.contains("Language{2}: es"));
    assert!(text.contains("\"algorithm\" 100 53"));
    assert!(text.contains("\"datos\" 59 12"));
    // The paper's reading: "'algorithm' appears in the title of 53
    // documents, 'datos' … 12 documents; there are 892 documents."
    assert_eq!(s.df(Some("title"), "algorithm"), 53);
    assert_eq!(s.df(Some("title"), "datos"), 12);
}

/// Example 12: the @SResource listing.
#[test]
fn example_12_resource() {
    let r = Resource::new([
        (
            "Source-1".to_string(),
            "ftp://www.stanford.edu/source_1".to_string(),
        ),
        (
            "Source-2".to_string(),
            "ftp://www.stanford.edu/source_2".to_string(),
        ),
    ]);
    let text = String::from_utf8(r.to_soif_bytes()).unwrap();
    let expected_value = "Source-1 ftp://www.stanford.edu/source_1\n\
                          Source-2 ftp://www.stanford.edu/source_2";
    assert!(text.contains(&format!("SourceList{{{}}}: ", expected_value.len())));
    assert!(text.contains(expected_value));
    let back = Resource::from_soif_bytes(text.as_bytes(), ParseMode::Strict).unwrap();
    assert_eq!(back, r);
}

/// The paper's own typeset quoting (``…'') is accepted by the parser, so
/// the examples can be pasted verbatim from the PDF text.
#[test]
fn latex_quoting_accepted_everywhere() {
    let f = parse_filter("((author ``Ullman'') and (title stem ``databases''))").unwrap();
    assert_eq!(
        print_filter(&f),
        r#"((author "Ullman") and (title stem "databases"))"#
    );
}
