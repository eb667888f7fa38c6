//! Parsing the paper's SOIF examples *as printed* — including the
//! camera-ready copy's off-by-one byte counts — through the lenient
//! parser. A metasearcher of 1997 interoperating with a source whose
//! counts drifted would have needed exactly this resilience.

use starts::proto::summary::ContentSummary;
use starts::proto::{Query, SourceMetadata};
use starts::soif::{parse_one, ParseMode};

/// Example 10's `@SMetaAttributes`, transcribed from the paper with its
/// printed byte counts (17 for a 16-byte value, 39 for 38, 9 for 10 —
/// all wrong) and plain-quote rendering.
const EXAMPLE_10_AS_PRINTED: &str = "@SMetaAttributes{\n\
Version{10}: STARTS 1.0\n\
SourceID{8}: Source-1\n\
FieldsSupported{17}: [basic-1 author]\n\
ModifiersSupported{19}: {basic-1 phonetics}\n\
FieldModifierCombinations{39}: ([basic-1 author] {basic-1 phonetics})\n\
QueryPartsSupported{2}: RF\n\
ScoreRange{7}: 0.0 1.0\n\
RankingAlgorithmID{6}: Acme-1\n\
DefaultMetaAttributeSet{8}: mbasic-1\n\
source-languages{8}: en-US es\n\
source-name{17}: Stanford DB Group\n\
linkage{40}: http://www-db.stanford.edu/cgi-bin/query\n\
content-summary-linkage{38}: ftp://www-db.stanford.edu/cont_sum.txt\n\
date-changed{9}: 1996-03-31\n\
}\n";

#[test]
fn example_10_as_printed_needs_lenient_mode() {
    // Strict parsing must reject the wrong counts…
    assert!(parse_one(EXAMPLE_10_AS_PRINTED.as_bytes(), ParseMode::Strict).is_err());
    // …lenient parsing recovers every value.
    let m = SourceMetadata::from_soif_bytes(EXAMPLE_10_AS_PRINTED.as_bytes(), ParseMode::Lenient)
        .unwrap();
    assert_eq!(m.source_id, "Source-1");
    assert_eq!(m.ranking_algorithm_id, "Acme-1");
    assert_eq!(m.score_range, (0.0, 1.0));
    assert!(m.query_parts_supported.supports_filter());
    assert!(m.query_parts_supported.supports_ranking());
    assert_eq!(m.source_name, "Stanford DB Group");
    assert_eq!(m.linkage, "http://www-db.stanford.edu/cgi-bin/query");
    assert_eq!(
        m.content_summary_linkage,
        "ftp://www-db.stanford.edu/cont_sum.txt"
    );
    assert_eq!(m.date_changed.as_deref(), Some("1996-03-31"));
    assert_eq!(m.source_languages.len(), 2);
    assert_eq!(m.fields_supported.len(), 1);
    assert_eq!(m.modifiers_supported.len(), 1);
    assert_eq!(m.field_modifier_combinations.len(), 1);
}

/// Example 11's `@SContentSummary` as printed (counts here are
/// consistent apart from the elided term list).
const EXAMPLE_11_AS_PRINTED: &str = "@SContentSummary{\n\
Version{10}: STARTS 1.0\n\
Stemming{1}: F\n\
StopWords{1}: F\n\
CaseSensitive{1}: F\n\
Fields{1}: T\n\
NumDocs{3}: 892\n\
Field{5}: title\n\
Language{5}: en-US\n\
TermDocFreq{40}: \"algorithm\" 100 53\n\"analysis\" 50 23\n\
Field{5}: title\n\
Language{2}: es\n\
TermDocFreq{38}: \"algoritmo\" 23 11\n\"datos\" 59 12\n\
}\n";

#[test]
fn example_11_as_printed_parses() {
    let s = ContentSummary::from_soif_bytes(EXAMPLE_11_AS_PRINTED.as_bytes(), ParseMode::Lenient)
        .unwrap();
    assert_eq!(s.num_docs, 892);
    assert!(!s.stemmed);
    assert!(!s.stop_words_included);
    assert_eq!(s.sections.len(), 2);
    assert_eq!(s.df(Some("title"), "algorithm"), 53);
    assert_eq!(s.df(Some("title"), "datos"), 12);
    let t = s.lookup(Some("title"), "algoritmo").unwrap();
    assert_eq!(t.total_postings, Some(23));
}

/// A query object typed by hand with sloppy counts still decodes in
/// lenient mode — the "be liberal in what you accept" posture a 1997
/// metasearcher needed.
#[test]
fn hand_typed_query_with_bad_counts() {
    let text = "@SQuery{\n\
        Version{10}: STARTS 1.0\n\
        FilterExpression{999}: (author \"Ullman\")\n\
        MaxNumberDocuments{2}: 10\n\
        }\n";
    let obj = parse_one(text.as_bytes(), ParseMode::Lenient).unwrap();
    let q = Query::from_soif(&obj).unwrap();
    assert!(q.filter.is_some());
    assert_eq!(q.answer.max_documents, 10);
}
