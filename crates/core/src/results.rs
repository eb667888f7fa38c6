//! Query results (§4.2): `@SQResults` headers and `@SQRDocument`
//! per-document objects (Examples 7–9).
//!
//! Results carry everything a metasearcher needs to merge ranks *without
//! retrieving documents*: the unnormalized `RawScore`, the source id(s),
//! per-query-term statistics (term frequency, term weight, document
//! frequency), and the document's size and token count. They also carry
//! the **actual query** the source executed, which doubles as the
//! protocol's only error-reporting channel (a source silently drops what
//! it cannot do and shows you what it did).

use std::fmt::Write as _;

use starts_soif::{
    AttrSink, ObjectHead, ParseMode, SoifObject, SoifReader, SoifWriter, STARTS_VERSION,
    VERSION_ATTR,
};

use crate::attrs::Field;
use crate::codec::{expect_template, object_attrs, push_joined, Attrs, FirstWins};
use crate::error::ProtoError;
use crate::profile::{QueryProfile, PROFILE_ATTR};
use crate::query::{
    parse_filter, parse_ranking, write_filter, write_ranking, write_term, write_weight, FilterExpr,
    QTerm, Query, RankExpr, SQUERY,
};

const SQRESULTS: &str = "SQResults";
const SQRDOCUMENT: &str = "SQRDocument";

/// One line of the `TermStats` attribute: a query term and its statistics
/// in this document (Example 8:
/// `(body-of-text "distributed") 10 0.31 190`).
#[derive(Debug, Clone, PartialEq)]
pub struct TermStatsEntry {
    /// The ranking-expression term (with its field, as modified by the
    /// query fields "if possible").
    pub term: QTerm,
    /// `Term-frequency`: occurrences in the document.
    pub term_frequency: u32,
    /// `Term-weight`: the weight assigned by the source's engine.
    pub term_weight: f64,
    /// `Document-frequency`: documents at the source containing the term.
    pub document_frequency: u32,
}

impl TermStatsEntry {
    fn encode_into(&self, out: &mut String) {
        write_term(out, &self.term);
        let _ = write!(out, " {} ", self.term_frequency);
        write_weight(out, self.term_weight);
        let _ = write!(out, " {}", self.document_frequency);
    }

    fn decode<'a>(line: &'a str, terms: &mut TermMemo<'a>) -> Result<TermStatsEntry, ProtoError> {
        // The term is a parenthesized (or bare-quoted) term followed by
        // three numbers. Split at the last three whitespace-separated
        // tokens.
        let mut parts = line.trim().rsplitn(4, char::is_whitespace);
        let (Some(df), Some(weight), Some(tf), Some(term_src)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(ProtoError::invalid(
                "TermStats",
                format!("bad line {line:?}"),
            ));
        };
        let term = terms.parse(term_src.trim())?;
        let tf: u32 = tf
            .parse()
            .map_err(|_| ProtoError::invalid("TermStats", "bad term frequency"))?;
        let weight: f64 = weight
            .parse()
            .map_err(|_| ProtoError::invalid("TermStats", "bad term weight"))?;
        let df: u32 = df
            .parse()
            .map_err(|_| ProtoError::invalid("TermStats", "bad document frequency"))?;
        Ok(TermStatsEntry {
            term,
            term_frequency: tf,
            term_weight: weight,
            document_frequency: df,
        })
    }
}

/// The `TermStats` terms of one result stream already parsed, by their
/// source text. Every document of a result lists the same few query
/// terms, and parsing is a pure function of the text, so each distinct
/// term is parsed once. Bounded, so hostile input cannot make lookups
/// quadratic.
#[derive(Default)]
struct TermMemo<'a>(Vec<(&'a str, QTerm)>);

impl<'a> TermMemo<'a> {
    const CAPACITY: usize = 16;

    /// The single term `src` spells.
    fn parse(&mut self, src: &'a str) -> Result<QTerm, ProtoError> {
        if let Some((_, term)) = self.0.iter().find(|(seen, _)| *seen == src) {
            return Ok(term.clone());
        }
        let FilterExpr::Term(term) = parse_filter(src)? else {
            return Err(ProtoError::invalid(
                "TermStats",
                "expected a single term before the statistics",
            ));
        };
        if self.0.len() < Self::CAPACITY {
            self.0.push((src, term.clone()));
        }
        Ok(term)
    }
}

/// One document of a query result — an `@SQRDocument` object.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultDocument {
    /// "The unnormalized score of the document for the query."
    pub raw_score: Option<f64>,
    /// "The id of the source(s) where the document appears" — plural
    /// when a resource merged duplicates (Figure 1).
    pub sources: Vec<String>,
    /// Returned answer fields, in order (`linkage` is always present).
    pub fields: Vec<(Field, String)>,
    /// Statistics for each ranking-expression term.
    pub term_stats: Vec<TermStatsEntry>,
    /// `DocSize`: document size in KBytes.
    pub doc_size_kb: u32,
    /// `DocCount`: tokens in the document, as determined by the source.
    pub doc_count: u64,
}

impl ResultDocument {
    /// The document's URL (its `Linkage` field), if returned.
    pub fn linkage(&self) -> Option<&str> {
        self.field(&Field::Linkage)
    }

    /// First value of a returned field.
    pub fn field(&self, f: &Field) -> Option<&str> {
        self.fields
            .iter()
            .find(|(g, _)| g == f)
            .map(|(_, v)| v.as_str())
    }

    /// Encode as an `@SQRDocument` SOIF object (Example 8 layout).
    pub fn to_soif(&self) -> SoifObject {
        let mut o = SoifObject::new(SQRDOCUMENT);
        self.encode(&mut o);
        o
    }

    /// Decode from an `@SQRDocument` object.
    pub fn from_soif(o: &SoifObject) -> Result<ResultDocument, ProtoError> {
        expect_template(&o.template, SQRDOCUMENT)?;
        Self::decode(object_attrs(o), &mut TermMemo::default())
    }

    /// The attributes, in Example 8's order.
    fn encode(&self, sink: &mut impl AttrSink) {
        sink.attr(VERSION_ATTR, STARTS_VERSION.as_bytes());
        if let Some(s) = self.raw_score {
            sink.attr_fmt("RawScore", |v| write_weight(v, s));
        }
        sink.attr_fmt("Sources", |v| {
            push_joined(v, self.sources.iter().map(String::as_str))
        });
        for (f, v) in &self.fields {
            sink.attr(f.name(), v.as_bytes());
        }
        if !self.term_stats.is_empty() {
            sink.attr_fmt("TermStats", |v| {
                for (i, entry) in self.term_stats.iter().enumerate() {
                    if i > 0 {
                        v.push('\n');
                    }
                    entry.encode_into(v);
                }
            });
        }
        sink.attr_fmt("DocSize", |v| {
            let _ = write!(v, "{}", self.doc_size_kb);
        });
        sink.attr_fmt("DocCount", |v| {
            let _ = write!(v, "{}", self.doc_count);
        });
    }

    /// Every attribute is read, in order (a repeated one overrides, an
    /// unknown one is a returned field), and must be UTF-8.
    fn decode<'a>(
        attrs: impl Attrs<'a>,
        terms: &mut TermMemo<'a>,
    ) -> Result<ResultDocument, ProtoError> {
        let mut doc = ResultDocument {
            raw_score: None,
            sources: Vec::new(),
            fields: Vec::new(),
            term_stats: Vec::new(),
            doc_size_kb: 0,
            doc_count: 0,
        };
        for attr in attrs {
            let (name, value) = attr?;
            let value =
                std::str::from_utf8(value).map_err(|_| ProtoError::invalid(name, "not UTF-8"))?;
            let is = |attr: &str| name.eq_ignore_ascii_case(attr);
            if is(VERSION_ATTR) {
            } else if is("RawScore") {
                doc.raw_score = Some(
                    value
                        .parse()
                        .map_err(|_| ProtoError::invalid("RawScore", "not a number"))?,
                );
            } else if is("Sources") {
                doc.sources = value.split_whitespace().map(str::to_string).collect();
            } else if is("TermStats") {
                doc.term_stats = value
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(|line| TermStatsEntry::decode(line, terms))
                    .collect::<Result<_, _>>()?;
            } else if is("DocSize") {
                doc.doc_size_kb = value
                    .trim()
                    .parse()
                    .map_err(|_| ProtoError::invalid("DocSize", "not an integer"))?;
            } else if is("DocCount") {
                doc.doc_count = value
                    .trim()
                    .parse()
                    .map_err(|_| ProtoError::invalid("DocCount", "not an integer"))?;
            } else {
                doc.fields.push((Field::parse(name), value.to_string()));
            }
        }
        Ok(doc)
    }
}

/// A complete query result: the `@SQResults` header plus its
/// `@SQRDocument`s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResults {
    /// The source(s) that produced the result.
    pub sources: Vec<String>,
    /// The filter expression the source *actually* executed.
    pub actual_filter: Option<FilterExpr>,
    /// The ranking expression the source *actually* executed. A source
    /// that dropped the whole expression reports `None` — encoded as an
    /// empty value, exactly Example 7's "empty ranking expression".
    pub actual_ranking: Option<RankExpr>,
    /// The result documents (`NumDocSOIFs` counts them).
    pub documents: Vec<ResultDocument>,
    /// Host-side cost breakdown of this execution (§4.3 extension
    /// attribute `XQueryProfile`); `None` unless the exchange was
    /// traced and the host is profile-aware.
    pub profile: Option<QueryProfile>,
}

/// The header attributes a decoder reads; the first value of each wins.
const HEADER_ATTRS: &[&str] = &[
    "Sources",
    "ActualFilterExpression",
    "ActualRankingExpression",
    PROFILE_ATTR,
];

impl QueryResults {
    /// Encode the full result as a SOIF stream: one `@SQResults` object
    /// followed by one `@SQRDocument` per document (Example 8's layout).
    pub fn to_soif_stream(&self) -> Vec<u8> {
        // Sized for a typical document, so a response is written with
        // few or no regrowths.
        let mut out = Vec::with_capacity(256 + 320 * self.documents.len());
        self.to_soif_stream_into(&mut out);
        out
    }

    /// Append the SOIF stream encoding to `out`, writing each attribute
    /// straight to bytes — the buffer-reuse counterpart of
    /// [`QueryResults::to_soif_stream`].
    pub fn to_soif_stream_into(&self, out: &mut Vec<u8>) {
        let mut writer = SoifWriter::new(out);
        writer.object(SQRESULTS, |w| self.encode_header(w));
        for d in &self.documents {
            writer.separator();
            writer.object(SQRDOCUMENT, |w| d.encode(w));
        }
    }

    /// The `@SQResults` header object alone.
    pub fn header_soif(&self) -> SoifObject {
        let mut o = SoifObject::new(SQRESULTS);
        self.encode_header(&mut o);
        o
    }

    /// Decode a SOIF stream produced by [`QueryResults::to_soif_stream`],
    /// reading attributes in place: nothing is copied that the results
    /// do not keep.
    pub fn from_soif_stream(bytes: &[u8]) -> Result<QueryResults, ProtoError> {
        let mut reader = SoifReader::new(bytes, ParseMode::Strict);
        let (results, next) = Self::read_stream(&mut reader)?;
        if let Some(head) = next {
            // Only documents may follow the header.
            expect_template(head.template, SQRDOCUMENT)?;
        }
        Ok(results)
    }

    /// The result stream the reader is at: an `@SQResults` object and
    /// the `@SQRDocument`s after it. Also returns the head of the object
    /// that ended the stream, if one did.
    fn read_stream<'a>(
        reader: &mut SoifReader<'a>,
    ) -> Result<(QueryResults, Option<ObjectHead<'a>>), ProtoError> {
        let header = reader
            .next_head()?
            .ok_or_else(|| ProtoError::missing(SQRESULTS, "(whole object)"))?;
        expect_template(header.template, SQRESULTS)?;
        let mut results = Self::decode_header(reader.attrs())?;
        let mut terms = TermMemo::default();
        loop {
            match reader.next_head()? {
                Some(head) if head.template.eq_ignore_ascii_case(SQRDOCUMENT) => {
                    let doc = ResultDocument::decode(reader.attrs(), &mut terms)?;
                    results.documents.push(doc);
                }
                next => return Ok((results, next)),
            }
        }
    }

    /// Decode just the header object.
    pub fn from_header(o: &SoifObject) -> Result<QueryResults, ProtoError> {
        expect_template(&o.template, SQRESULTS)?;
        Self::decode_header(object_attrs(o))
    }

    fn encode_header(&self, sink: &mut impl AttrSink) {
        sink.attr(VERSION_ATTR, STARTS_VERSION.as_bytes());
        sink.attr_fmt("Sources", |v| {
            push_joined(v, self.sources.iter().map(String::as_str))
        });
        sink.attr_fmt("ActualFilterExpression", |v| {
            if let Some(f) = &self.actual_filter {
                write_filter(v, f);
            }
        });
        sink.attr_fmt("ActualRankingExpression", |v| {
            if let Some(r) = &self.actual_ranking {
                write_ranking(v, r);
            }
        });
        sink.attr_fmt("NumDocSOIFs", |v| {
            let _ = write!(v, "{}", self.documents.len());
        });
        // Extension attribute (§4.3): present only on traced exchanges,
        // so the paper's exact encodings are untouched otherwise.
        if let Some(profile) = &self.profile {
            sink.attr_fmt(PROFILE_ATTR, |v| profile.encode_into(v));
        }
    }

    /// The header without its documents. A first value that is not
    /// UTF-8 counts as absent.
    fn decode_header<'a>(attrs: impl Attrs<'a>) -> Result<QueryResults, ProtoError> {
        let mut results = QueryResults::default();
        let mut first = FirstWins::new(HEADER_ATTRS);
        for attr in attrs {
            let (name, value) = attr?;
            let Some(attr) = first.claim(name) else {
                continue;
            };
            let Ok(value) = std::str::from_utf8(value) else {
                continue;
            };
            let empty = value.trim().is_empty();
            match attr {
                "Sources" => {
                    results.sources = value.split_whitespace().map(str::to_string).collect();
                }
                "ActualFilterExpression" if !empty => {
                    results.actual_filter = Some(parse_filter(value)?);
                }
                "ActualRankingExpression" if !empty => {
                    results.actual_ranking = Some(parse_ranking(value)?);
                }
                // Lenient per §4.3: malformed extension data degrades to None.
                PROFILE_ATTR => results.profile = QueryProfile::decode(value),
                _ => {}
            }
        }
        Ok(results)
    }
}

/// The sample-results payload (§4.2's calibration hook): for each
/// sample query, its `@SQuery` object and then its result stream, each
/// followed by a blank line.
pub fn encode_sample(samples: &[(Query, QueryResults)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (q, r) in samples {
        q.write_soif_into(q.trace.as_ref(), &mut out);
        out.push(b'\n');
        r.to_soif_stream_into(&mut out);
        out.push(b'\n');
    }
    out
}

/// Decode a sample-results payload, read Strict. It is a run of
/// sections, each an `@SQuery` followed by one result stream (an
/// `@SQResults` and its `@SQRDocument`s). Templates are compared
/// case-insensitively; an object out of that order (a stream with no
/// query before it, a query with no stream after it, an unknown
/// template) is refused, never skipped.
pub fn decode_sample(bytes: &[u8]) -> Result<Vec<(Query, QueryResults)>, ProtoError> {
    let mut reader = SoifReader::new(bytes, ParseMode::Strict);
    let mut samples = Vec::new();
    let mut next = reader.next_head()?;
    while let Some(head) = next {
        expect_template(head.template, SQUERY)?;
        let query = Query::decode(reader.attrs())?;
        let (results, after) = QueryResults::read_stream(&mut reader)?;
        samples.push((query, results));
        next = after;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Modifier;
    use starts_soif::write_object;

    fn example8_results() -> QueryResults {
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

    #[test]
    fn example8_header_encoding() {
        let r = example8_results();
        let text = String::from_utf8(write_object(&r.header_soif())).unwrap();
        let expected = "@SQResults{\n\
            Version{10}: STARTS 1.0\n\
            Sources{8}: Source-1\n\
            ActualFilterExpression{48}: ((author \"Ullman\") and (title stem \"databases\"))\n\
            ActualRankingExpression{26}: (body-of-text \"databases\")\n\
            NumDocSOIFs{1}: 1\n\
            }\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn example8_document_attributes() {
        let r = example8_results();
        let o = r.documents[0].to_soif();
        assert_eq!(o.get_str("RawScore"), Some("0.82"));
        assert_eq!(o.get_str("Sources"), Some("Source-1"));
        assert_eq!(
            o.get_str("linkage"),
            Some("http://www-db.stanford.edu/~ullman/pub/dood.ps")
        );
        assert_eq!(o.get_str("DocSize"), Some("248"));
        assert_eq!(o.get_str("DocCount"), Some("10213"));
        let stats = o.get_str("TermStats").unwrap();
        assert_eq!(
            stats,
            "(body-of-text \"distributed\") 10 0.31 190\n\
             (body-of-text \"databases\") 15 0.51 232"
        );
    }

    #[test]
    fn full_stream_round_trip() {
        let r = example8_results();
        let bytes = r.to_soif_stream();
        let back = QueryResults::from_soif_stream(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn empty_actual_ranking_round_trips_as_none() {
        // Example 7: a source that ignores ranking expressions returns an
        // empty one.
        let r = QueryResults {
            sources: vec!["S".to_string()],
            actual_filter: Some(parse_filter(r#"(title "x")"#).unwrap()),
            actual_ranking: None,
            documents: vec![],
            profile: None,
        };
        let o = r.header_soif();
        assert_eq!(o.get_str("ActualRankingExpression"), Some(""));
        let back = QueryResults::from_header(&o).unwrap();
        assert_eq!(back.actual_ranking, None);
    }

    #[test]
    fn an_echoed_trace_context_is_ignored() {
        // A host that echoes the query's context back still decodes
        // (§4.3: unknown attributes are ignored); results never send it.
        let mut o = QueryResults::default().header_soif();
        o.push_str(
            crate::trace::TRACE_ATTR,
            "q-000003 99 meta.search/dispatch/source",
        );
        let back = QueryResults::from_header(&o).unwrap();
        assert_eq!(back, QueryResults::default());
        assert!(!back.header_soif().has(crate::trace::TRACE_ATTR));
    }

    #[test]
    fn query_profile_echoes_through_the_header() {
        use crate::profile::StageCost;
        let mut root = StageCost::new("source.execute", 0, 450);
        root.children = vec![
            StageCost::new("rewrite", 0, 10),
            StageCost::new("execute", 10, 400).with_meta("shards", 2),
        ];
        let r = QueryResults {
            sources: vec!["S".to_string()],
            profile: Some(QueryProfile {
                query_id: "q-000004".to_string(),
                root,
            }),
            ..QueryResults::default()
        };
        let o = r.header_soif();
        assert!(o.has(PROFILE_ATTR));
        let back = QueryResults::from_header(&o).unwrap();
        assert_eq!(back.profile, r.profile);
        // Unprofiled results omit the attribute entirely.
        assert!(!QueryResults::default().header_soif().has(PROFILE_ATTR));
    }

    #[test]
    fn term_stats_decode_with_modifiers() {
        let line = r#"(title stem "databases") 3 0.5 17"#;
        let e = TermStatsEntry::decode(line, &mut TermMemo::default()).unwrap();
        assert_eq!(e.term.modifiers, vec![Modifier::Stem]);
        assert_eq!(e.term_frequency, 3);
        assert_eq!(e.document_frequency, 17);
        // Round trip.
        let mut encoded = String::new();
        e.encode_into(&mut encoded);
        assert_eq!(encoded, line);
    }

    #[test]
    fn term_stats_decode_bare_term() {
        let e = TermStatsEntry::decode(r#""databases" 5 0.1 9"#, &mut TermMemo::default()).unwrap();
        assert!(e.term.is_bare());
        assert_eq!(e.term_frequency, 5);
    }

    #[test]
    fn term_stats_bad_lines() {
        let decode = |line| TermStatsEntry::decode(line, &mut TermMemo::default());
        assert!(decode("nonsense").is_err());
        assert!(decode(r#"(title "x") 1 2"#).is_err());
        assert!(decode(r#"(title "x") a 0.5 3"#).is_err());
        assert!(decode(r#"("x" and "y") 1 0.5 3"#).is_err());
    }

    #[test]
    fn term_stats_memo_parses_each_term_text_once() {
        let mut memo = TermMemo::default();
        let a = TermStatsEntry::decode(r#"(title "x") 1 0.5 3"#, &mut memo).unwrap();
        let b = TermStatsEntry::decode(r#"(title "y") 2 0.5 3"#, &mut memo).unwrap();
        let c = TermStatsEntry::decode(r#"(title "x") 4 0.5 3"#, &mut memo).unwrap();
        assert_eq!(memo.0.len(), 2);
        assert_eq!(
            (a.term.value.text, b.term.value.text),
            ("x".into(), "y".into())
        );
        assert_eq!((c.term.value.text, c.term_frequency), ("x".to_string(), 4));
        // A line that is not a single term is an error every time.
        for _ in 0..2 {
            assert!(TermStatsEntry::decode(r#"("x" or "y") 1 0.5 3"#, &mut memo).is_err());
        }
    }

    #[test]
    fn unscored_document() {
        // Filter-only queries produce documents with no RawScore.
        let d = ResultDocument {
            raw_score: None,
            sources: vec!["S".to_string()],
            fields: vec![(Field::Linkage, "http://x/".to_string())],
            term_stats: vec![],
            doc_size_kb: 1,
            doc_count: 10,
        };
        let o = d.to_soif();
        assert!(!o.has("RawScore"));
        assert!(!o.has("TermStats"));
        let back = ResultDocument::from_soif(&o).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn duplicate_merged_document_lists_both_sources() {
        // Figure 1: the resource eliminates duplicates and reports both
        // source ids.
        let d = ResultDocument {
            raw_score: Some(0.5),
            sources: vec!["Source-1".to_string(), "Source-2".to_string()],
            fields: vec![],
            term_stats: vec![],
            doc_size_kb: 2,
            doc_count: 100,
        };
        let o = d.to_soif();
        assert_eq!(o.get_str("Sources"), Some("Source-1 Source-2"));
        assert_eq!(ResultDocument::from_soif(&o).unwrap().sources.len(), 2);
    }

    #[test]
    fn other_fields_preserved() {
        let d = ResultDocument {
            raw_score: None,
            sources: vec![],
            fields: vec![(Field::Other("abstract".to_string()), "Text.".to_string())],
            term_stats: vec![],
            doc_size_kb: 0,
            doc_count: 0,
        };
        let back = ResultDocument::from_soif(&d.to_soif()).unwrap();
        assert_eq!(
            back.field(&Field::Other("abstract".to_string())),
            Some("Text.")
        );
    }
}
