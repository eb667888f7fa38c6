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

use starts_soif::{write_object_into, SoifObject, SoifReader, STARTS_VERSION, VERSION_ATTR};

use crate::attrs::Field;
use crate::error::ProtoError;
use crate::profile::{QueryProfile, PROFILE_ATTR};
use crate::query::{
    fmt_weight, parse_filter, parse_ranking, print_filter, print_ranking, print_term, FilterExpr,
    QTerm, RankExpr,
};

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
    fn encode(&self) -> String {
        format!(
            "{} {} {} {}",
            print_term(&self.term),
            self.term_frequency,
            fmt_weight(self.term_weight),
            self.document_frequency
        )
    }

    fn decode(line: &str) -> Result<TermStatsEntry, ProtoError> {
        // The term is a parenthesized (or bare-quoted) term followed by
        // three numbers. Split at the last three whitespace-separated
        // tokens.
        let trimmed = line.trim();
        let mut parts: Vec<&str> = trimmed.rsplitn(4, char::is_whitespace).collect();
        if parts.len() != 4 {
            return Err(ProtoError::invalid(
                "TermStats",
                format!("bad line {line:?}"),
            ));
        }
        parts.reverse(); // [term-text, tf, weight, df]
        let term_src = parts[0].trim();
        let term = match crate::query::parse_filter(term_src)? {
            FilterExpr::Term(t) => t,
            _ => {
                return Err(ProtoError::invalid(
                    "TermStats",
                    "expected a single term before the statistics",
                ))
            }
        };
        let tf: u32 = parts[1]
            .parse()
            .map_err(|_| ProtoError::invalid("TermStats", "bad term frequency"))?;
        let weight: f64 = parts[2]
            .parse()
            .map_err(|_| ProtoError::invalid("TermStats", "bad term weight"))?;
        let df: u32 = parts[3]
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
        let mut o = SoifObject::new("SQRDocument");
        o.push_str(VERSION_ATTR, STARTS_VERSION);
        if let Some(s) = self.raw_score {
            o.push_str("RawScore", fmt_weight(s));
        }
        o.push_str("Sources", self.sources.join(" "));
        for (f, v) in &self.fields {
            o.push_str(f.name(), v);
        }
        if !self.term_stats.is_empty() {
            let lines: Vec<String> = self.term_stats.iter().map(TermStatsEntry::encode).collect();
            o.push_str("TermStats", lines.join("\n"));
        }
        o.push_str("DocSize", self.doc_size_kb.to_string());
        o.push_str("DocCount", self.doc_count.to_string());
        o
    }

    /// Decode from an `@SQRDocument` object.
    pub fn from_soif(o: &SoifObject) -> Result<ResultDocument, ProtoError> {
        if !o.template.eq_ignore_ascii_case("SQRDocument") {
            return Err(ProtoError::WrongTemplate {
                expected: "SQRDocument",
                found: o.template.clone(),
            });
        }
        let mut doc = ResultDocument {
            raw_score: None,
            sources: Vec::new(),
            fields: Vec::new(),
            term_stats: Vec::new(),
            doc_size_kb: 0,
            doc_count: 0,
        };
        for attr in o.iter() {
            let name = attr.name.as_str();
            let value = std::str::from_utf8(&attr.value)
                .map_err(|_| ProtoError::invalid(name, "not UTF-8"))?;
            match name.to_ascii_lowercase().as_str() {
                "version" => {}
                "rawscore" => {
                    doc.raw_score = Some(
                        value
                            .parse()
                            .map_err(|_| ProtoError::invalid("RawScore", "not a number"))?,
                    )
                }
                "sources" => doc.sources = value.split_whitespace().map(str::to_string).collect(),
                "termstats" => {
                    doc.term_stats = value
                        .lines()
                        .filter(|l| !l.trim().is_empty())
                        .map(TermStatsEntry::decode)
                        .collect::<Result<_, _>>()?;
                }
                "docsize" => {
                    doc.doc_size_kb = value
                        .trim()
                        .parse()
                        .map_err(|_| ProtoError::invalid("DocSize", "not an integer"))?
                }
                "doccount" => {
                    doc.doc_count = value
                        .trim()
                        .parse()
                        .map_err(|_| ProtoError::invalid("DocCount", "not an integer"))?
                }
                _ => doc.fields.push((Field::parse(name), value.to_string())),
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

impl QueryResults {
    /// Encode the full result as a SOIF stream: one `@SQResults` object
    /// followed by one `@SQRDocument` per document (Example 8's layout).
    pub fn to_soif_stream(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.to_soif_stream_into(&mut out);
        out
    }

    /// Append the SOIF stream encoding to `out` — the buffer-reuse
    /// counterpart of [`QueryResults::to_soif_stream`] for hosts that
    /// encode one response per exchange into a recycled buffer.
    pub fn to_soif_stream_into(&self, out: &mut Vec<u8>) {
        write_object_into(&self.header_soif(), out);
        for d in &self.documents {
            out.push(b'\n');
            write_object_into(&d.to_soif(), out);
        }
    }

    /// The `@SQResults` header object alone.
    pub fn header_soif(&self) -> SoifObject {
        let mut o = SoifObject::new("SQResults");
        o.push_str(VERSION_ATTR, STARTS_VERSION);
        o.push_str("Sources", self.sources.join(" "));
        o.push_str(
            "ActualFilterExpression",
            self.actual_filter
                .as_ref()
                .map(print_filter)
                .unwrap_or_default(),
        );
        o.push_str(
            "ActualRankingExpression",
            self.actual_ranking
                .as_ref()
                .map(print_ranking)
                .unwrap_or_default(),
        );
        o.push_str("NumDocSOIFs", self.documents.len().to_string());
        // Extension attribute (§4.3): present only on traced exchanges,
        // so the paper's exact encodings are untouched otherwise.
        if let Some(profile) = &self.profile {
            o.push_str(PROFILE_ATTR, profile.encode());
        }
        o
    }

    /// Decode a SOIF stream produced by [`QueryResults::to_soif_stream`].
    pub fn from_soif_stream(bytes: &[u8]) -> Result<QueryResults, ProtoError> {
        let mut reader = SoifReader::new(bytes, starts_soif::ParseMode::Strict);
        let header = reader
            .next_object()?
            .ok_or_else(|| ProtoError::missing("SQResults", "(whole object)"))?;
        let mut results = Self::from_header(&header)?;
        while let Some(obj) = reader.next_object()? {
            results.documents.push(ResultDocument::from_soif(&obj)?);
        }
        Ok(results)
    }

    /// Decode just the header object.
    pub fn from_header(o: &SoifObject) -> Result<QueryResults, ProtoError> {
        if !o.template.eq_ignore_ascii_case("SQResults") {
            return Err(ProtoError::WrongTemplate {
                expected: "SQResults",
                found: o.template.clone(),
            });
        }
        let sources = o
            .get_str("Sources")
            .map(|v| v.split_whitespace().map(str::to_string).collect())
            .unwrap_or_default();
        let actual_filter = match o.get_str("ActualFilterExpression") {
            Some(s) if !s.trim().is_empty() => Some(parse_filter(s)?),
            _ => None,
        };
        let actual_ranking = match o.get_str("ActualRankingExpression") {
            Some(s) if !s.trim().is_empty() => Some(parse_ranking(s)?),
            _ => None,
        };
        Ok(QueryResults {
            sources,
            actual_filter,
            actual_ranking,
            documents: Vec::new(),
            // Lenient per §4.3: malformed extension data degrades to None.
            profile: o.get_str(PROFILE_ATTR).and_then(QueryProfile::decode),
        })
    }
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
        let e = TermStatsEntry::decode(line).unwrap();
        assert_eq!(e.term.modifiers, vec![Modifier::Stem]);
        assert_eq!(e.term_frequency, 3);
        assert_eq!(e.document_frequency, 17);
        // Round trip.
        assert_eq!(e.encode(), line);
    }

    #[test]
    fn term_stats_decode_bare_term() {
        let e = TermStatsEntry::decode(r#""databases" 5 0.1 9"#).unwrap();
        assert!(e.term.is_bare());
        assert_eq!(e.term_frequency, 5);
    }

    #[test]
    fn term_stats_bad_lines() {
        assert!(TermStatsEntry::decode("nonsense").is_err());
        assert!(TermStatsEntry::decode(r#"(title "x") 1 2"#).is_err());
        assert!(TermStatsEntry::decode(r#"(title "x") a 0.5 3"#).is_err());
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
