//! Complete STARTS queries (§4.1.2): filter + ranking expressions plus
//! the result-specification properties, with `@SQuery` SOIF bindings
//! (Example 6).

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod printer;

pub use ast::{FilterExpr, ProxSpec, QTerm, RankExpr, WeightedTerm};
pub use parser::{parse_filter, parse_ranking};
pub use printer::{fmt_weight, print_filter, print_ranking, print_term, print_weighted};
pub(crate) use printer::{write_filter, write_ranking, write_term, write_weight};

use std::fmt::Write as _;

use starts_soif::{AttrSink, ParseMode, SoifObject, SoifWriter, STARTS_VERSION, VERSION_ATTR};
use starts_text::LangTag;

use crate::attrs::{Field, ATTRSET_BASIC1};
use crate::codec::{decode_one, expect_template, object_attrs, push_joined, Attrs, FirstWins};
use crate::error::ProtoError;
use crate::trace::{TraceContext, TRACE_ATTR};

pub(crate) const SQUERY: &str = "SQuery";

/// The `@SQuery` attributes a decoder reads; the first value of each
/// wins.
const QUERY_ATTRS: &[&str] = &[
    "FilterExpression",
    "RankingExpression",
    "DropStopWords",
    "DefaultAttributeSet",
    "DefaultLanguage",
    "AdditionalSources",
    "AnswerFields",
    "SortByFields",
    "MinDocumentScore",
    "MaxNumberDocuments",
    TRACE_ATTR,
];

/// Sort direction for answer specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// `a`
    Ascending,
    /// `d`
    Descending,
}

/// One sort key: by a field, or by document score (`None`).
/// Default: "Score of the documents for the query, in descending order."
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// `None` = the document score.
    pub field: Option<Field>,
    /// Direction.
    pub order: SortOrder,
}

impl SortKey {
    /// The default sort: score, descending.
    pub fn score_descending() -> Self {
        SortKey {
            field: None,
            order: SortOrder::Descending,
        }
    }
}

/// The answer specification of §4.1.2.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerSpec {
    /// Fields to return (default: Title; Linkage "is always returned").
    pub fields: Vec<Field>,
    /// Sort keys (default: score descending).
    pub sort_by: Vec<SortKey>,
    /// Minimum acceptable document score (default: unbounded).
    pub min_doc_score: f64,
    /// Maximum acceptable number of documents (default: unbounded).
    pub max_documents: usize,
}

impl Default for AnswerSpec {
    fn default() -> Self {
        AnswerSpec {
            fields: vec![Field::Title],
            sort_by: vec![SortKey::score_descending()],
            min_doc_score: f64::NEG_INFINITY,
            max_documents: usize::MAX,
        }
    }
}

/// A complete STARTS query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The Boolean component ("specifies some condition that must be
    /// satisfied by every document in the query result").
    pub filter: Option<FilterExpr>,
    /// The vector-space component ("imposes an order over the documents
    /// in the query result").
    pub ranking: Option<RankExpr>,
    /// "Whether the source should delete the stop words from the query
    /// or not."
    pub drop_stop_words: bool,
    /// Default attribute set (notational convenience; default
    /// `basic-1`).
    pub default_attr_set: String,
    /// Default language for unqualified l-strings (default `en-US`).
    pub default_language: LangTag,
    /// "Sources (in the same resource) where to evaluate the query in
    /// addition to the source where the query is submitted" (Figure 1).
    pub additional_sources: Vec<String>,
    /// The answer specification.
    pub answer: AnswerSpec,
    /// Optional trace context (§4.3 extension attribute
    /// `XTraceContext`); sources answer it with an `XQueryProfile` on
    /// `@SQResults` and may use it to parent their spans under the
    /// metasearcher's dispatch.
    pub trace: Option<TraceContext>,
}

impl Default for Query {
    fn default() -> Self {
        Query {
            filter: None,
            ranking: None,
            drop_stop_words: true,
            default_attr_set: ATTRSET_BASIC1.to_string(),
            default_language: LangTag::en_us(),
            additional_sources: Vec::new(),
            answer: AnswerSpec::default(),
            trace: None,
        }
    }
}

impl Query {
    /// A query with only a filter expression (the Boolean model).
    pub fn filter_only(filter: FilterExpr) -> Self {
        Query {
            filter: Some(filter),
            ..Query::default()
        }
    }

    /// A query with only a ranking expression (the vector-space model).
    pub fn ranking_only(ranking: RankExpr) -> Self {
        Query {
            ranking: Some(ranking),
            ..Query::default()
        }
    }

    /// All terms mentioned anywhere in the query.
    pub fn all_terms(&self) -> Vec<&QTerm> {
        let mut out: Vec<&QTerm> = Vec::new();
        if let Some(f) = &self.filter {
            out.extend(f.terms());
        }
        if let Some(r) = &self.ranking {
            out.extend(r.terms().into_iter().map(|wt| &wt.term));
        }
        out
    }

    /// Encode as an `@SQuery` SOIF object, attribute order per Example 6.
    pub fn to_soif(&self) -> SoifObject {
        let mut o = SoifObject::new(SQUERY);
        self.encode(self.trace.as_ref(), &mut o);
        o
    }

    /// Append the wire form of the `@SQuery` object to `out`, carrying
    /// `trace` as its trace context instead of the query's own: the bytes
    /// `to_soif()` gives for a copy of the query holding `trace`, written
    /// without the copy or the object.
    pub fn write_soif_into(&self, trace: Option<&TraceContext>, out: &mut Vec<u8>) {
        SoifWriter::new(out).object(SQUERY, |w| self.encode(trace, w));
    }

    /// Decode from an `@SQuery` SOIF object.
    pub fn from_soif(o: &SoifObject) -> Result<Query, ProtoError> {
        expect_template(&o.template, SQUERY)?;
        Self::decode(object_attrs(o))
    }

    /// Decode the one `@SQuery` object that `bytes` hold — what
    /// [`starts_soif::parse_one`] and [`Query::from_soif`] accept, read in
    /// place.
    pub fn from_soif_bytes(bytes: &[u8], mode: ParseMode) -> Result<Query, ProtoError> {
        decode_one(bytes, mode, SQUERY, |r| Self::decode(r.attrs()))
    }

    fn encode(&self, trace: Option<&TraceContext>, sink: &mut impl AttrSink) {
        sink.attr(VERSION_ATTR, STARTS_VERSION.as_bytes());
        if let Some(f) = &self.filter {
            sink.attr_fmt("FilterExpression", |v| write_filter(v, f));
        }
        if let Some(r) = &self.ranking {
            sink.attr_fmt("RankingExpression", |v| write_ranking(v, r));
        }
        let drop_stop_words: &[u8] = if self.drop_stop_words { b"T" } else { b"F" };
        sink.attr("DropStopWords", drop_stop_words);
        sink.attr("DefaultAttributeSet", self.default_attr_set.as_bytes());
        sink.attr_fmt("DefaultLanguage", |v| {
            let _ = write!(v, "{}", self.default_language);
        });
        if !self.additional_sources.is_empty() {
            sink.attr_fmt("AdditionalSources", |v| {
                push_joined(v, self.additional_sources.iter().map(String::as_str))
            });
        }
        sink.attr_fmt("AnswerFields", |v| {
            push_joined(v, self.answer.fields.iter().map(Field::name))
        });
        if self.answer.sort_by.as_slice() != [SortKey::score_descending()] {
            sink.attr_fmt("SortByFields", |v| write_sort(v, &self.answer.sort_by));
        }
        if self.answer.min_doc_score.is_finite() {
            let score = self.answer.min_doc_score;
            sink.attr_fmt("MinDocumentScore", |v| write_weight(v, score));
        }
        if self.answer.max_documents != usize::MAX {
            sink.attr_fmt("MaxNumberDocuments", |v| {
                let _ = write!(v, "{}", self.answer.max_documents);
            });
        }
        // Extension attribute (§4.3): only present when tracing, so the
        // paper's exact encodings are untouched for untraced queries.
        if let Some(ctx) = trace {
            sink.attr_fmt(TRACE_ATTR, |v| ctx.encode_into(v));
        }
    }

    /// A first value that is not UTF-8 counts as absent.
    pub(crate) fn decode<'a>(attrs: impl Attrs<'a>) -> Result<Query, ProtoError> {
        let mut q = Query::default();
        let mut first = FirstWins::new(QUERY_ATTRS);
        for attr in attrs {
            let (name, value) = attr?;
            let Some(attr) = first.claim(name) else {
                continue;
            };
            let Ok(v) = std::str::from_utf8(value) else {
                continue;
            };
            let empty = v.trim().is_empty();
            match attr {
                "FilterExpression" if !empty => q.filter = Some(parse_filter(v)?),
                "RankingExpression" if !empty => q.ranking = Some(parse_ranking(v)?),
                "DropStopWords" => q.drop_stop_words = parse_bool("DropStopWords", v)?,
                "DefaultAttributeSet" => q.default_attr_set = v.to_string(),
                "DefaultLanguage" => {
                    q.default_language = LangTag::parse(v)
                        .map_err(|e| ProtoError::invalid("DefaultLanguage", e.to_string()))?;
                }
                "AdditionalSources" => {
                    q.additional_sources = v.split_whitespace().map(str::to_string).collect();
                }
                "AnswerFields" => {
                    q.answer.fields = v.split_whitespace().map(Field::parse).collect()
                }
                "SortByFields" => q.answer.sort_by = decode_sort(v)?,
                "MinDocumentScore" => {
                    q.answer.min_doc_score = v
                        .parse()
                        .map_err(|_| ProtoError::invalid("MinDocumentScore", "not a number"))?;
                }
                "MaxNumberDocuments" => {
                    q.answer.max_documents = v
                        .parse()
                        .map_err(|_| ProtoError::invalid("MaxNumberDocuments", "not an integer"))?;
                }
                // Lenient per §4.3: malformed trace context degrades to None.
                TRACE_ATTR => q.trace = TraceContext::decode(v),
                _ => {}
            }
        }
        Ok(q)
    }
}

/// Encode sort keys: `score d` / `title a author d`.
fn write_sort(out: &mut String, keys: &[SortKey]) {
    let words = keys.iter().flat_map(|k| {
        let field = k.field.as_ref().map_or("score", Field::name);
        let order = match k.order {
            SortOrder::Ascending => "a",
            SortOrder::Descending => "d",
        };
        [field, order]
    });
    push_joined(out, words);
}

fn decode_sort(s: &str) -> Result<Vec<SortKey>, ProtoError> {
    let parts: Vec<&str> = s.split_whitespace().collect();
    if !parts.len().is_multiple_of(2) {
        return Err(ProtoError::invalid(
            "SortByFields",
            "expected pairs of field and direction",
        ));
    }
    parts
        .chunks(2)
        .map(|pair| {
            let field = if pair[0].eq_ignore_ascii_case("score") {
                None
            } else {
                Some(Field::parse(pair[0]))
            };
            let order = match pair[1] {
                "a" | "A" => SortOrder::Ascending,
                "d" | "D" => SortOrder::Descending,
                other => {
                    return Err(ProtoError::invalid(
                        "SortByFields",
                        format!("bad direction {other:?}"),
                    ))
                }
            };
            Ok(SortKey { field, order })
        })
        .collect()
}

pub(crate) fn parse_bool(attr: &str, v: &str) -> Result<bool, ProtoError> {
    match v.trim() {
        "T" | "t" | "true" => Ok(true),
        "F" | "f" | "false" => Ok(false),
        other => Err(ProtoError::invalid(
            attr,
            format!("expected T or F, got {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_soif::{parse_one, write_object, ParseMode};

    fn example6_query() -> Query {
        Query {
            filter: Some(
                parse_filter(r#"((author "Ullman") and (title stem "databases"))"#).unwrap(),
            ),
            ranking: Some(
                parse_ranking(r#"list((body-of-text "distributed") (body-of-text "databases"))"#)
                    .unwrap(),
            ),
            drop_stop_words: true,
            default_attr_set: "basic-1".to_string(),
            default_language: LangTag::en_us(),
            additional_sources: vec![],
            answer: AnswerSpec {
                fields: vec![Field::Title, Field::Author],
                sort_by: vec![SortKey::score_descending()],
                min_doc_score: 0.5,
                max_documents: 10,
            },
            trace: None,
        }
    }

    /// The paper's Example 6, byte for byte (modulo the LaTeX quoting of
    /// the printed paper; see EXPERIMENTS.md X5).
    #[test]
    fn example6_exact_soif_encoding() {
        let q = example6_query();
        let encoded = String::from_utf8(write_object(&q.to_soif())).unwrap();
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
        assert_eq!(encoded, expected);
    }

    #[test]
    fn soif_round_trip() {
        let q = example6_query();
        let bytes = write_object(&q.to_soif());
        let parsed = parse_one(&bytes, ParseMode::Strict).unwrap();
        let back = Query::from_soif(&parsed).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn defaults_round_trip() {
        let q = Query::default();
        let bytes = write_object(&q.to_soif());
        let back = Query::from_soif(&parse_one(&bytes, ParseMode::Strict).unwrap()).unwrap();
        assert_eq!(back, q);
        // Defaults omit the optional attributes.
        let text = String::from_utf8(bytes).unwrap();
        assert!(!text.contains("MinDocumentScore"));
        assert!(!text.contains("MaxNumberDocuments"));
        assert!(!text.contains("SortByFields"));
        assert!(!text.contains("AdditionalSources"));
    }

    #[test]
    fn additional_sources_encode() {
        let q = Query {
            additional_sources: vec!["Source-2".to_string(), "Source-3".to_string()],
            ..Query::default()
        };
        let o = q.to_soif();
        assert_eq!(o.get_str("AdditionalSources"), Some("Source-2 Source-3"));
        let back = Query::from_soif(&o).unwrap();
        assert_eq!(back.additional_sources, q.additional_sources);
    }

    #[test]
    fn sort_keys_encode() {
        let q = Query {
            answer: AnswerSpec {
                sort_by: vec![
                    SortKey {
                        field: Some(Field::Title),
                        order: SortOrder::Ascending,
                    },
                    SortKey::score_descending(),
                ],
                ..AnswerSpec::default()
            },
            ..Query::default()
        };
        let o = q.to_soif();
        assert_eq!(o.get_str("SortByFields"), Some("title a score d"));
        let back = Query::from_soif(&o).unwrap();
        assert_eq!(back.answer.sort_by, q.answer.sort_by);
    }

    #[test]
    fn wrong_template_rejected() {
        let o = SoifObject::new("SQResults");
        assert!(matches!(
            Query::from_soif(&o),
            Err(ProtoError::WrongTemplate { .. })
        ));
    }

    #[test]
    fn bad_values_rejected() {
        let mut o = Query::default().to_soif();
        o.push_str("MaxNumberDocuments", "many");
        assert!(Query::from_soif(&o).is_err());
        let mut o = Query::default().to_soif();
        o.push_str("SortByFields", "title");
        assert!(Query::from_soif(&o).is_err());
        assert!(parse_bool("X", "yes").is_err());
    }

    #[test]
    fn empty_expressions_decode_to_none() {
        let mut o = SoifObject::new("SQuery");
        o.push_str("FilterExpression", "");
        o.push_str("RankingExpression", "  ");
        let q = Query::from_soif(&o).unwrap();
        assert!(q.filter.is_none());
        assert!(q.ranking.is_none());
    }

    #[test]
    fn trace_context_rides_as_extension_attribute() {
        use crate::trace::TraceContext;
        let q = Query {
            trace: Some(TraceContext {
                query_id: "q-000001".to_string(),
                parent_path: "meta.search/dispatch/source".to_string(),
                parent_span_id: 17,
            }),
            ..Query::default()
        };
        let o = q.to_soif();
        assert_eq!(
            o.get_str(TRACE_ATTR),
            Some("q-000001 17 meta.search/dispatch/source")
        );
        let bytes = write_object(&o);
        let back = Query::from_soif(&parse_one(&bytes, ParseMode::Strict).unwrap()).unwrap();
        assert_eq!(back, q);
        // A garbage value degrades to None instead of failing (§4.3).
        let mut o = Query::default().to_soif();
        o.push_str(TRACE_ATTR, "not a valid context at all ???");
        let back = Query::from_soif(&o).unwrap();
        // "not" "a" "valid..." — second token must be a u64.
        assert!(back.trace.is_none());
    }

    #[test]
    fn all_terms_spans_both_expressions() {
        let q = example6_query();
        let terms = q.all_terms();
        assert_eq!(terms.len(), 4);
        assert_eq!(terms[0].value.text, "Ullman");
        assert_eq!(terms[3].value.text, "databases");
    }
}
