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

use starts_soif::{SoifObject, STARTS_VERSION, VERSION_ATTR};
use starts_text::LangTag;

use crate::attrs::{Field, ATTRSET_BASIC1};
use crate::error::ProtoError;
use crate::trace::{TraceContext, TRACE_ATTR};

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
        let mut o = SoifObject::new("SQuery");
        o.push_str(VERSION_ATTR, STARTS_VERSION);
        if let Some(f) = &self.filter {
            o.push_str("FilterExpression", print_filter(f));
        }
        if let Some(r) = &self.ranking {
            o.push_str("RankingExpression", print_ranking(r));
        }
        o.push_str(
            "DropStopWords",
            if self.drop_stop_words { "T" } else { "F" },
        );
        o.push_str("DefaultAttributeSet", &self.default_attr_set);
        o.push_str("DefaultLanguage", self.default_language.to_string());
        if !self.additional_sources.is_empty() {
            o.push_str("AdditionalSources", self.additional_sources.join(" "));
        }
        let fields: Vec<&str> = self.answer.fields.iter().map(Field::name).collect();
        o.push_str("AnswerFields", fields.join(" "));
        if self.answer.sort_by != vec![SortKey::score_descending()] {
            o.push_str("SortByFields", encode_sort(&self.answer.sort_by));
        }
        if self.answer.min_doc_score.is_finite() {
            o.push_str("MinDocumentScore", fmt_weight(self.answer.min_doc_score));
        }
        if self.answer.max_documents != usize::MAX {
            o.push_str("MaxNumberDocuments", self.answer.max_documents.to_string());
        }
        // Extension attribute (§4.3): only present when tracing, so the
        // paper's exact encodings are untouched for untraced queries.
        if let Some(ctx) = &self.trace {
            o.push_str(TRACE_ATTR, ctx.encode());
        }
        o
    }

    /// Decode from an `@SQuery` SOIF object.
    pub fn from_soif(o: &SoifObject) -> Result<Query, ProtoError> {
        if !o.template.eq_ignore_ascii_case("SQuery") {
            return Err(ProtoError::WrongTemplate {
                expected: "SQuery",
                found: o.template.clone(),
            });
        }
        let mut q = Query::default();
        if let Some(src) = o.get_str("FilterExpression") {
            if !src.trim().is_empty() {
                q.filter = Some(parse_filter(src)?);
            }
        }
        if let Some(src) = o.get_str("RankingExpression") {
            if !src.trim().is_empty() {
                q.ranking = Some(parse_ranking(src)?);
            }
        }
        if let Some(v) = o.get_str("DropStopWords") {
            q.drop_stop_words = parse_bool("DropStopWords", v)?;
        }
        if let Some(v) = o.get_str("DefaultAttributeSet") {
            q.default_attr_set = v.to_string();
        }
        if let Some(v) = o.get_str("DefaultLanguage") {
            q.default_language = LangTag::parse(v)
                .map_err(|e| ProtoError::invalid("DefaultLanguage", e.to_string()))?;
        }
        if let Some(v) = o.get_str("AdditionalSources") {
            q.additional_sources = v.split_whitespace().map(str::to_string).collect();
        }
        if let Some(v) = o.get_str("AnswerFields") {
            q.answer.fields = v.split_whitespace().map(Field::parse).collect();
        }
        if let Some(v) = o.get_str("SortByFields") {
            q.answer.sort_by = decode_sort(v)?;
        }
        if let Some(v) = o.get_str("MinDocumentScore") {
            q.answer.min_doc_score = v
                .parse()
                .map_err(|_| ProtoError::invalid("MinDocumentScore", "not a number"))?;
        }
        if let Some(v) = o.get_str("MaxNumberDocuments") {
            q.answer.max_documents = v
                .parse()
                .map_err(|_| ProtoError::invalid("MaxNumberDocuments", "not an integer"))?;
        }
        // Lenient per §4.3: malformed trace context degrades to None.
        q.trace = o.get_str(TRACE_ATTR).and_then(TraceContext::decode);
        Ok(q)
    }
}

/// Encode sort keys: `score d` / `title a author d`.
fn encode_sort(keys: &[SortKey]) -> String {
    let mut parts = Vec::with_capacity(keys.len() * 2);
    for k in keys {
        parts.push(match &k.field {
            None => "score".to_string(),
            Some(f) => f.name().to_string(),
        });
        parts.push(match k.order {
            SortOrder::Ascending => "a".to_string(),
            SortOrder::Descending => "d".to_string(),
        });
    }
    parts.join(" ")
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
