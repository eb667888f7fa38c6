//! The two "new" Basic-1 fields in action (§4.1.1):
//!
//! * **`Document-text`** — "provides a way to pass documents to the
//!   sources as part of the queries, which could be useful to do
//!   relevance feedback. Relevance feedback allows users to request
//!   documents that are similar to a document that was found useful."
//!   A supporting source treats the term's l-string as a whole document:
//!   it analyzes it with its own pipeline, keeps the most frequent
//!   informative words, and matches those.
//!
//! * **`Free-form-text`** — "provides a way to pass to the sources
//!   queries that are not expressed in our query language … so that
//!   informed metasearchers could use the sources' richer native query
//!   languages." Our sources' native language is Z39.50 PQF (they are,
//!   after all, the kind of engines ZDSR targeted): a supporting source
//!   parses the l-string as PQF and splices the resulting expression in.

use starts_index::{BoolNode, RankNode, TermSpec};
use starts_proto::query::{FilterExpr, QTerm, RankExpr};
use starts_proto::Field;
use starts_text::Analyzer;

use crate::translate::{translate_term, translate_weighted};

/// Maximum number of feedback terms extracted from a passed document.
pub const MAX_FEEDBACK_TERMS: usize = 8;

/// Extract the representative terms of a passed document: analyze with
/// the source's own pipeline (stop words eliminated), count occurrences,
/// keep the most frequent [`MAX_FEEDBACK_TERMS`] distinct words (ties
/// broken alphabetically for determinism).
pub fn feedback_terms(analyzer: &Analyzer, document_text: &str) -> Vec<String> {
    let mut counts: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
    for token in analyzer.analyze(document_text) {
        *counts.entry(token.term).or_insert(0) += 1;
    }
    let mut terms: Vec<(String, u32)> = counts.into_iter().collect();
    terms.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    terms.truncate(MAX_FEEDBACK_TERMS);
    terms.into_iter().map(|(t, _)| t).collect()
}

/// Is this term a `Document-text` term?
fn is_document_text(t: &QTerm) -> bool {
    t.effective_field() == Field::DocumentText
}

/// Is this term a `Free-form-text` term?
fn is_free_form(t: &QTerm) -> bool {
    t.effective_field() == Field::FreeFormText
}

/// Translate a (rewritten) filter expression to engine IR, honouring the
/// extension fields. `Document-text` terms become a disjunction of the
/// document's representative words; `Free-form-text` terms are parsed as
/// PQF and spliced. Unparseable free-form content matches nothing (the
/// protocol has no error channel).
pub fn translate_filter_ext(e: &FilterExpr, analyzer: &Analyzer) -> BoolNode {
    match e {
        FilterExpr::Term(t) if is_document_text(t) => {
            or_of_terms(&feedback_terms(analyzer, &t.value.text))
        }
        FilterExpr::Term(t) if is_free_form(t) => match starts_zdsr::from_pqf(&t.value.text) {
            Ok(native) => translate_filter_ext(&native, analyzer),
            Err(_) => impossible(),
        },
        FilterExpr::Term(t) => BoolNode::Term(translate_term(t)),
        FilterExpr::And(a, b) => BoolNode::and(
            translate_filter_ext(a, analyzer),
            translate_filter_ext(b, analyzer),
        ),
        FilterExpr::Or(a, b) => BoolNode::or(
            translate_filter_ext(a, analyzer),
            translate_filter_ext(b, analyzer),
        ),
        FilterExpr::AndNot(a, b) => BoolNode::and_not(
            translate_filter_ext(a, analyzer),
            translate_filter_ext(b, analyzer),
        ),
        FilterExpr::Prox(l, spec, r) => BoolNode::Prox {
            left: translate_term(l),
            right: translate_term(r),
            distance: spec.distance,
            ordered: spec.ordered,
        },
    }
}

/// Translate a (rewritten) ranking expression, honouring the extension
/// fields: a `Document-text` term becomes a `list` of the document's
/// representative words (the classic Rocchio-style expansion);
/// `Free-form-text` becomes the fuzzy interpretation of the parsed
/// native query.
pub fn translate_ranking_ext(e: &RankExpr, analyzer: &Analyzer) -> RankNode {
    match e {
        RankExpr::Term(wt) if is_document_text(&wt.term) => {
            let weight = wt.effective_weight();
            RankNode::List(
                feedback_terms(analyzer, &wt.term.value.text)
                    .into_iter()
                    .map(|term| RankNode::Term {
                        spec: TermSpec::any(term),
                        weight,
                    })
                    .collect(),
            )
        }
        RankExpr::Term(wt) if is_free_form(&wt.term) => {
            match starts_zdsr::from_pqf(&wt.term.value.text) {
                // Fuzzy-interpret the native Boolean query as a ranking
                // expression (the engine's Example 4 semantics).
                Ok(native) => bool_to_rank(&translate_filter_ext(&native, analyzer)),
                Err(_) => RankNode::List(Vec::new()),
            }
        }
        RankExpr::Term(wt) => translate_weighted(wt),
        RankExpr::List(items) => RankNode::List(
            items
                .iter()
                .map(|i| translate_ranking_ext(i, analyzer))
                .collect(),
        ),
        RankExpr::And(a, b) => RankNode::And(vec![
            translate_ranking_ext(a, analyzer),
            translate_ranking_ext(b, analyzer),
        ]),
        RankExpr::Or(a, b) => RankNode::Or(vec![
            translate_ranking_ext(a, analyzer),
            translate_ranking_ext(b, analyzer),
        ]),
        RankExpr::AndNot(a, b) => RankNode::AndNot(
            Box::new(translate_ranking_ext(a, analyzer)),
            Box::new(translate_ranking_ext(b, analyzer)),
        ),
        RankExpr::Prox(l, spec, r) => RankNode::Prox {
            left: Box::new(translate_weighted(l)),
            right: Box::new(translate_weighted(r)),
            distance: spec.distance,
            ordered: spec.ordered,
        },
    }
}

fn or_of_terms(terms: &[String]) -> BoolNode {
    let mut iter = terms
        .iter()
        .map(|t| BoolNode::Term(TermSpec::any(t.clone())));
    match iter.next() {
        Some(first) => iter.fold(first, BoolNode::or),
        None => impossible(),
    }
}

/// A node that matches nothing (the empty-term spec hits no vocabulary
/// entry).
fn impossible() -> BoolNode {
    BoolNode::Term(TermSpec::any(""))
}

/// Fuzzy reinterpretation of a Boolean IR node as a ranking node.
fn bool_to_rank(node: &BoolNode) -> RankNode {
    match node {
        BoolNode::Term(spec) => RankNode::Term {
            spec: spec.clone(),
            weight: 1.0,
        },
        BoolNode::And(a, b) => RankNode::And(vec![bool_to_rank(a), bool_to_rank(b)]),
        BoolNode::Or(a, b) => RankNode::Or(vec![bool_to_rank(a), bool_to_rank(b)]),
        BoolNode::AndNot(a, b) => {
            RankNode::AndNot(Box::new(bool_to_rank(a)), Box::new(bool_to_rank(b)))
        }
        BoolNode::Prox {
            left,
            right,
            distance,
            ordered,
        } => RankNode::Prox {
            left: Box::new(RankNode::Term {
                spec: left.clone(),
                weight: 1.0,
            }),
            right: Box::new(RankNode::Term {
                spec: right.clone(),
                weight: 1.0,
            }),
            distance: *distance,
            ordered: *ordered,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_text::{Analyzer, AnalyzerConfig};

    #[test]
    fn feedback_extracts_frequent_informative_words() {
        let analyzer = Analyzer::new(AnalyzerConfig::default()); // minimal stops
        let text = "the databases of databases are databases and replication \
                    replication with indexing";
        let terms = feedback_terms(&analyzer, text);
        assert_eq!(terms[0], "databases"); // tf 3
        assert_eq!(terms[1], "replication"); // tf 2
        assert!(terms.contains(&"indexing".to_string()));
        assert!(!terms.contains(&"the".to_string()), "stop words excluded");
    }

    #[test]
    fn feedback_caps_term_count() {
        let analyzer = Analyzer::new(AnalyzerConfig::default());
        let text = (0..40)
            .map(|i| format!("word{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(feedback_terms(&analyzer, &text).len(), MAX_FEEDBACK_TERMS);
    }

    #[test]
    fn feedback_deterministic_on_ties() {
        let analyzer = Analyzer::new(AnalyzerConfig::default());
        let a = feedback_terms(&analyzer, "zeta alpha beta gamma");
        let b = feedback_terms(&analyzer, "zeta alpha beta gamma");
        assert_eq!(a, b);
        // Alphabetical among equal-frequency terms.
        assert_eq!(a, vec!["alpha", "beta", "gamma", "zeta"]);
    }

    #[test]
    fn filter_tree_shape_preserved() {
        use starts_proto::query::parse_filter;
        let analyzer = Analyzer::new(AnalyzerConfig::default());
        let f = parse_filter(r#"((("a") or ("b")) and-not ("c" prox[2,F] "d"))"#).unwrap();
        let b = translate_filter_ext(&f, &analyzer);
        let BoolNode::AndNot(l, r) = b else { panic!() };
        assert!(matches!(*l, BoolNode::Or(_, _)));
        let BoolNode::Prox {
            distance, ordered, ..
        } = *r
        else {
            panic!()
        };
        assert_eq!(distance, 2);
        assert!(!ordered);
    }

    #[test]
    fn ranking_weights_pass_through() {
        use starts_proto::query::parse_ranking;
        let analyzer = Analyzer::new(AnalyzerConfig::default());
        let r = parse_ranking(r#"list(("x" 0.7) "y")"#).unwrap();
        let RankNode::List(items) = translate_ranking_ext(&r, &analyzer) else {
            panic!()
        };
        let RankNode::Term { weight, .. } = &items[0] else {
            panic!()
        };
        assert_eq!(*weight, 0.7);
        let RankNode::Term { weight, .. } = &items[1] else {
            panic!()
        };
        assert_eq!(*weight, 1.0);
    }

    #[test]
    fn free_form_pqf_parses_and_translates() {
        use starts_proto::query::parse_filter;
        let analyzer = Analyzer::new(AnalyzerConfig::default());
        let f =
            parse_filter(r#"(free-form-text "@and @attr 1=4 alpha @attr 1=1003 beta")"#).unwrap();
        let ir = translate_filter_ext(&f, &analyzer);
        let BoolNode::And(l, _) = ir else {
            panic!("expected the PQF @and to be spliced, got {ir:?}")
        };
        let BoolNode::Term(spec) = *l else { panic!() };
        assert_eq!(spec.field.as_deref(), Some("title"));
        assert_eq!(spec.term, "alpha");
    }

    #[test]
    fn malformed_free_form_matches_nothing() {
        use starts_proto::query::parse_filter;
        let analyzer = Analyzer::new(AnalyzerConfig::default());
        let f = parse_filter(r#"(free-form-text "this is not pqf @@@")"#).unwrap();
        // No panic, no error channel: a node that cannot match.
        let ir = translate_filter_ext(&f, &analyzer);
        assert!(matches!(ir, BoolNode::Term(_)));
    }
}
