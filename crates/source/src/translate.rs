//! Translation from protocol ASTs ([`starts_proto::query`]) to the engine
//! IR ([`starts_index`]).
//!
//! This is the boundary between "what STARTS says" and "what a concrete
//! engine executes": protocol fields become engine field names, protocol
//! modifiers become match specifications, weights pass through. The
//! walkers over whole filter and ranking expressions, which also honour
//! the extension fields, are [`crate::extensions::translate_filter_ext`]
//! and [`crate::extensions::translate_ranking_ext`].

use starts_index::{CmpOp as EngineCmp, RankNode, TermMatch, TermSpec};
use starts_proto::attrs::CmpOp;
use starts_proto::query::{QTerm, WeightedTerm};
use starts_proto::{Field, Modifier};

/// Translate a protocol term to an engine term spec.
pub fn translate_term(t: &QTerm) -> TermSpec {
    let field = match t.effective_field() {
        Field::Any => None,
        f => Some(f.name().to_string()),
    };
    let mut spec = TermSpec {
        field,
        term: t.value.text.clone(),
        matches: Vec::new(),
        cmp: None,
    };
    for m in &t.modifiers {
        match m {
            Modifier::Cmp(op) => spec.cmp = Some(translate_cmp(*op)),
            Modifier::Stem => spec.matches.push(TermMatch::Stem),
            Modifier::Phonetic => spec.matches.push(TermMatch::Phonetic),
            Modifier::Thesaurus => spec.matches.push(TermMatch::Thesaurus),
            Modifier::RightTruncation => spec.matches.push(TermMatch::RightTrunc),
            Modifier::LeftTruncation => spec.matches.push(TermMatch::LeftTrunc),
            Modifier::CaseSensitive => spec.matches.push(TermMatch::CaseSensitive),
            // Modifiers from other attribute sets have no engine
            // equivalent; the rewrite stage should have removed them, and
            // an engine that still sees one "freely interprets" it as
            // absent.
            Modifier::Other(_) => {}
        }
    }
    spec
}

fn translate_cmp(op: CmpOp) -> EngineCmp {
    match op {
        CmpOp::Lt => EngineCmp::Lt,
        CmpOp::Le => EngineCmp::Le,
        CmpOp::Eq => EngineCmp::Eq,
        CmpOp::Ge => EngineCmp::Ge,
        CmpOp::Gt => EngineCmp::Gt,
        CmpOp::Ne => EngineCmp::Ne,
    }
}

/// Translate a weighted ranking term to a ranking leaf.
pub(crate) fn translate_weighted(t: &WeightedTerm) -> RankNode {
    RankNode::Term {
        spec: translate_term(&t.term),
        weight: t.effective_weight(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_proto::query::{parse_filter, FilterExpr};

    #[test]
    fn term_translation() {
        let f = parse_filter(r#"(title stem "databases")"#).unwrap();
        let FilterExpr::Term(t) = &f else { panic!() };
        let spec = translate_term(t);
        assert_eq!(spec.field.as_deref(), Some("title"));
        assert_eq!(spec.term, "databases");
        assert_eq!(spec.matches, vec![TermMatch::Stem]);
        assert_eq!(spec.cmp, None);
    }

    #[test]
    fn any_field_translates_to_none() {
        let f = parse_filter(r#""databases""#).unwrap();
        let FilterExpr::Term(t) = &f else { panic!() };
        assert_eq!(translate_term(t).field, None);
    }

    #[test]
    fn cmp_translation() {
        let f = parse_filter(r#"(date-last-modified >= "1996-01-01")"#).unwrap();
        let FilterExpr::Term(t) = &f else { panic!() };
        let spec = translate_term(t);
        assert_eq!(spec.cmp, Some(EngineCmp::Ge));
        assert!(spec.matches.is_empty());
    }

    #[test]
    fn other_modifier_silently_ignored() {
        let f = parse_filter(r#"(title fuzzy "x")"#).unwrap();
        let FilterExpr::Term(t) = &f else { panic!() };
        assert!(translate_term(t).matches.is_empty());
    }
}
