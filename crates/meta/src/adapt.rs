//! Client-side query adaptation (§3.1; refs [3, 4]).
//!
//! A STARTS source already rewrites what it cannot execute and reports
//! the actual query — but a *good* metasearcher adapts the query per
//! source first, preserving intent instead of losing terms:
//!
//! * a Boolean-only source (`QueryPartsSupported: F`) gets the ranking
//!   terms folded into the filter as a disjunction;
//! * a ranking-only source (`R`) gets the filter terms folded into the
//!   ranking expression;
//! * unsupported *modifiers* are compensated where possible — a `stem`
//!   modifier for a non-stemming source is expanded client-side into a
//!   disjunction of known surface forms from the source's own content
//!   summary.
//!
//! The deliberately bad baseline, [`least_common_denominator`], strips
//! every query to what *all* sources support — §4.1.1's warning about
//! metasearchers whose "interface tends to be the least common
//! denominator of that of the underlying sources".

use starts_proto::metadata::SourceMetadata;
use starts_proto::query::{FilterExpr, QTerm, RankExpr, WeightedTerm};
use starts_proto::summary::ContentSummary;
use starts_proto::{Modifier, Query};

/// Adapt a query to one source, using its metadata and content summary.
pub fn adapt_query(query: &Query, metadata: &SourceMetadata, summary: &ContentSummary) -> Query {
    let mut q = query.clone();
    // Expand stem modifiers the source cannot honour, using its summary.
    if !metadata.supports_modifier(&Modifier::Stem) {
        if let Some(f) = &q.filter {
            q.filter = Some(expand_stems_filter(f, summary));
        }
        if let Some(r) = &q.ranking {
            q.ranking = Some(expand_stems_ranking(r, summary));
        }
    }
    // Fold across query-part boundaries.
    let parts = metadata.query_parts_supported;
    if !parts.supports_ranking() {
        if let Some(r) = q.ranking.take() {
            let folded = ranking_to_filter(&r);
            q.filter = match (q.filter.take(), folded) {
                (Some(f), Some(extra)) => Some(FilterExpr::and(f, extra)),
                (None, Some(extra)) => Some(extra),
                (f, None) => f,
            };
        }
    }
    if !parts.supports_filter() {
        if let Some(f) = q.filter.take() {
            let folded = filter_to_ranking(&f);
            q.ranking = match (q.ranking.take(), folded) {
                (Some(r), Some(extra)) => Some(RankExpr::List(vec![r, extra])),
                (None, Some(extra)) => Some(extra),
                (r, None) => r,
            };
        }
    }
    q
}

/// Fold a ranking expression into a Boolean filter: the terms become a
/// disjunction (any desired term may match; the client re-ranks later).
fn ranking_to_filter(r: &RankExpr) -> Option<FilterExpr> {
    let terms = r.terms();
    let mut iter = terms.iter().map(|wt| FilterExpr::Term(strip_weight(wt)));
    let first = iter.next()?;
    Some(iter.fold(first, FilterExpr::or))
}

fn strip_weight(wt: &WeightedTerm) -> QTerm {
    wt.term.clone()
}

/// Fold a filter into a ranking expression: conjunctions become fuzzy
/// `and`s so the source's scoring still prefers documents matching more
/// of the original condition.
fn filter_to_ranking(f: &FilterExpr) -> Option<RankExpr> {
    match f {
        FilterExpr::Term(t) => Some(RankExpr::Term(WeightedTerm::plain(t.clone()))),
        FilterExpr::And(a, b) => combine(filter_to_ranking(a), filter_to_ranking(b), |a, b| {
            RankExpr::And(Box::new(a), Box::new(b))
        }),
        FilterExpr::Or(a, b) => combine(filter_to_ranking(a), filter_to_ranking(b), |a, b| {
            RankExpr::Or(Box::new(a), Box::new(b))
        }),
        FilterExpr::AndNot(a, b) => combine(filter_to_ranking(a), filter_to_ranking(b), |a, b| {
            RankExpr::AndNot(Box::new(a), Box::new(b))
        }),
        FilterExpr::Prox(l, spec, r) => Some(RankExpr::Prox(
            WeightedTerm::plain(l.clone()),
            *spec,
            WeightedTerm::plain(r.clone()),
        )),
    }
}

fn combine<T>(a: Option<T>, b: Option<T>, f: impl FnOnce(T, T) -> T) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(f(a, b)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

/// Expand `stem` modifiers into disjunctions of surface forms found in
/// the source's own content summary (so the expansion only contains
/// words the source actually indexes).
fn stem_variants(term: &QTerm, summary: &ContentSummary) -> Vec<QTerm> {
    let stem = starts_text::porter_stem(&term.value.text);
    let field = match term.effective_field() {
        starts_proto::Field::Any => None,
        f => Some(f.name().to_string()),
    };
    let mut variants: Vec<String> = Vec::new();
    for section in &summary.sections {
        if let (Some(want), Some(have)) = (&field, &section.field) {
            if !have.eq_ignore_ascii_case(want) {
                continue;
            }
        }
        for t in &section.terms {
            if starts_text::porter_stem(&t.term) == stem && !variants.contains(&t.term) {
                variants.push(t.term.clone());
            }
        }
    }
    if variants.is_empty() {
        variants.push(term.value.text.clone());
    }
    variants
        .into_iter()
        .map(|text| QTerm {
            field: term.field.clone(),
            modifiers: term
                .modifiers
                .iter()
                .filter(|m| !matches!(m, Modifier::Stem))
                .cloned()
                .collect(),
            value: starts_proto::LString {
                lang: term.value.lang.clone(),
                text,
            },
        })
        .collect()
}

fn expand_stems_filter(f: &FilterExpr, summary: &ContentSummary) -> FilterExpr {
    match f {
        FilterExpr::Term(t) if t.modifiers.contains(&Modifier::Stem) => {
            let variants = stem_variants(t, summary);
            let mut iter = variants.into_iter().map(FilterExpr::Term);
            let first = iter.next().expect("at least the original term");
            iter.fold(first, FilterExpr::or)
        }
        FilterExpr::Term(_) => f.clone(),
        FilterExpr::And(a, b) => FilterExpr::and(
            expand_stems_filter(a, summary),
            expand_stems_filter(b, summary),
        ),
        FilterExpr::Or(a, b) => FilterExpr::or(
            expand_stems_filter(a, summary),
            expand_stems_filter(b, summary),
        ),
        FilterExpr::AndNot(a, b) => FilterExpr::and_not(
            expand_stems_filter(a, summary),
            expand_stems_filter(b, summary),
        ),
        // Prox operands must stay terms; keep the first variant.
        FilterExpr::Prox(l, spec, r) => {
            let l2 = stem_variants(l, summary)
                .into_iter()
                .next()
                .expect("nonempty");
            let r2 = stem_variants(r, summary)
                .into_iter()
                .next()
                .expect("nonempty");
            FilterExpr::Prox(l2, *spec, r2)
        }
    }
}

fn expand_stems_ranking(r: &RankExpr, summary: &ContentSummary) -> RankExpr {
    match r {
        RankExpr::Term(wt) if wt.term.modifiers.contains(&Modifier::Stem) => {
            let items: Vec<RankExpr> = stem_variants(&wt.term, summary)
                .into_iter()
                .map(|t| {
                    RankExpr::Term(WeightedTerm {
                        term: t,
                        weight: wt.weight,
                    })
                })
                .collect();
            if items.len() == 1 {
                items.into_iter().next().expect("len checked")
            } else {
                RankExpr::List(items)
            }
        }
        RankExpr::Term(_) => r.clone(),
        RankExpr::List(items) => RankExpr::List(
            items
                .iter()
                .map(|i| expand_stems_ranking(i, summary))
                .collect(),
        ),
        RankExpr::And(a, b) => RankExpr::And(
            Box::new(expand_stems_ranking(a, summary)),
            Box::new(expand_stems_ranking(b, summary)),
        ),
        RankExpr::Or(a, b) => RankExpr::Or(
            Box::new(expand_stems_ranking(a, summary)),
            Box::new(expand_stems_ranking(b, summary)),
        ),
        RankExpr::AndNot(a, b) => RankExpr::AndNot(
            Box::new(expand_stems_ranking(a, summary)),
            Box::new(expand_stems_ranking(b, summary)),
        ),
        RankExpr::Prox(l, spec, rr) => RankExpr::Prox(l.clone(), *spec, rr.clone()),
    }
}

/// The least-common-denominator baseline: keep only the features *every*
/// source supports. Terms with any field or modifier outside the common
/// capability set are dropped; if any source is filter-only or
/// ranking-only, the other query part is dropped for everyone.
pub fn least_common_denominator(query: &Query, all_metadata: &[&SourceMetadata]) -> Query {
    if all_metadata.is_empty() {
        return query.clone();
    }
    let mut q = query.clone();
    if !all_metadata
        .iter()
        .all(|m| m.query_parts_supported.supports_filter())
    {
        q.filter = None;
    }
    if !all_metadata
        .iter()
        .all(|m| m.query_parts_supported.supports_ranking())
    {
        q.ranking = None;
    }
    let term_ok = |t: &QTerm| {
        all_metadata.iter().all(|m| {
            m.supports_field(&t.effective_field())
                && t.modifiers.iter().all(|mo| m.supports_modifier(mo))
        })
    };
    q.filter = q.filter.as_ref().and_then(|f| lcd_filter(f, &term_ok));
    q.ranking = q.ranking.as_ref().and_then(|r| lcd_ranking(r, &term_ok));
    q
}

fn lcd_filter(f: &FilterExpr, ok: &impl Fn(&QTerm) -> bool) -> Option<FilterExpr> {
    match f {
        FilterExpr::Term(t) => ok(t).then(|| f.clone()),
        FilterExpr::And(a, b) => merge2(lcd_filter(a, ok), lcd_filter(b, ok), FilterExpr::and),
        FilterExpr::Or(a, b) => merge2(lcd_filter(a, ok), lcd_filter(b, ok), FilterExpr::or),
        FilterExpr::AndNot(a, b) => match (lcd_filter(a, ok), lcd_filter(b, ok)) {
            (Some(a), Some(b)) => Some(FilterExpr::and_not(a, b)),
            (Some(a), None) => Some(a),
            _ => None,
        },
        FilterExpr::Prox(l, spec, r) => match (ok(l), ok(r)) {
            (true, true) => Some(FilterExpr::Prox(l.clone(), *spec, r.clone())),
            (true, false) => Some(FilterExpr::Term(l.clone())),
            (false, true) => Some(FilterExpr::Term(r.clone())),
            _ => None,
        },
    }
}

fn lcd_ranking(r: &RankExpr, ok: &impl Fn(&QTerm) -> bool) -> Option<RankExpr> {
    let kept: Vec<RankExpr> = r
        .terms()
        .into_iter()
        .filter(|wt| ok(&wt.term))
        .map(|wt| RankExpr::Term(wt.clone()))
        .collect();
    if kept.is_empty() {
        None
    } else {
        Some(RankExpr::List(kept))
    }
}

fn merge2<T>(a: Option<T>, b: Option<T>, f: impl FnOnce(T, T) -> T) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(f(a, b)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_proto::metadata::QueryParts;
    use starts_proto::query::{parse_filter, parse_ranking, print_filter, print_ranking};
    use starts_proto::summary::{SummarySection, TermSummary};
    use starts_proto::Field;

    fn meta(parts: QueryParts) -> SourceMetadata {
        SourceMetadata {
            source_id: "S".to_string(),
            query_parts_supported: parts,
            fields_supported: vec![(Field::Author, vec![]), (Field::BodyOfText, vec![])],
            modifiers_supported: vec![(Modifier::Stem, vec![])],
            ..SourceMetadata::default()
        }
    }

    fn empty_summary() -> ContentSummary {
        ContentSummary {
            num_docs: 1,
            ..ContentSummary::default()
        }
    }

    #[test]
    fn boolean_only_source_gets_or_filter() {
        let q = Query {
            filter: Some(parse_filter(r#"(author "Ullman")"#).unwrap()),
            ranking: Some(parse_ranking(r#"list("distributed" "databases")"#).unwrap()),
            ..Query::default()
        };
        let adapted = adapt_query(&q, &meta(QueryParts::Filter), &empty_summary());
        assert!(adapted.ranking.is_none());
        assert_eq!(
            print_filter(adapted.filter.as_ref().unwrap()),
            r#"((author "Ullman") and ("distributed" or "databases"))"#
        );
    }

    #[test]
    fn ranking_only_source_gets_fuzzy_filter_terms() {
        let q = Query {
            filter: Some(parse_filter(r#"((author "Ullman") and ("databases"))"#).unwrap()),
            ranking: None,
            ..Query::default()
        };
        let adapted = adapt_query(&q, &meta(QueryParts::Ranking), &empty_summary());
        assert!(adapted.filter.is_none());
        assert_eq!(
            print_ranking(adapted.ranking.as_ref().unwrap()),
            r#"((author "Ullman") and "databases")"#
        );
    }

    #[test]
    fn stem_expansion_from_summary() {
        let summary = ContentSummary {
            num_docs: 10,
            sections: vec![SummarySection {
                field: Some("body-of-text".to_string()),
                language: None,
                terms: ["database", "databases", "data"]
                    .iter()
                    .map(|t| TermSummary {
                        term: (*t).to_string(),
                        total_postings: Some(1),
                        doc_freq: Some(1),
                    })
                    .collect(),
            }],
            ..ContentSummary::default()
        };
        // A source WITHOUT stem support gets the expansion.
        let mut m = meta(QueryParts::Both);
        m.modifiers_supported.clear();
        let q = Query::filter_only(parse_filter(r#"(body-of-text stem "databases")"#).unwrap());
        let adapted = adapt_query(&q, &m, &summary);
        let printed = print_filter(adapted.filter.as_ref().unwrap());
        assert!(
            printed.contains(r#"(body-of-text "database")"#),
            "{printed}"
        );
        assert!(
            printed.contains(r#"(body-of-text "databases")"#),
            "{printed}"
        );
        assert!(!printed.contains("stem"), "{printed}");
        assert!(!printed.contains(r#""data""#), "different stem: {printed}");
        // A source WITH stem support keeps the modifier untouched.
        let adapted = adapt_query(&q, &meta(QueryParts::Both), &summary);
        assert_eq!(
            print_filter(adapted.filter.as_ref().unwrap()),
            r#"(body-of-text stem "databases")"#
        );
    }

    #[test]
    fn lcd_drops_ranking_if_any_source_lacks_it() {
        let q = Query {
            filter: Some(parse_filter(r#"(author "Ullman")"#).unwrap()),
            ranking: Some(parse_ranking(r#"list("databases")"#).unwrap()),
            ..Query::default()
        };
        let m1 = meta(QueryParts::Both);
        let m2 = meta(QueryParts::Filter);
        let lcd = least_common_denominator(&q, &[&m1, &m2]);
        assert!(lcd.ranking.is_none(), "LCD must drop ranking");
        assert!(lcd.filter.is_some());
    }

    #[test]
    fn lcd_drops_uncommon_fields() {
        let q = Query::filter_only(
            parse_filter(r#"((author "Ullman") and (body-of-text "databases"))"#).unwrap(),
        );
        let m1 = meta(QueryParts::Both);
        let mut m2 = meta(QueryParts::Both);
        m2.fields_supported = vec![(Field::BodyOfText, vec![])]; // no author
        let lcd = least_common_denominator(&q, &[&m1, &m2]);
        assert_eq!(
            print_filter(lcd.filter.as_ref().unwrap()),
            r#"(body-of-text "databases")"#
        );
    }

    #[test]
    fn lcd_with_no_sources_is_identity() {
        let q = Query::filter_only(parse_filter(r#"(title "x")"#).unwrap());
        assert_eq!(least_common_denominator(&q, &[]), q);
    }

    #[test]
    fn adaptation_preserves_full_capability_sources() {
        let q = Query {
            filter: Some(parse_filter(r#"(author "Ullman")"#).unwrap()),
            ranking: Some(parse_ranking(r#"list("databases")"#).unwrap()),
            ..Query::default()
        };
        let adapted = adapt_query(&q, &meta(QueryParts::Both), &empty_summary());
        assert_eq!(adapted, q);
    }
}
