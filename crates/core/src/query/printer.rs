//! Canonical printer for filter and ranking expressions.
//!
//! The printer emits exactly the concrete syntax of the paper's examples
//! (single spaces, `list(...)`, `prox[d,T]`), so that SOIF-encoded
//! queries round-trip through the parser and byte counts are stable.

use std::fmt::Write as _;

use crate::query::ast::{FilterExpr, ProxSpec, QTerm, RankExpr, WeightedTerm};

/// Render a term: bare l-strings print unparenthesized (`"databases"`);
/// terms with a field and/or modifiers print as
/// `(field modifiers "text")`.
pub fn print_term(t: &QTerm) -> String {
    printed(t, write_term)
}

/// Render a filter expression in canonical syntax.
pub fn print_filter(e: &FilterExpr) -> String {
    printed(e, write_filter)
}

/// Render a weighted term. Weighted bare terms print `("text" w)`;
/// weighted fielded terms print `((field "text") w)`.
pub fn print_weighted(t: &WeightedTerm) -> String {
    printed(t, write_weighted)
}

/// Render a ranking expression in canonical syntax.
pub fn print_ranking(e: &RankExpr) -> String {
    printed(e, write_ranking)
}

/// Format a weight or score. Rust's `Display` for `f64` prints the
/// shortest decimal that round-trips exactly, which matches the paper's
/// rendering for its values (`0.7`, `0.31`, `0.82`, `1`) *and* preserves
/// full precision for engine-produced scores through SOIF encode/decode.
pub fn fmt_weight(w: f64) -> String {
    let mut out = String::new();
    write_weight(&mut out, w);
    out
}

fn printed<T: ?Sized>(value: &T, write: impl FnOnce(&mut String, &T)) -> String {
    let mut out = String::new();
    write(&mut out, value);
    out
}

/// Append [`print_term`]'s rendering to `out`.
pub(crate) fn write_term(out: &mut String, t: &QTerm) {
    if t.is_bare() {
        return t.value.write_query_syntax(out);
    }
    out.push('(');
    if let Some(f) = &t.field {
        out.push_str(f.name());
        out.push(' ');
    }
    for m in &t.modifiers {
        out.push_str(m.name());
        out.push(' ');
    }
    t.value.write_query_syntax(out);
    out.push(')');
}

fn write_prox(out: &mut String, spec: &ProxSpec) {
    let order = if spec.ordered { "T" } else { "F" };
    let _ = write!(out, "prox[{},{order}]", spec.distance);
}

/// Append [`print_filter`]'s rendering to `out`.
pub(crate) fn write_filter(out: &mut String, e: &FilterExpr) {
    let (a, op, b) = match e {
        FilterExpr::Term(t) => return write_term(out, t),
        FilterExpr::And(a, b) => (a, "and", b),
        FilterExpr::Or(a, b) => (a, "or", b),
        FilterExpr::AndNot(a, b) => (a, "and-not", b),
        FilterExpr::Prox(l, spec, r) => {
            out.push('(');
            write_term(out, l);
            out.push(' ');
            write_prox(out, spec);
            out.push(' ');
            write_term(out, r);
            out.push(')');
            return;
        }
    };
    out.push('(');
    write_filter(out, a);
    let _ = write!(out, " {op} ");
    write_filter(out, b);
    out.push(')');
}

/// Append [`print_weighted`]'s rendering to `out`.
pub(crate) fn write_weighted(out: &mut String, t: &WeightedTerm) {
    let Some(w) = t.weight else {
        return write_term(out, &t.term);
    };
    out.push('(');
    write_term(out, &t.term);
    out.push(' ');
    write_weight(out, w);
    out.push(')');
}

/// Append [`print_ranking`]'s rendering to `out`.
pub(crate) fn write_ranking(out: &mut String, e: &RankExpr) {
    let (a, op, b) = match e {
        RankExpr::Term(t) => return write_weighted(out, t),
        RankExpr::List(items) => {
            out.push_str("list(");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                write_ranking(out, item);
            }
            out.push(')');
            return;
        }
        RankExpr::And(a, b) => (a, "and", b),
        RankExpr::Or(a, b) => (a, "or", b),
        RankExpr::AndNot(a, b) => (a, "and-not", b),
        RankExpr::Prox(l, spec, r) => {
            out.push('(');
            write_weighted(out, l);
            out.push(' ');
            write_prox(out, spec);
            out.push(' ');
            write_weighted(out, r);
            out.push(')');
            return;
        }
    };
    out.push('(');
    write_ranking(out, a);
    let _ = write!(out, " {op} ");
    write_ranking(out, b);
    out.push(')');
}

/// Append [`fmt_weight`]'s rendering to `out`.
pub(crate) fn write_weight(out: &mut String, w: f64) {
    let _ = write!(out, "{w}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{CmpOp, Field, Modifier};
    use crate::query::parser::{parse_filter, parse_ranking};

    #[test]
    fn prints_example1_filter() {
        let f = parse_filter(r#"((author "Ullman") and (title "databases"))"#).unwrap();
        assert_eq!(
            print_filter(&f),
            r#"((author "Ullman") and (title "databases"))"#
        );
    }

    #[test]
    fn prints_example6_expressions_with_paper_byte_counts() {
        // The paper's Example 6 declares FilterExpression{48} and
        // RankingExpression{61}; our canonical print must hit exactly
        // those byte counts (the proof that the canonical syntax is the
        // paper's).
        let f = parse_filter(r#"((author "Ullman") and (title stem "databases"))"#).unwrap();
        let printed = print_filter(&f);
        assert_eq!(printed.len(), 48);
        let r = parse_ranking(r#"list((body-of-text "distributed") (body-of-text "databases"))"#)
            .unwrap();
        let printed = print_ranking(&r);
        assert_eq!(printed.len(), 61);
        // And Example 8's ActualRankingExpression{26}.
        let r = parse_ranking(r#"(body-of-text "databases")"#).unwrap();
        assert_eq!(print_ranking(&r).len(), 26);
    }

    #[test]
    fn prints_comparison() {
        let t =
            QTerm::fielded(Field::DateLastModified, "1996-08-01").with(Modifier::Cmp(CmpOp::Gt));
        assert_eq!(print_term(&t), r#"(date-last-modified > "1996-08-01")"#);
    }

    #[test]
    fn prints_prox() {
        let f = parse_filter(r#"("distributed" prox[3,T] "databases")"#).unwrap();
        assert_eq!(print_filter(&f), r#"("distributed" prox[3,T] "databases")"#);
    }

    #[test]
    fn prints_weights() {
        let r = parse_ranking(r#"list(("distributed" 0.7) ("databases" 0.3))"#).unwrap();
        assert_eq!(
            print_ranking(&r),
            r#"list(("distributed" 0.7) ("databases" 0.3))"#
        );
    }

    #[test]
    fn weight_formatting() {
        assert_eq!(fmt_weight(0.7), "0.7");
        assert_eq!(fmt_weight(0.31), "0.31");
        assert_eq!(fmt_weight(1.0), "1");
        assert_eq!(fmt_weight(0.0), "0");
        assert_eq!(fmt_weight(0.82), "0.82"); // Example 8's RawScore
                                              // Shortest round-trip: parsing the output recovers the value.
        let w = 0.123456789012345;
        assert_eq!(fmt_weight(w).parse::<f64>().unwrap(), w);
    }

    #[test]
    fn round_trip_via_parser() {
        for src in [
            r#"(title stem "databases")"#,
            r#"((author "Ullman") and (title stem "databases"))"#,
            r#"(("a" or "b") and-not (title "c"))"#,
            r#"("x" prox[0,F] "y")"#,
            r#"(date-last-modified >= "1996-01-01")"#,
            r#"(title [en-US "behavior"])"#,
        ] {
            let ast = parse_filter(src).unwrap();
            let printed = print_filter(&ast);
            assert_eq!(printed, src, "canonical form differs");
            assert_eq!(parse_filter(&printed).unwrap(), ast);
        }
        for src in [
            r#"list("a" "b")"#,
            r#"list((body-of-text "distributed") (body-of-text "databases"))"#,
            r#"list(("distributed" 0.7) ("databases" 0.3))"#,
            r#"("distributed" and "databases")"#,
            r#"list()"#,
            r#"("a" prox[2,T] "b")"#,
        ] {
            let ast = parse_ranking(src).unwrap();
            let printed = print_ranking(&ast);
            assert_eq!(printed, src, "canonical form differs");
            assert_eq!(parse_ranking(&printed).unwrap(), ast);
        }
    }
}
