//! Recursive-descent parser for STARTS filter and ranking expressions.
//!
//! The concrete syntax is the one used throughout the paper's examples:
//!
//! ```text
//! ((author "Ullman") and (title stem "databases"))          -- filter
//! (t1 prox[3,T] t2)                                         -- filter
//! list((body-of-text "distributed") (body-of-text "databases"))
//! list(("distributed" 0.7) ("databases" 0.3))               -- weights
//! ("distributed" and "databases")                           -- fuzzy ops
//! (date-last-modified > "1996-08-01")                       -- comparison
//! [en-US "behavior"]                                        -- l-string
//! ```

use starts_text::LangTag;

use crate::attrs::{Field, Modifier};
use crate::error::ProtoError;
use crate::lstring::LString;
use crate::query::ast::{FilterExpr, ProxSpec, QTerm, RankExpr, WeightedTerm};
use crate::query::lexer::{lex, Token, TokenKind};

/// Parse a filter expression. Empty input is an error — use
/// `Option<FilterExpr>` at the query level for "no filter".
///
/// ```
/// use starts_proto::query::{parse_filter, print_filter};
/// let f = parse_filter(r#"((author "Ullman") and (title stem "databases"))"#).unwrap();
/// assert_eq!(f.terms().len(), 2);
/// // The canonical printer round-trips the paper's syntax.
/// assert_eq!(print_filter(&f), r#"((author "Ullman") and (title stem "databases"))"#);
/// ```
pub fn parse_filter(input: &str) -> Result<FilterExpr, ProtoError> {
    let tokens = lex(input)?;
    let mut p = Parser::new(&tokens, input.len());
    let expr = p.filter_operand()?;
    p.expect_end()?;
    Ok(expr)
}

/// Parse a ranking expression.
///
/// ```
/// use starts_proto::query::parse_ranking;
/// let r = parse_ranking(r#"list(("distributed" 0.7) ("databases" 0.3))"#).unwrap();
/// let weights: Vec<f64> = r.terms().iter().map(|t| t.effective_weight()).collect();
/// assert_eq!(weights, vec![0.7, 0.3]);
/// ```
pub fn parse_ranking(input: &str) -> Result<RankExpr, ProtoError> {
    let tokens = lex(input)?;
    let mut p = Parser::new(&tokens, input.len());
    let expr = p.rank_expr()?;
    p.expect_end()?;
    Ok(expr)
}

/// Binary operators shared by filter and ranking expressions.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    And,
    Or,
    AndNot,
    Prox(ProxSpec),
}

/// Maximum expression nesting depth. Recursive descent otherwise lets a
/// hostile query (`((((((…`) exhaust the stack; real STARTS queries are
/// a handful of levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    tokens: &'a [Token<'a>],
    pos: usize,
    input_len: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: &'a [Token<'a>], input_len: usize) -> Self {
        Parser {
            tokens,
            pos: 0,
            input_len,
            depth: 0,
        }
    }

    fn enter(&mut self) -> Result<(), ProtoError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ProtoError::syntax(
                format!("expression nesting exceeds {MAX_DEPTH} levels"),
                self.offset(),
            ));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Option<&'a Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&'a Token<'a>> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.peek().map_or(self.input_len, |t| t.offset)
    }

    fn expect_end(&self) -> Result<(), ProtoError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(ProtoError::syntax("unexpected trailing tokens", t.offset)),
        }
    }

    fn expect(&mut self, kind: &TokenKind<'_>, what: &str) -> Result<(), ProtoError> {
        match self.next() {
            Some(t) if &t.kind == kind => Ok(()),
            Some(t) => Err(ProtoError::syntax(format!("expected {what}"), t.offset)),
            None => Err(ProtoError::syntax(
                format!("expected {what}, found end of input"),
                self.input_len,
            )),
        }
    }

    /// Is the next token the given reserved word?
    fn at_word(&self, w: &str) -> bool {
        matches!(self.peek(), Some(Token { kind: TokenKind::Word(s), .. }) if s.eq_ignore_ascii_case(w))
    }

    /// Parse an operator word (after the left operand).
    fn operator(&mut self) -> Result<Op, ProtoError> {
        let off = self.offset();
        let Some(Token {
            kind: TokenKind::Word(w),
            ..
        }) = self.next()
        else {
            return Err(ProtoError::syntax("expected an operator", off));
        };
        let known = ["and", "or", "and-not", "not", "prox"];
        match known.into_iter().find(|op| w.eq_ignore_ascii_case(op)) {
            Some("and") => Ok(Op::And),
            Some("or") => Ok(Op::Or),
            Some("and-not") => Ok(Op::AndNot),
            Some("not") => Err(ProtoError::syntax(
                "'not' is not a STARTS operator; use 'and-not'",
                off,
            )),
            Some("prox") => {
                self.expect(&TokenKind::LBracket, "'[' after prox")?;
                let dist_off = self.offset();
                let dist: u32 = self
                    .next()
                    .and_then(|t| t.kind.word())
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| ProtoError::syntax("expected prox distance", dist_off))?;
                self.expect(&TokenKind::Comma, "',' in prox spec")?;
                let ord_off = self.offset();
                let ordered = match self.next().and_then(|t| t.kind.word()) {
                    Some("T") | Some("t") => true,
                    Some("F") | Some("f") => false,
                    _ => {
                        return Err(ProtoError::syntax(
                            "expected T or F for prox order flag",
                            ord_off,
                        ))
                    }
                };
                self.expect(&TokenKind::RBracket, "']' after prox spec")?;
                Ok(Op::Prox(ProxSpec {
                    distance: dist,
                    ordered,
                }))
            }
            _ => Err(ProtoError::syntax(
                format!("unknown operator {:?}", w.to_ascii_lowercase()),
                off,
            )),
        }
    }

    fn is_operator_next(&self) -> bool {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Word(w),
                ..
            }) => ["and", "or", "and-not", "prox"]
                .iter()
                .any(|op| w.eq_ignore_ascii_case(op)),
            _ => false,
        }
    }

    /// Parse an l-string: `"text"` or `[lang "text"]`.
    fn lstring(&mut self) -> Result<LString, ProtoError> {
        let off = self.offset();
        match self.next() {
            Some(Token {
                kind: TokenKind::Str(s),
                ..
            }) => Ok(LString::plain(s.clone())),
            Some(Token {
                kind: TokenKind::LBracket,
                ..
            }) => {
                let lang_off = self.offset();
                let lang_word = self
                    .next()
                    .and_then(|t| t.kind.word())
                    .ok_or_else(|| ProtoError::syntax("expected language tag", lang_off))?;
                let lang = LangTag::parse(lang_word)
                    .map_err(|e| ProtoError::syntax(format!("bad language tag: {e}"), lang_off))?;
                let str_off = self.offset();
                let text = match self.next() {
                    Some(Token {
                        kind: TokenKind::Str(s),
                        ..
                    }) => s.clone(),
                    _ => return Err(ProtoError::syntax("expected string in l-string", str_off)),
                };
                self.expect(&TokenKind::RBracket, "']' closing l-string")?;
                Ok(LString::tagged(lang, text))
            }
            _ => Err(ProtoError::syntax("expected an l-string", off)),
        }
    }

    fn at_lstring(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token {
                kind: TokenKind::Str(_) | TokenKind::LBracket,
                ..
            })
        )
    }

    /// Parse a term body after '(': `[field] modifier* lstring`.
    /// The first word is a field unless it parses as a known modifier or
    /// comparison symbol.
    fn term_body(&mut self) -> Result<QTerm, ProtoError> {
        let start = self.pos;
        while self.peek().is_some_and(|t| t.kind.word().is_some()) {
            self.pos += 1;
        }
        let words = self.tokens[start..self.pos]
            .iter()
            .filter_map(|t| t.kind.word());
        let value = self.lstring()?;
        let mut field = None;
        let mut modifiers = Vec::new();
        for (i, w) in words.enumerate() {
            let parsed = Modifier::parse(w);
            let is_known_modifier = !matches!(parsed, Modifier::Other(_));
            if i == 0 && !is_known_modifier {
                field = Some(Field::parse(w));
            } else {
                modifiers.push(parsed);
            }
        }
        Ok(QTerm {
            field,
            modifiers,
            value,
        })
    }

    // ---------------- filter expressions ----------------

    /// An operand: a bare l-string term or a parenthesized expression.
    fn filter_operand(&mut self) -> Result<FilterExpr, ProtoError> {
        if self.at_lstring() {
            let value = self.lstring()?;
            return Ok(FilterExpr::Term(QTerm {
                field: None,
                modifiers: Vec::new(),
                value,
            }));
        }
        let off = self.offset();
        self.expect(&TokenKind::LParen, "'(' or l-string")
            .map_err(|_| ProtoError::syntax("expected a term or '('", off))?;
        self.paren_filter()
    }

    /// Contents of a parenthesized filter expression ('(' consumed).
    fn paren_filter(&mut self) -> Result<FilterExpr, ProtoError> {
        self.enter()?;
        let result = self.paren_filter_inner();
        self.leave();
        result
    }

    fn paren_filter_inner(&mut self) -> Result<FilterExpr, ProtoError> {
        // Word-first (not an operator): a term body.
        if matches!(
            self.peek(),
            Some(Token {
                kind: TokenKind::Word(_),
                ..
            })
        ) && !self.is_operator_next()
        {
            let term = self.term_body()?;
            self.expect(&TokenKind::RParen, "')' closing term")?;
            return Ok(FilterExpr::Term(term));
        }
        // Otherwise: an operand, optionally followed by `op operand`.
        let left = self.filter_operand()?;
        if matches!(
            self.peek(),
            Some(Token {
                kind: TokenKind::RParen,
                ..
            })
        ) {
            self.pos += 1;
            return Ok(left);
        }
        let op = self.operator()?;
        let right = self.filter_operand()?;
        self.expect(&TokenKind::RParen, "')' closing expression")?;
        combine_filter(left, op, right)
    }

    // ---------------- ranking expressions ----------------

    /// A full ranking expression.
    fn rank_expr(&mut self) -> Result<RankExpr, ProtoError> {
        if self.at_word("list") {
            return self.rank_list();
        }
        if self.at_lstring() {
            let value = self.lstring()?;
            return Ok(RankExpr::Term(WeightedTerm::plain(QTerm {
                field: None,
                modifiers: Vec::new(),
                value,
            })));
        }
        let off = self.offset();
        self.expect(&TokenKind::LParen, "'(' , 'list' or l-string")
            .map_err(|_| ProtoError::syntax("expected a ranking expression", off))?;
        self.paren_rank()
    }

    /// `list( item* )`.
    fn rank_list(&mut self) -> Result<RankExpr, ProtoError> {
        self.enter()?;
        let result = self.rank_list_inner();
        self.leave();
        result
    }

    fn rank_list_inner(&mut self) -> Result<RankExpr, ProtoError> {
        self.pos += 1; // consume 'list'
        self.expect(&TokenKind::LParen, "'(' after list")?;
        let mut items = Vec::new();
        loop {
            match self.peek() {
                Some(Token {
                    kind: TokenKind::RParen,
                    ..
                }) => {
                    self.pos += 1;
                    break;
                }
                None => return Err(ProtoError::syntax("unterminated list(...)", self.input_len)),
                _ => items.push(self.rank_expr()?),
            }
        }
        Ok(RankExpr::List(items))
    }

    /// Contents of a parenthesized ranking expression ('(' consumed),
    /// depth-guarded.
    ///
    /// Possible shapes:
    /// * `field mods "x" [weight] )` — a (possibly weighted) fielded term;
    /// * `"x" )` / `"x" weight )` / `"x" op …` — bare term, weighted
    ///   term, or combination with a bare-term left side;
    /// * `( … ) op …` / `( … ) weight )` / `( … ) )` — combination,
    ///   weighted parenthesized term, or redundant parens.
    fn paren_rank(&mut self) -> Result<RankExpr, ProtoError> {
        self.enter()?;
        let result = self.paren_rank_inner();
        self.leave();
        result
    }

    fn paren_rank_inner(&mut self) -> Result<RankExpr, ProtoError> {
        // Word-first that is not an operator and not `list`: term body.
        if matches!(
            self.peek(),
            Some(Token {
                kind: TokenKind::Word(_),
                ..
            })
        ) && !self.is_operator_next()
            && !self.at_word("list")
        {
            let term = self.term_body()?;
            let weight = self.optional_weight()?;
            self.expect(&TokenKind::RParen, "')' closing term")?;
            return Ok(RankExpr::Term(WeightedTerm { term, weight }));
        }
        let left = self.rank_expr()?;
        // `)` → done; number → weight; operator → combination.
        if matches!(
            self.peek(),
            Some(Token {
                kind: TokenKind::RParen,
                ..
            })
        ) {
            self.pos += 1;
            return Ok(left);
        }
        if let Some(w) = self.optional_weight()? {
            self.expect(&TokenKind::RParen, "')' after weight")?;
            return match left {
                RankExpr::Term(mut t) => {
                    t.weight = Some(w);
                    Ok(RankExpr::Term(t))
                }
                _ => Err(ProtoError::syntax(
                    "weights apply to terms, not subexpressions",
                    self.offset(),
                )),
            };
        }
        let op = self.operator()?;
        let right = self.rank_expr()?;
        self.expect(&TokenKind::RParen, "')' closing expression")?;
        combine_rank(left, op, right, self.offset())
    }

    /// A numeric weight, if the next token is a number.
    fn optional_weight(&mut self) -> Result<Option<f64>, ProtoError> {
        let Some(Token {
            kind: TokenKind::Word(w),
            offset,
        }) = self.peek()
        else {
            return Ok(None);
        };
        let Ok(value) = w.parse::<f64>() else {
            return Ok(None);
        };
        if !(0.0..=1.0).contains(&value) {
            return Err(ProtoError::syntax(
                "term weights must be between 0 and 1",
                *offset,
            ));
        }
        self.pos += 1;
        // `-0` passes the range test; `abs` makes it `+0`, so no
        // evaluator ever sees a negatively-signed weight.
        Ok(Some(value.abs()))
    }
}

fn combine_filter(left: FilterExpr, op: Op, right: FilterExpr) -> Result<FilterExpr, ProtoError> {
    Ok(match op {
        Op::And => FilterExpr::and(left, right),
        Op::Or => FilterExpr::or(left, right),
        Op::AndNot => FilterExpr::and_not(left, right),
        Op::Prox(spec) => {
            let (FilterExpr::Term(l), FilterExpr::Term(r)) = (left, right) else {
                return Err(ProtoError::syntax(
                    "prox operands must be terms (the operator specifies two terms)",
                    0,
                ));
            };
            FilterExpr::Prox(l, spec, r)
        }
    })
}

fn combine_rank(
    left: RankExpr,
    op: Op,
    right: RankExpr,
    offset: usize,
) -> Result<RankExpr, ProtoError> {
    Ok(match op {
        Op::And => RankExpr::And(Box::new(left), Box::new(right)),
        Op::Or => RankExpr::Or(Box::new(left), Box::new(right)),
        Op::AndNot => RankExpr::AndNot(Box::new(left), Box::new(right)),
        Op::Prox(spec) => {
            let (RankExpr::Term(l), RankExpr::Term(r)) = (left, right) else {
                return Err(ProtoError::syntax("prox operands must be terms", offset));
            };
            RankExpr::Prox(l, spec, r)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::CmpOp;

    #[test]
    fn example1_filter() {
        // ((author "Ullman") and (title "databases"))
        let f = parse_filter(r#"((author "Ullman") and (title "databases"))"#).unwrap();
        let FilterExpr::And(l, r) = f else {
            panic!("expected And")
        };
        let FilterExpr::Term(l) = *l else { panic!() };
        assert_eq!(l.field, Some(Field::Author));
        assert_eq!(l.value.text, "Ullman");
        let FilterExpr::Term(r) = *r else { panic!() };
        assert_eq!(r.field, Some(Field::Title));
    }

    #[test]
    fn example1_ranking() {
        let r = parse_ranking(r#"list((body-of-text "distributed") (body-of-text "databases"))"#)
            .unwrap();
        let RankExpr::List(items) = r else { panic!() };
        assert_eq!(items.len(), 2);
        let RankExpr::Term(t) = &items[0] else {
            panic!()
        };
        assert_eq!(t.term.field, Some(Field::BodyOfText));
        assert_eq!(t.weight, None);
    }

    #[test]
    fn example2_stem_modifier() {
        let f = parse_filter(r#"(title stem "databases")"#).unwrap();
        let FilterExpr::Term(t) = f else { panic!() };
        assert_eq!(t.field, Some(Field::Title));
        assert_eq!(t.modifiers, vec![Modifier::Stem]);
    }

    #[test]
    fn example3_prox() {
        let f = parse_filter(r#"("distributed" prox[3,T] "databases")"#).unwrap();
        let FilterExpr::Prox(l, spec, r) = f else {
            panic!()
        };
        assert_eq!(l.value.text, "distributed");
        assert_eq!(r.value.text, "databases");
        assert_eq!(spec.distance, 3);
        assert!(spec.ordered);
    }

    #[test]
    fn example4_fuzzy_and() {
        let r = parse_ranking(r#"("distributed" and "databases")"#).unwrap();
        assert!(matches!(r, RankExpr::And(_, _)));
    }

    #[test]
    fn example5_weighted_list() {
        let r = parse_ranking(r#"list(("distributed" 0.7) ("databases" 0.3))"#).unwrap();
        let RankExpr::List(items) = r else { panic!() };
        let RankExpr::Term(t) = &items[0] else {
            panic!()
        };
        assert_eq!(t.weight, Some(0.7));
        assert!(t.term.is_bare());
    }

    #[test]
    fn paper_latex_quotes_accepted() {
        let f = parse_filter("((author ``Ullman'') and (title stem ``databases''))").unwrap();
        assert_eq!(f.terms().len(), 2);
    }

    #[test]
    fn date_comparison_term() {
        let f = parse_filter(r#"(date-last-modified > "1996-08-01")"#).unwrap();
        let FilterExpr::Term(t) = f else { panic!() };
        assert_eq!(t.field, Some(Field::DateLastModified));
        assert_eq!(t.modifiers, vec![Modifier::Cmp(CmpOp::Gt)]);
    }

    #[test]
    fn modifier_only_term_defaults_to_any_field() {
        let f = parse_filter(r#"(stem "systems")"#).unwrap();
        let FilterExpr::Term(t) = f else { panic!() };
        assert_eq!(t.field, None);
        assert_eq!(t.modifiers, vec![Modifier::Stem]);
    }

    #[test]
    fn lstring_with_language() {
        let f = parse_filter(r#"(title [en-US "behavior"])"#).unwrap();
        let FilterExpr::Term(t) = f else { panic!() };
        assert_eq!(t.value.lang, Some(LangTag::en_us()));
        assert_eq!(t.value.text, "behavior");
    }

    #[test]
    fn bare_lstring_filter() {
        let f = parse_filter(r#""databases""#).unwrap();
        let FilterExpr::Term(t) = f else { panic!() };
        assert!(t.is_bare());
    }

    #[test]
    fn nested_combinations() {
        let f =
            parse_filter(r#"(((author "Ullman") or (author "Garcia")) and-not (title "surveys"))"#)
                .unwrap();
        let FilterExpr::AndNot(l, _) = f else {
            panic!()
        };
        assert!(matches!(*l, FilterExpr::Or(_, _)));
    }

    #[test]
    fn no_not_operator() {
        // Prefix 'not' is not valid syntax at all.
        assert!(parse_filter(r#"(not (title "databases"))"#).is_err());
        // Infix 'not' gets the explicit diagnostic pointing at and-not.
        let err = parse_filter(r#"(("a") not ("b"))"#).unwrap_err();
        assert!(err.to_string().contains("and-not"), "got: {err}");
    }

    #[test]
    fn prox_requires_terms() {
        let err = parse_filter(r#"((("a") and ("b")) prox[2,F] "c")"#).unwrap_err();
        assert!(err.to_string().contains("prox"));
    }

    #[test]
    fn weighted_fielded_term() {
        let r = parse_ranking(r#"list((body-of-text "distributed" 0.7))"#).unwrap();
        let RankExpr::List(items) = r else { panic!() };
        let RankExpr::Term(t) = &items[0] else {
            panic!()
        };
        assert_eq!(t.weight, Some(0.7));
        assert_eq!(t.term.field, Some(Field::BodyOfText));
    }

    #[test]
    fn weighted_parenthesized_term() {
        let r = parse_ranking(r#"list(((body-of-text "distributed") 0.7))"#).unwrap();
        let RankExpr::List(items) = r else { panic!() };
        let RankExpr::Term(t) = &items[0] else {
            panic!()
        };
        assert_eq!(t.weight, Some(0.7));
    }

    #[test]
    fn weight_out_of_range_rejected() {
        assert!(parse_ranking(r#"list(("x" 1.5))"#).is_err());
    }

    #[test]
    fn weight_on_subexpression_rejected() {
        assert!(parse_ranking(r#"((("a") and ("b")) 0.5)"#).is_err());
    }

    #[test]
    fn empty_list_allowed() {
        // An empty ranking expression (a source may return one as its
        // "actual" expression after dropping everything).
        let r = parse_ranking("list()").unwrap();
        assert_eq!(r, RankExpr::List(vec![]));
    }

    #[test]
    fn nested_list() {
        let r = parse_ranking(r#"list("a" list("b" "c"))"#).unwrap();
        let RankExpr::List(items) = r else { panic!() };
        assert_eq!(items.len(), 2);
        assert!(matches!(items[1], RankExpr::List(_)));
    }

    #[test]
    fn prox_in_ranking() {
        let r = parse_ranking(r#"("a" prox[1,F] "b")"#).unwrap();
        let RankExpr::Prox(_, spec, _) = r else {
            panic!()
        };
        assert!(!spec.ordered);
        assert_eq!(spec.distance, 1);
    }

    #[test]
    fn syntax_errors() {
        assert!(parse_filter("").is_err());
        assert!(parse_filter("(title").is_err());
        assert!(parse_filter(r#"(title "x") trailing"#).is_err());
        assert!(parse_filter(r#"("a" xor "b")"#).is_err());
        assert!(parse_filter(r#"("a" prox[x,T] "b")"#).is_err());
        assert!(parse_filter(r#"("a" prox[3,Q] "b")"#).is_err());
        assert!(parse_ranking("list(").is_err());
    }

    #[test]
    fn hostile_nesting_rejected_not_stack_overflow() {
        // 100k nested parens must error cleanly, not crash.
        let mut q = "(".repeat(100_000);
        q.push_str("\"x\"");
        q.push_str(&")".repeat(100_000));
        let err = parse_filter(&q).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let err = parse_ranking(&q).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Nested lists too.
        let mut q = "list(".repeat(100_000);
        q.push_str("\"x\"");
        q.push_str(&")".repeat(100_000));
        assert!(parse_ranking(&q).is_err());
    }

    #[test]
    fn reasonable_nesting_accepted() {
        let mut q = "(".repeat(60);
        q.push_str("\"x\"");
        q.push_str(&")".repeat(60));
        assert!(parse_filter(&q).is_ok());
    }

    #[test]
    fn redundant_parens_collapse() {
        let f = parse_filter(r#"(("x"))"#).unwrap();
        assert!(matches!(f, FilterExpr::Term(_)));
    }

    #[test]
    fn unknown_modifier_from_other_set_is_preserved() {
        // Unknown second word becomes Modifier::Other (queries may use
        // other attribute sets per §4.1.2 DefaultAttributeSet).
        let f = parse_filter(r#"(title fuzzy "databases")"#).unwrap();
        let FilterExpr::Term(t) = f else { panic!() };
        assert_eq!(t.modifiers, vec![Modifier::Other("fuzzy".to_string())]);
    }
}
