//! Lexer for the STARTS query language.
//!
//! The syntax is parenthesized and whitespace-separated. String literals
//! use double quotes; the paper's typeset examples render them as
//! ```` ``…'' ```` (LaTeX quoting), which this lexer also accepts so the
//! printed examples can be pasted verbatim.

use crate::error::ProtoError;

/// One lexical token, with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// Token kind and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset of the token start.
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,` (inside `prox[d,T]`)
    Comma,
    /// A quoted string literal (contents, unescaped).
    Str(String),
    /// A bare word: identifiers (`and`, `title`, `prox`), numbers
    /// (`0.7`, `3`), comparison symbols (`>=`), borrowed from the input.
    Word(&'a str),
}

impl<'a> TokenKind<'a> {
    /// The word's text, if this is a word.
    pub fn word(&self) -> Option<&'a str> {
        match self {
            TokenKind::Word(w) => Some(w),
            _ => None,
        }
    }
}

/// Tokenize a query expression.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>, ProtoError> {
    let bytes = input.as_bytes();
    // A hint, not a bound: expressions average a few bytes per token.
    let mut out = Vec::with_capacity(input.len() / 3 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' => {
                out.push(Token {
                    kind: TokenKind::LParen,
                    offset: i,
                });
                i += 1;
            }
            b')' => {
                out.push(Token {
                    kind: TokenKind::RParen,
                    offset: i,
                });
                i += 1;
            }
            b'[' => {
                out.push(Token {
                    kind: TokenKind::LBracket,
                    offset: i,
                });
                i += 1;
            }
            b']' => {
                out.push(Token {
                    kind: TokenKind::RBracket,
                    offset: i,
                });
                i += 1;
            }
            b',' => {
                out.push(Token {
                    kind: TokenKind::Comma,
                    offset: i,
                });
                i += 1;
            }
            b'"' => {
                let (s, next) = lex_quoted(input, i, Quote::Double)?;
                out.push(Token {
                    kind: TokenKind::Str(s),
                    offset: i,
                });
                i = next;
            }
            b'`' => {
                // LaTeX-style ``…'' quoting from the paper's typesetting.
                if bytes.get(i + 1) != Some(&b'`') {
                    return Err(ProtoError::syntax("expected `` to open a string", i));
                }
                let (s, next) = lex_quoted(input, i, Quote::Latex)?;
                out.push(Token {
                    kind: TokenKind::Str(s),
                    offset: i,
                });
                i = next;
            }
            _ => {
                let start = i;
                while i < bytes.len() && !is_delimiter(bytes[i]) {
                    i += 1;
                }
                // SAFETY of slicing: delimiter bytes are all ASCII, so a
                // char boundary is guaranteed at `i`.
                out.push(Token {
                    kind: TokenKind::Word(&input[start..i]),
                    offset: start,
                });
            }
        }
    }
    Ok(out)
}

fn is_delimiter(b: u8) -> bool {
    matches!(
        b,
        b' ' | b'\t' | b'\n' | b'\r' | b'(' | b')' | b'[' | b']' | b',' | b'"' | b'`'
    )
}

enum Quote {
    Double,
    Latex,
}

fn lex_quoted(input: &str, start: usize, quote: Quote) -> Result<(String, usize), ProtoError> {
    let bytes = input.as_bytes();
    let mut i = match quote {
        Quote::Double => start + 1,
        Quote::Latex => start + 2,
    };
    let mut out = String::new();
    while i < bytes.len() {
        match (&quote, bytes[i]) {
            (Quote::Double, b'"') => return Ok((out, i + 1)),
            (Quote::Latex, b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                return Ok((out, i + 2));
            }
            (_, b'\\') => {
                match bytes.get(i + 1) {
                    Some(&e @ (b'"' | b'\\')) => {
                        out.push(e as char);
                        i += 2;
                    }
                    Some(other) => {
                        return Err(ProtoError::syntax(
                            format!("unknown escape '\\{}'", *other as char),
                            i,
                        ))
                    }
                    None => return Err(ProtoError::syntax("dangling escape", i)),
                }
                continue;
            }
            _ => {
                // Copy one UTF-8 character.
                let ch = input[i..].chars().next().expect("in-bounds char");
                out.push(ch);
                i += ch.len_utf8();
            }
        }
    }
    Err(ProtoError::syntax("unterminated string literal", start))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_fielded_term() {
        assert_eq!(
            kinds("(author \"Ullman\")"),
            vec![
                TokenKind::LParen,
                TokenKind::Word("author"),
                TokenKind::Str("Ullman".to_string()),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn lexes_paper_latex_quotes() {
        assert_eq!(
            kinds("(title stem ``databases'')"),
            vec![
                TokenKind::LParen,
                TokenKind::Word("title"),
                TokenKind::Word("stem"),
                TokenKind::Str("databases".to_string()),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn lexes_prox_brackets() {
        assert_eq!(
            kinds("prox[3,T]"),
            vec![
                TokenKind::Word("prox"),
                TokenKind::LBracket,
                TokenKind::Word("3"),
                TokenKind::Comma,
                TokenKind::Word("T"),
                TokenKind::RBracket,
            ]
        );
    }

    #[test]
    fn lexes_lstring_brackets() {
        assert_eq!(
            kinds("[en-US \"behavior\"]"),
            vec![
                TokenKind::LBracket,
                TokenKind::Word("en-US"),
                TokenKind::Str("behavior".to_string()),
                TokenKind::RBracket,
            ]
        );
    }

    #[test]
    fn lexes_comparison_and_numbers() {
        assert_eq!(
            kinds("(date-last-modified > \"1996-08-01\") 0.7"),
            vec![
                TokenKind::LParen,
                TokenKind::Word("date-last-modified"),
                TokenKind::Word(">"),
                TokenKind::Str("1996-08-01".to_string()),
                TokenKind::RParen,
                TokenKind::Word("0.7"),
            ]
        );
    }

    #[test]
    fn escapes_in_strings() {
        assert_eq!(
            kinds(r#""say \"hi\"""#),
            vec![TokenKind::Str(r#"say "hi""#.to_string())]
        );
    }

    #[test]
    fn utf8_in_strings_and_words() {
        assert_eq!(
            kinds("[es \"algoritmo\"] año"),
            vec![
                TokenKind::LBracket,
                TokenKind::Word("es"),
                TokenKind::Str("algoritmo".to_string()),
                TokenKind::RBracket,
                TokenKind::Word("año"),
            ]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("``unterminated").is_err());
        assert!(lex("`single").is_err());
        assert!(lex(r#""bad \q escape""#).is_err());
    }

    #[test]
    fn offsets_recorded() {
        let toks = lex("  (title)").unwrap();
        assert_eq!(toks[0].offset, 2);
        assert_eq!(toks[1].offset, 3);
        assert_eq!(toks[2].offset, 8);
    }

    #[test]
    fn empty_input() {
        assert!(lex("").unwrap().is_empty());
        assert!(lex("   \n ").unwrap().is_empty());
    }
}
