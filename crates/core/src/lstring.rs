//! L-strings: the "basic building blocks for queries" (§4.1.1).
//!
//! "An l-string is either a string (e.g., `"Ullman"`), or a string
//! qualified with its associated language and, optionally, with its
//! associated country. For example, `[en-US "behavior"]` is an l-string,
//! meaning that the string 'behavior' represents a word in American
//! English. … To support multiple character sets, the actual string in an
//! l-string is a Unicode sequence encoded using UTF-8. A nice property of
//! this encoding is that the code for a plain English string is the ASCII
//! string itself, unmodified."
//!
//! Rust's `String` *is* UTF-8-encoded Unicode, so the representation is
//! exactly the paper's.

use std::fmt::{self, Write as _};

use starts_text::LangTag;

use crate::error::ProtoError;

/// An optionally language-qualified UTF-8 string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LString {
    /// RFC 1766 language (with optional country), if qualified.
    /// Unqualified l-strings default to English/ASCII per §4.1.1 ("the
    /// design we settled on does allow English and ASCII as the
    /// defaults"), or to the query's `DefaultLanguage`.
    pub lang: Option<LangTag>,
    /// The string itself.
    pub text: String,
}

impl LString {
    /// An unqualified l-string.
    pub fn plain(text: impl Into<String>) -> Self {
        LString {
            lang: None,
            text: text.into(),
        }
    }

    /// A language-qualified l-string.
    pub fn tagged(lang: LangTag, text: impl Into<String>) -> Self {
        LString {
            lang: Some(lang),
            text: text.into(),
        }
    }

    /// The language, with the query default applied: unqualified
    /// l-strings are `default` (normally `en-US`).
    pub fn lang_or<'a>(&'a self, default: &'a LangTag) -> &'a LangTag {
        self.lang.as_ref().unwrap_or(default)
    }

    /// Render in query syntax: `"text"` or `[lang "text"]`.
    pub fn to_query_syntax(&self) -> String {
        let mut out = String::new();
        self.write_query_syntax(&mut out);
        out
    }

    /// Append [`LString::to_query_syntax`]'s rendering to `out`.
    pub(crate) fn write_query_syntax(&self, out: &mut String) {
        match &self.lang {
            None => write_quoted(out, &self.text),
            Some(lang) => {
                let _ = write!(out, "[{lang} ");
                write_quoted(out, &self.text);
                out.push(']');
            }
        }
    }
}

impl fmt::Display for LString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_query_syntax())
    }
}

/// Quote a string for the query language. Embedded `"` and `\` are
/// backslash-escaped (the paper never needs this; real queries do).
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    write_quoted(&mut out, text);
    out
}

pub(crate) fn write_quoted(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
}

/// Unquote a string literal's *contents* (the part between the quotes),
/// resolving backslash escapes.
pub fn unquote_contents(raw: &str, offset: usize) -> Result<String, ProtoError> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some(e @ ('"' | '\\')) => out.push(e),
                Some(other) => {
                    return Err(ProtoError::syntax(
                        format!("unknown escape '\\{other}'"),
                        offset,
                    ))
                }
                None => return Err(ProtoError::syntax("dangling escape", offset)),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_lstring_renders_quoted() {
        let s = LString::plain("Ullman");
        assert_eq!(s.to_query_syntax(), "\"Ullman\"");
    }

    #[test]
    fn tagged_lstring_renders_bracketed() {
        // The paper's own example: [en-US "behavior"].
        let s = LString::tagged(LangTag::en_us(), "behavior");
        assert_eq!(s.to_query_syntax(), "[en-US \"behavior\"]");
    }

    #[test]
    fn utf8_passes_through() {
        let s = LString::tagged(LangTag::es(), "año");
        assert_eq!(s.to_query_syntax(), "[es \"año\"]");
        assert_eq!(s.text.len(), 4); // UTF-8 bytes, ASCII unmodified
    }

    #[test]
    fn default_language_applies_to_unqualified() {
        let dflt = LangTag::en_us();
        let plain = LString::plain("weekend");
        assert_eq!(plain.lang_or(&dflt), &dflt);
        let tagged = LString::tagged(LangTag::es(), "taco");
        assert_eq!(tagged.lang_or(&dflt), &LangTag::es());
    }

    #[test]
    fn quoting_escapes() {
        assert_eq!(quote(r#"say "hi""#), r#""say \"hi\"""#);
        assert_eq!(quote(r"back\slash"), r#""back\\slash""#);
        assert_eq!(unquote_contents(r#"say \"hi\""#, 0).unwrap(), r#"say "hi""#);
        assert_eq!(unquote_contents(r"back\\slash", 0).unwrap(), r"back\slash");
        assert!(unquote_contents(r"bad\q", 0).is_err());
        assert!(unquote_contents(r"dangling\", 0).is_err());
    }

    #[test]
    fn quote_unquote_round_trip() {
        for text in ["", "plain", "with \"quotes\"", "uni±code", "a\\b"] {
            let quoted = quote(text);
            let inner = &quoted[1..quoted.len() - 1];
            assert_eq!(unquote_contents(inner, 0).unwrap(), text);
        }
    }
}
