//! What the typed SOIF codecs of `@SQuery`, `@SQResults` and
//! `@SQRDocument` share.
//!
//! Each of those objects has one encoder body, written against
//! [`AttrSink`] (a [`SoifObject`] for `to_soif`, a
//! [`starts_soif::SoifWriter`] for the wire), and one decoder body,
//! written against an iterator of borrowed attributes (a
//! [`SoifObject`]'s via [`object_attrs`], or a
//! [`starts_soif::SoifReader`]'s straight off the wire).

use starts_soif::{AttrRef, ParseError, SoifObject};

use crate::error::ProtoError;

/// A decoder's input: an object's attributes in order, borrowed, ended
/// early by the framing error that ended the object.
pub(crate) trait Attrs<'a>: Iterator<Item = Result<AttrRef<'a>, ParseError>> {}

impl<'a, I: Iterator<Item = Result<AttrRef<'a>, ParseError>>> Attrs<'a> for I {}

/// An owned object's attributes, as a decoder reads them.
pub(crate) fn object_attrs(o: &SoifObject) -> impl Attrs<'_> {
    o.iter().map(|a| Ok((a.name.as_str(), a.value.as_slice())))
}

/// `WrongTemplate` unless `found` names the `expected` template
/// (case-insensitively).
pub(crate) fn expect_template(found: &str, expected: &'static str) -> Result<(), ProtoError> {
    if found.eq_ignore_ascii_case(expected) {
        Ok(())
    } else {
        Err(ProtoError::WrongTemplate {
            expected,
            found: found.to_string(),
        })
    }
}

/// The "first value wins" rule of a header-style decoder: of the
/// attributes it knows, only each one's first occurrence (names compared
/// case-insensitively) is read; later ones are ignored unread.
pub(crate) struct FirstWins {
    names: &'static [&'static str],
    seen: u32,
}

impl FirstWins {
    pub(crate) fn new(names: &'static [&'static str]) -> Self {
        debug_assert!(names.len() <= 32);
        FirstWins { names, seen: 0 }
    }

    /// The canonical spelling of `name`, if it is one of the decoder's
    /// attributes and this is its first occurrence.
    pub(crate) fn claim(&mut self, name: &str) -> Option<&'static str> {
        let i = self
            .names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))?;
        let bit = 1 << i;
        if self.seen & bit != 0 {
            return None;
        }
        self.seen |= bit;
        Some(self.names[i])
    }
}

/// Append `parts` separated by single spaces.
pub(crate) fn push_joined<'s>(out: &mut String, parts: impl IntoIterator<Item = &'s str>) {
    for (i, part) in parts.into_iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(part);
    }
}
