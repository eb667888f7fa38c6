//! What the typed SOIF codecs share.
//!
//! Each of `@SQuery`, `@SQResults`, `@SQRDocument`, `@SMetaAttributes`,
//! `@SContentSummary` and `@SResource` has one encoder body, written
//! against [`starts_soif::AttrSink`] (a [`starts_soif::SoifWriter`] for
//! the wire; a [`SoifObject`] for the `to_soif` adapters the first three
//! keep), and one decoder body, written against an iterator of borrowed
//! attributes (a [`SoifReader`]'s straight off the wire, or a
//! [`SoifObject`]'s via `object_attrs`). The sample payload
//! ([`crate::results::decode_sample`]) is read by the `@SQuery` and
//! result-stream bodies.
//!
//! [`decode_one`], [`text`] and [`FirstWins`] are public for the
//! telemetry templates a host serves, `@SStats` and `@SAlerts`
//! (`starts_obs::export`), which are read by the same rules.

use starts_soif::{AttrRef, ParseError, ParseMode, SoifObject, SoifReader};

use crate::error::ProtoError;

/// A decoder's input: an object's attributes in order, borrowed, ended
/// early by the framing error that ended the object.
pub(crate) trait Attrs<'a>: Iterator<Item = Result<AttrRef<'a>, ParseError>> {}

impl<'a, I: Iterator<Item = Result<AttrRef<'a>, ParseError>>> Attrs<'a> for I {}

/// An owned object's attributes, as a decoder reads them.
pub(crate) fn object_attrs(o: &SoifObject) -> impl Attrs<'_> {
    o.iter().map(|a| Ok((a.name.as_str(), a.value.as_slice())))
}

/// Decode the one `template` object that `bytes` hold, `decode` reading
/// its attributes in place: what [`starts_soif::parse_one`] accepts.
pub fn decode_one<'a, T>(
    bytes: &'a [u8],
    mode: ParseMode,
    template: &'static str,
    decode: impl FnOnce(&mut SoifReader<'a>) -> Result<T, ProtoError>,
) -> Result<T, ProtoError> {
    let mut reader = SoifReader::new(bytes, mode);
    let head = reader
        .next_head()?
        .ok_or(ParseError::UnexpectedEof { offset: 0 })?;
    expect_template(head.template, template)?;
    let value = decode(&mut reader)?;
    reader.finish()?;
    Ok(value)
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

/// A value the decoder reads, as text: a value that is not UTF-8 is
/// refused, not taken for absent.
pub fn text<'a>(name: &str, value: &'a [u8]) -> Result<&'a str, ProtoError> {
    std::str::from_utf8(value).map_err(|_| ProtoError::invalid(name, "not UTF-8"))
}

/// The "first value wins" rule of a header-style decoder: of the
/// attributes it knows, only each one's first occurrence (names compared
/// case-insensitively) is read; later ones are ignored unread.
pub struct FirstWins {
    names: &'static [&'static str],
    seen: u32,
}

impl FirstWins {
    /// A rule over the attribute `names` (at most 32), none seen yet.
    pub fn new(names: &'static [&'static str]) -> Self {
        assert!(names.len() <= 32, "FirstWins tracks at most 32 attributes");
        FirstWins { names, seen: 0 }
    }

    /// The canonical spelling of `name`, if it is one of the decoder's
    /// attributes and this is its first occurrence.
    pub fn claim(&mut self, name: &str) -> Option<&'static str> {
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
