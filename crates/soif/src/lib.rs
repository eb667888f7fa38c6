#![warn(missing_docs)]

//! Harvest SOIF — the Summary Object Interchange Format — used by STARTS
//! as its illustrative wire encoding.
//!
//! Section 4 of the paper: "SOIF objects are typed, ASCII-based encodings
//! for structured objects"; STARTS queries, results, metadata, content
//! summaries and resource descriptions are all delivered as SOIF objects
//! (`@SQuery`, `@SQResults`, `@SQRDocument`, `@SMetaAttributes`,
//! `@SContentSummary`, `@SResource`). Example 6 explains the framing:
//! "The number in brackets after each SOIF attribute … is the number of
//! bytes of the value for that attribute, to facilitate parsing."
//!
//! The format, as used by the paper:
//!
//! ```text
//! @TemplateType{ optional-url
//! AttributeName{byte-count}: value-bytes
//! ...
//! }
//! ```
//!
//! * Attribute order is significant and names may repeat (Example 11's
//!   content summary repeats `Field`/`Language`/`TermDocFreq` per
//!   field–language section), so objects store an ordered attribute list.
//! * Values are raw bytes of exactly the declared length and may contain
//!   newlines (Example 8's multi-line `TermStats`).
//! * The encoder always produces exact byte counts. The paper's hand-made
//!   examples contain a few off-by-one counts (documented in
//!   EXPERIMENTS.md); [`ParseMode::Lenient`] recovers from such counts by
//!   resynchronizing on the next attribute or object delimiter.

pub mod object;
pub mod parse;
pub mod write;

pub use object::{SoifAttr, SoifObject};
pub use parse::{parse, parse_one, AttrRef, ObjectHead, ParseError, ParseMode, SoifReader};
pub use write::{
    write_object, write_object_into, write_stream, write_stream_into, AttrSink, SoifWriter,
};

/// STARTS protocol version string carried by every object (Example 6).
pub const STARTS_VERSION: &str = "STARTS 1.0";

/// The `Version` attribute name present on every STARTS SOIF object.
pub const VERSION_ATTR: &str = "Version";

#[cfg(test)]
mod round_trip_tests {
    use super::*;

    #[test]
    fn build_encode_parse_round_trip() {
        let mut obj = SoifObject::new("SQuery");
        obj.push_str(VERSION_ATTR, STARTS_VERSION);
        obj.push_str("FilterExpression", "(author \"Ullman\")");
        obj.push_str("DropStopWords", "T");
        let bytes = write_object(&obj);
        let parsed = parse_one(&bytes, ParseMode::Strict).unwrap();
        assert_eq!(parsed, obj);
    }

    #[test]
    fn version_helper_matches_paper() {
        // Version{10}: STARTS 1.0  — the 10 is the byte length.
        assert_eq!(STARTS_VERSION.len(), 10);
    }
}
