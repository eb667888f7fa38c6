//! Resource definitions (§4.3.3) and the `@SResource` SOIF binding
//! (Example 12).
//!
//! "Our model allows several sources to be grouped together as a single
//! resource (e.g., Knight-Ridder's Dialog information service). Each
//! resource exports contact information about the sources that it
//! contains … its list of sources, together with the URLs where the
//! metadata attributes for the sources can be accessed."

use std::fmt::Write as _;

use starts_soif::{AttrSink, ParseMode, SoifWriter, STARTS_VERSION, VERSION_ATTR};

use crate::codec::{decode_one, text, Attrs, FirstWins};
use crate::error::ProtoError;

const SRESOURCE: &str = "SResource";

/// A resource's exported source list: `(source id, metadata URL)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Resource {
    /// The sources available at this resource.
    pub sources: Vec<(String, String)>,
}

impl Resource {
    /// Build from pairs.
    pub fn new(sources: impl IntoIterator<Item = (String, String)>) -> Self {
        Resource {
            sources: sources.into_iter().collect(),
        }
    }

    /// The metadata URL for a source id.
    pub fn metadata_url(&self, source_id: &str) -> Option<&str> {
        self.sources
            .iter()
            .find(|(id, _)| id == source_id)
            .map(|(_, url)| url.as_str())
    }

    /// Source ids in declaration order.
    pub fn source_ids(&self) -> impl Iterator<Item = &str> {
        self.sources.iter().map(|(id, _)| id.as_str())
    }

    /// The wire form of the `@SResource` object (Example 12).
    pub fn to_soif_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        SoifWriter::new(&mut out).object(SRESOURCE, |w| self.encode(w));
        out
    }

    /// Decode the one `@SResource` object that `bytes` hold.
    pub fn from_soif_bytes(bytes: &[u8], mode: ParseMode) -> Result<Resource, ProtoError> {
        decode_one(bytes, mode, SRESOURCE, |r| Self::decode(r.attrs()))
    }

    fn encode(&self, sink: &mut impl AttrSink) {
        sink.attr(VERSION_ATTR, STARTS_VERSION.as_bytes());
        sink.attr_fmt("SourceList", |v| {
            for (i, (id, url)) in self.sources.iter().enumerate() {
                let _ = write!(v, "{}{id} {url}", if i > 0 { "\n" } else { "" });
            }
        });
    }

    /// The first `SourceList` is read, and must be UTF-8; anything else
    /// is skipped unread.
    fn decode<'a>(attrs: impl Attrs<'a>) -> Result<Resource, ProtoError> {
        let mut first = FirstWins::new(&["SourceList"]);
        let mut list = None;
        for attr in attrs {
            let (name, value) = attr?;
            if let Some(attr) = first.claim(name) {
                list = Some(text(attr, value)?);
            }
        }
        let list = list.ok_or_else(|| ProtoError::missing(SRESOURCE, "SourceList"))?;
        let mut sources = Vec::new();
        for line in list.lines() {
            let mut parts = line.split_whitespace();
            let Some(id) = parts.next() else {
                continue;
            };
            let url = parts.next().ok_or_else(|| {
                ProtoError::invalid("SourceList", format!("missing URL for {id:?}"))
            })?;
            sources.push((id.to_string(), url.to_string()));
        }
        Ok(Resource { sources })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_soif::{parse_one, write_object, SoifObject};

    fn example12_resource() -> Resource {
        Resource::new([
            (
                "Source-1".to_string(),
                "ftp://www.stanford.edu/source_1".to_string(),
            ),
            (
                "Source-2".to_string(),
                "ftp://www.stanford.edu/source_2".to_string(),
            ),
        ])
    }

    #[test]
    fn example12_encoding() {
        let r = example12_resource();
        let o = parse_one(&r.to_soif_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(
            o.get_str("SourceList"),
            Some(
                "Source-1 ftp://www.stanford.edu/source_1\n\
                 Source-2 ftp://www.stanford.edu/source_2"
            )
        );
    }

    #[test]
    fn round_trip() {
        let r = example12_resource();
        let back = Resource::from_soif_bytes(&r.to_soif_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn lookups() {
        let r = example12_resource();
        assert_eq!(
            r.metadata_url("Source-2"),
            Some("ftp://www.stanford.edu/source_2")
        );
        assert_eq!(r.metadata_url("Source-9"), None);
        let ids: Vec<&str> = r.source_ids().collect();
        assert_eq!(ids, vec!["Source-1", "Source-2"]);
    }

    #[test]
    fn decode_errors() {
        let decode =
            |o: &SoifObject| Resource::from_soif_bytes(&write_object(o), ParseMode::Strict);
        let o = SoifObject::new("SResource");
        assert!(decode(&o).is_err());
        let mut o = SoifObject::new("SResource");
        o.push_str("SourceList", "OnlyAnId");
        assert!(decode(&o).is_err());
    }

    #[test]
    fn empty_resource_round_trips() {
        let r = Resource::default();
        let back = Resource::from_soif_bytes(&r.to_soif_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(back, r);
    }
}
