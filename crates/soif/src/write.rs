//! SOIF serialization with exact byte counts.

use crate::object::{SoifAttr, SoifObject};

/// Serialize one object to its wire form:
///
/// ```text
/// @Template{ url
/// Name{len}: value
/// }
/// ```
///
/// The byte count in braces is exactly `value.len()`; a single space
/// separates the colon from the value (as in every example in the paper),
/// and a newline terminates each attribute. Multi-line values are embedded
/// verbatim — the count makes them parseable.
pub fn write_object(obj: &SoifObject) -> Vec<u8> {
    let mut out = Vec::new();
    write_object_into(obj, &mut out);
    out
}

/// Append the wire form of `obj` to `out` — the allocation-free entry
/// point for hot paths that encode many objects per exchange and reuse
/// one buffer. [`write_object`] is a convenience wrapper around this.
pub fn write_object_into(obj: &SoifObject, out: &mut Vec<u8>) {
    let mut cap = obj.template.len() + 8;
    for a in &obj.attrs {
        cap += a.name.len() + a.value.len() + 16;
    }
    out.reserve(cap);
    out.push(b'@');
    out.extend_from_slice(obj.template.as_bytes());
    out.push(b'{');
    if let Some(url) = &obj.url {
        out.push(b' ');
        out.extend_from_slice(url.as_bytes());
    }
    out.push(b'\n');
    for a in &obj.attrs {
        write_attr(out, &a.name, &a.value);
    }
    out.extend_from_slice(b"}\n");
}

/// Append one attribute line, `Name{len}: value\n`.
fn write_attr(out: &mut Vec<u8>, name: &str, value: &[u8]) {
    out.extend_from_slice(name.as_bytes());
    out.push(b'{');
    push_decimal(value.len(), out);
    out.extend_from_slice(b"}: ");
    out.extend_from_slice(value);
    out.push(b'\n');
}

/// Append the decimal digits of `n` without going through a `String`.
fn push_decimal(n: usize, out: &mut Vec<u8>) {
    // usize is at most 20 decimal digits; fill a stack buffer backwards.
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Where a typed encoder puts one object's attributes, in order: a
/// [`SoifObject`] under construction, or a [`SoifWriter`] appending the
/// wire form. One encoder body serves both.
pub trait AttrSink {
    /// Append an attribute whose value is at hand.
    fn attr(&mut self, name: &str, value: &[u8]);

    /// Append an attribute whose value `format` writes.
    fn attr_fmt(&mut self, name: &str, format: impl FnOnce(&mut String));
}

impl AttrSink for SoifObject {
    fn attr(&mut self, name: &str, value: &[u8]) {
        self.push_bytes(name, value.to_vec());
    }

    fn attr_fmt(&mut self, name: &str, format: impl FnOnce(&mut String)) {
        let mut value = String::new();
        format(&mut value);
        self.attrs.push(SoifAttr {
            name: name.to_string(),
            value: value.into_bytes(),
        });
    }
}

/// Writes objects straight to wire bytes, with exact counts, and no
/// [`SoifObject`] in between. A formatted value is built in one scratch
/// buffer the writer reuses, since its count precedes it.
pub struct SoifWriter<'o> {
    out: &'o mut Vec<u8>,
    scratch: String,
}

impl<'o> SoifWriter<'o> {
    /// A writer appending to `out`.
    pub fn new(out: &'o mut Vec<u8>) -> Self {
        SoifWriter {
            out,
            // Room for a typical formatted value (a document's TermStats,
            // a host profile) without regrowing.
            scratch: String::with_capacity(512),
        }
    }

    /// Write one object with no URL: `@template{`, the attributes
    /// `body` appends, `}` — the bytes [`write_object_into`] writes for
    /// the same object.
    pub fn object(&mut self, template: &str, body: impl FnOnce(&mut Self)) {
        self.out.push(b'@');
        self.out.extend_from_slice(template.as_bytes());
        self.out.extend_from_slice(b"{\n");
        body(self);
        self.out.extend_from_slice(b"}\n");
    }

    /// The blank line between the objects of a stream.
    pub fn separator(&mut self) {
        self.out.push(b'\n');
    }
}

impl AttrSink for SoifWriter<'_> {
    fn attr(&mut self, name: &str, value: &[u8]) {
        write_attr(self.out, name, value);
    }

    fn attr_fmt(&mut self, name: &str, format: impl FnOnce(&mut String)) {
        self.scratch.clear();
        format(&mut self.scratch);
        write_attr(self.out, name, self.scratch.as_bytes());
    }
}

/// Serialize a stream of objects, separated by a blank line (the layout
/// Examples 8–9 use between `@SQResults` and its `@SQRDocument`s).
pub fn write_stream(objects: &[SoifObject]) -> Vec<u8> {
    let mut out = Vec::new();
    write_stream_into(objects, &mut out);
    out
}

/// Append a blank-line-separated stream of objects to `out` (the
/// buffer-reuse counterpart of [`write_stream`]).
pub fn write_stream_into(objects: &[SoifObject], out: &mut Vec<u8>) {
    for (i, obj) in objects.iter().enumerate() {
        if i > 0 {
            out.push(b'\n');
        }
        write_object_into(obj, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_encoding() {
        let mut o = SoifObject::new("SQuery");
        o.push_str("Version", "STARTS 1.0");
        o.push_str("DropStopWords", "T");
        let got = String::from_utf8(write_object(&o)).unwrap();
        assert_eq!(
            got,
            "@SQuery{\nVersion{10}: STARTS 1.0\nDropStopWords{1}: T\n}\n"
        );
    }

    #[test]
    fn multi_line_value_embedded_verbatim() {
        let mut o = SoifObject::new("SQRDocument");
        o.push_str("TermStats", "line one\nline two");
        let got = String::from_utf8(write_object(&o)).unwrap();
        assert_eq!(got, "@SQRDocument{\nTermStats{17}: line one\nline two\n}\n");
    }

    #[test]
    fn url_slot() {
        let mut o = SoifObject::new("FILE");
        o.url = Some("http://example.org/doc".to_string());
        let got = String::from_utf8(write_object(&o)).unwrap();
        assert!(got.starts_with("@FILE{ http://example.org/doc\n"));
    }

    #[test]
    fn empty_value() {
        let mut o = SoifObject::new("SQuery");
        o.push_str("RankingExpression", "");
        let got = String::from_utf8(write_object(&o)).unwrap();
        assert!(got.contains("RankingExpression{0}: \n"));
    }

    #[test]
    fn into_variant_appends_without_touching_prefix() {
        let mut o = SoifObject::new("SQuery");
        o.push_str("Version", "STARTS 1.0");
        let mut buf = b"prefix".to_vec();
        write_object_into(&o, &mut buf);
        assert!(buf.starts_with(b"prefix@SQuery{"));
        assert_eq!(&buf[6..], write_object(&o).as_slice());
    }

    #[test]
    fn decimal_lengths_match_to_string() {
        for n in [0usize, 1, 9, 10, 42, 999, 1000, usize::MAX] {
            let mut out = Vec::new();
            push_decimal(n, &mut out);
            assert_eq!(out, n.to_string().into_bytes());
        }
    }

    #[test]
    fn the_writer_writes_what_an_object_sink_collects() {
        fn body(sink: &mut impl AttrSink) {
            sink.attr("Version", b"STARTS 1.0");
            sink.attr_fmt("TermStats", |v| v.push_str("line one\nline two"));
            sink.attr("RankingExpression", b"");
            sink.attr_fmt("DocSize", |v| v.push_str("248"));
        }
        let mut object = SoifObject::new("SQRDocument");
        body(&mut object);
        let mut direct = b"prefix".to_vec();
        SoifWriter::new(&mut direct).object("SQRDocument", body);
        assert_eq!(&direct[..6], b"prefix");
        assert_eq!(&direct[6..], write_object(&object).as_slice());
    }

    #[test]
    fn stream_layout() {
        let a = SoifObject::new("SQResults");
        let b = SoifObject::new("SQRDocument");
        let got = String::from_utf8(write_stream(&[a, b])).unwrap();
        assert_eq!(got, "@SQResults{\n}\n\n@SQRDocument{\n}\n");
    }
}
