//! SOIF parsing: strict byte-counted parsing plus a lenient mode that
//! recovers from the hand-computed (occasionally wrong) byte counts found
//! in the paper's printed examples.

use std::fmt;

use crate::object::{SoifAttr, SoifObject};

/// How strictly to trust declared byte counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseMode {
    /// Trust counts exactly; any framing violation is an error.
    #[default]
    Strict,
    /// Use the count, but if the byte after the value is not a newline
    /// (i.e. the count was wrong), re-scan the value line-by-line until a
    /// line that looks like the next attribute header or the closing `}`.
    Lenient,
}

/// Parse errors, with byte offsets into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Expected `@Template{`, found something else.
    ExpectedObjectStart {
        /// Byte offset of the violation.
        offset: usize,
    },
    /// Attribute header was malformed (missing `{`, `}`, `:` …).
    BadAttributeHeader {
        /// Byte offset of the violation.
        offset: usize,
    },
    /// Declared byte count is not a number.
    BadByteCount {
        /// Byte offset of the violation.
        offset: usize,
    },
    /// Input ended inside an object or value.
    UnexpectedEof {
        /// Byte offset where input ran out.
        offset: usize,
    },
    /// Value did not end at a newline where strict mode demanded one.
    CountMismatch {
        /// Byte offset where the value should have ended.
        offset: usize,
        /// The attribute whose count was wrong.
        attr: String,
    },
    /// Template or attribute name is not valid UTF-8 / contains bad chars.
    BadName {
        /// Byte offset of the name.
        offset: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::ExpectedObjectStart { offset } => {
                write!(f, "expected '@Template{{' at byte {offset}")
            }
            ParseError::BadAttributeHeader { offset } => {
                write!(f, "malformed attribute header at byte {offset}")
            }
            ParseError::BadByteCount { offset } => {
                write!(f, "malformed byte count at byte {offset}")
            }
            ParseError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
            ParseError::CountMismatch { offset, attr } => write!(
                f,
                "byte count of attribute {attr:?} does not end at a line boundary (byte {offset})"
            ),
            ParseError::BadName { offset } => write!(f, "invalid name at byte {offset}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse exactly one object; trailing input after it is an error only if
/// it is not whitespace.
pub fn parse_one(input: &[u8], mode: ParseMode) -> Result<SoifObject, ParseError> {
    let mut reader = SoifReader::new(input, mode);
    let obj = reader
        .next_object()?
        .ok_or(ParseError::UnexpectedEof { offset: 0 })?;
    reader.finish()?;
    Ok(obj)
}

/// Parse a stream of objects (e.g. `@SQResults` followed by
/// `@SQRDocument`s).
pub fn parse(input: &[u8], mode: ParseMode) -> Result<Vec<SoifObject>, ParseError> {
    let mut reader = SoifReader::new(input, mode);
    let mut out = Vec::new();
    while let Some(obj) = reader.next_object()? {
        out.push(obj);
    }
    Ok(out)
}

/// One attribute as it stands in the input: its name and its value
/// bytes, both borrowed.
pub type AttrRef<'a> = (&'a str, &'a [u8]);

/// The opening line of an object, borrowed from the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectHead<'a> {
    /// Template type without the leading `@` (e.g. `SQuery`).
    pub template: &'a str,
    /// The optional URL after `{`.
    pub url: Option<&'a str>,
}

/// Incremental reader over a byte buffer.
///
/// It reads an object as its head ([`SoifReader::next_head`]) and then
/// its attributes one at a time ([`SoifReader::next_attr`]), every name
/// and value a slice of the input: a typed decoder copies only what it
/// keeps. [`SoifReader::next_object`] collects the same into an owned
/// [`SoifObject`]. A framing error ends the object it was found in.
pub struct SoifReader<'a> {
    input: &'a [u8],
    pos: usize,
    mode: ParseMode,
    /// Whether an object's head has been read and its closing `}` not.
    open: bool,
}

impl<'a> SoifReader<'a> {
    /// Create a reader over `input`.
    pub fn new(input: &'a [u8], mode: ParseMode) -> Self {
        SoifReader {
            input,
            pos: 0,
            mode,
            open: false,
        }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether all input has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Skip ASCII whitespace between objects.
    pub fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Read the next object, or `None` at (whitespace-padded) end of input.
    pub fn next_object(&mut self) -> Result<Option<SoifObject>, ParseError> {
        let Some(head) = self.next_head()? else {
            return Ok(None);
        };
        let mut obj = SoifObject {
            template: head.template.to_string(),
            url: head.url.map(str::to_string),
            attrs: Vec::new(),
        };
        while let Some((name, value)) = self.next_attr()? {
            obj.attrs.push(SoifAttr {
                name: name.to_string(),
                value: value.to_vec(),
            });
        }
        Ok(Some(obj))
    }

    /// Open the next object and return its head, or `None` at
    /// (whitespace-padded) end of input. Whatever is left of the object
    /// opened before is read first, and its framing errors are this
    /// call's.
    pub fn next_head(&mut self) -> Result<Option<ObjectHead<'a>>, ParseError> {
        while self.next_attr()?.is_some() {}
        self.skip_ws();
        if self.at_end() {
            return Ok(None);
        }
        if self.input[self.pos] != b'@' {
            return Err(ParseError::ExpectedObjectStart { offset: self.pos });
        }
        self.pos += 1;
        let template = self.read_name(b'{')?;
        // '{' consumed by read_name. Optional " url" up to newline.
        let mut url = None;
        let line_end = self.find(b'\n')?;
        if line_end > self.pos {
            let raw = &self.input[self.pos..line_end];
            let raw = trim_ascii(raw);
            if !raw.is_empty() {
                url = Some(
                    std::str::from_utf8(raw)
                        .map_err(|_| ParseError::BadName { offset: self.pos })?,
                );
            }
        }
        self.pos = line_end + 1;
        self.open = true;
        Ok(Some(ObjectHead { template, url }))
    }

    /// The open object's next attribute, or `None` once its closing `}`
    /// is consumed (and whenever no object is open).
    pub fn next_attr(&mut self) -> Result<Option<AttrRef<'a>>, ParseError> {
        if !self.open {
            return Ok(None);
        }
        self.skip_blank_lines();
        let attr = if self.at_end() {
            Err(ParseError::UnexpectedEof { offset: self.pos })
        } else if self.input[self.pos] == b'}' {
            self.pos += 1;
            // consume the rest of the line if present
            if self.pos < self.input.len() && self.input[self.pos] == b'\n' {
                self.pos += 1;
            }
            Ok(None)
        } else {
            self.read_attribute().map(Some)
        };
        self.open = matches!(attr, Ok(Some(_)));
        attr
    }

    /// The open object's remaining attributes, as an iterator that ends
    /// with the object (or with its first framing error).
    pub fn attrs(&mut self) -> impl Iterator<Item = Result<AttrRef<'a>, ParseError>> + '_ {
        std::iter::from_fn(move || self.next_attr().transpose())
    }

    /// Read the rest of the open object, then require that only
    /// whitespace follows: the end of a one-object message.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        while self.next_attr()?.is_some() {}
        self.skip_ws();
        if self.at_end() {
            Ok(())
        } else {
            Err(ParseError::ExpectedObjectStart { offset: self.pos })
        }
    }

    fn skip_blank_lines(&mut self) {
        while self.pos < self.input.len()
            && (self.input[self.pos] == b'\n' || self.input[self.pos] == b'\r')
        {
            self.pos += 1;
        }
    }

    fn find(&self, byte: u8) -> Result<usize, ParseError> {
        self.input[self.pos..]
            .iter()
            .position(|&b| b == byte)
            .map(|i| self.pos + i)
            .ok_or(ParseError::UnexpectedEof {
                offset: self.input.len(),
            })
    }

    /// Read a name terminated by `stop` (consuming the terminator).
    fn read_name(&mut self, stop: u8) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while self.pos < self.input.len() {
            let b = self.input[self.pos];
            if b == stop {
                let name = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| ParseError::BadName { offset: start })?;
                if name.is_empty() || name.bytes().any(|b| b.is_ascii_whitespace()) {
                    return Err(ParseError::BadName { offset: start });
                }
                self.pos += 1;
                return Ok(name);
            }
            if b == b'\n' {
                return Err(ParseError::BadAttributeHeader { offset: start });
            }
            self.pos += 1;
        }
        Err(ParseError::UnexpectedEof { offset: self.pos })
    }

    fn read_attribute(&mut self) -> Result<AttrRef<'a>, ParseError> {
        let input = self.input;
        let header_start = self.pos;
        let name = self.read_name(b'{')?;
        // Byte count.
        let count_start = self.pos;
        let close = self.find(b'}')?;
        let count: usize = std::str::from_utf8(&input[count_start..close])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or(ParseError::BadByteCount {
                offset: count_start,
            })?;
        self.pos = close + 1;
        // Expect ':' then optional single space/tab.
        if self.pos >= input.len() || input[self.pos] != b':' {
            return Err(ParseError::BadAttributeHeader {
                offset: header_start,
            });
        }
        self.pos += 1;
        if self.pos < input.len() && (input[self.pos] == b' ' || input[self.pos] == b'\t') {
            self.pos += 1;
        }
        // Read exactly `count` bytes. A count past the end (however
        // large) is out of bounds, never an overflow.
        let value_end = match self
            .pos
            .checked_add(count)
            .filter(|&end| end <= input.len())
        {
            Some(end) => end,
            None if self.mode == ParseMode::Strict => {
                return Err(ParseError::UnexpectedEof {
                    offset: input.len(),
                })
            }
            None => return Ok((name, self.resync())),
        };
        let ends_cleanly =
            value_end == input.len() || input[value_end] == b'\n' || input[value_end] == b'\r';
        if ends_cleanly {
            let value = &input[self.pos..value_end];
            self.pos = value_end;
            if self.pos < input.len() && input[self.pos] == b'\r' {
                self.pos += 1;
            }
            if self.pos < input.len() && input[self.pos] == b'\n' {
                self.pos += 1;
            }
            return Ok((name, value));
        }
        match self.mode {
            ParseMode::Strict => Err(ParseError::CountMismatch {
                offset: value_end,
                attr: name.to_string(),
            }),
            ParseMode::Lenient => Ok((name, self.resync())),
        }
    }

    /// Lenient recovery from a wrong byte count (the paper's examples
    /// contain such): take lines until one starts a plausible attribute
    /// header (`Name{digits}:`) or closes the object; they are the value.
    fn resync(&mut self) -> &'a [u8] {
        let input = self.input;
        let mut end = self.pos;
        loop {
            let line_end = input[end..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|i| end + i)
                .unwrap_or(input.len());
            let next_line_start = (line_end + 1).min(input.len());
            if next_line_start >= input.len() {
                end = line_end;
                break;
            }
            let rest = &input[next_line_start..];
            if rest.starts_with(b"}") || looks_like_attr_header(rest) {
                end = line_end;
                break;
            }
            end = next_line_start;
        }
        let value = &input[self.pos..end];
        self.pos = (end + 1).min(input.len());
        value
    }
}

fn trim_ascii(mut b: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = b {
        if first.is_ascii_whitespace() {
            b = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., last] = b {
        if last.is_ascii_whitespace() {
            b = rest;
        } else {
            break;
        }
    }
    b
}

/// Heuristic: does this line start with `Name{digits}:`?
fn looks_like_attr_header(line: &[u8]) -> bool {
    let Some(open) = line.iter().position(|&b| b == b'{') else {
        return false;
    };
    if open == 0 || line[..open].iter().any(|b| b.is_ascii_whitespace()) {
        return false;
    }
    let rest = &line[open + 1..];
    let Some(close) = rest.iter().position(|&b| b == b'}') else {
        return false;
    };
    if close == 0 || !rest[..close].iter().all(|b| b.is_ascii_digit()) {
        return false;
    }
    rest.get(close + 1) == Some(&b':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::write_object;

    #[test]
    fn parses_example6_shape() {
        let text = "@SQuery{\n\
            Version{10}: STARTS 1.0\n\
            FilterExpression{48}: ((author \"Ullman\") and (title stem \"databases\"))\n\
            DropStopWords{1}: T\n\
            MaxNumberDocuments{2}: 10\n\
            }\n";
        let obj = parse_one(text.as_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(obj.template, "SQuery");
        assert_eq!(obj.get_str("Version"), Some("STARTS 1.0"));
        assert_eq!(
            obj.get_str("FilterExpression"),
            Some("((author \"Ullman\") and (title stem \"databases\"))")
        );
        assert_eq!(obj.get_str("MaxNumberDocuments"), Some("10"));
    }

    #[test]
    fn multi_line_value_via_count() {
        let value =
            "(body-of-text \"distributed\") 10 0.31 190\n(body-of-text \"databases\") 15 0.51 232";
        let text = format!(
            "@SQRDocument{{\nTermStats{{{}}}: {}\n}}\n",
            value.len(),
            value
        );
        let obj = parse_one(text.as_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(obj.get_str("TermStats"), Some(value));
    }

    #[test]
    fn stream_of_objects() {
        let text = "@SQResults{\nNumDocSOIFs{1}: 1\n}\n\n@SQRDocument{\nRawScore{4}: 0.82\n}\n";
        let objs = parse(text.as_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0].template, "SQResults");
        assert_eq!(objs[1].template, "SQRDocument");
    }

    #[test]
    fn strict_rejects_wrong_count() {
        // Count says 5 but the value is 4 bytes then newline.
        let text = "@SQuery{\nDropStopWords{5}: T\nMaxNumberDocuments{2}: 10\n}\n";
        let err = parse_one(text.as_bytes(), ParseMode::Strict).unwrap_err();
        assert!(matches!(
            err,
            ParseError::CountMismatch { .. } | ParseError::BadAttributeHeader { .. }
        ));
    }

    #[test]
    fn lenient_recovers_from_wrong_count() {
        // The paper's Example 10 declares FieldsSupported{17} for a
        // 16-byte value. Lenient mode should recover the real value.
        let text = "@SMetaAttributes{\n\
            FieldsSupported{17}: [basic-1 author]\n\
            QueryPartsSupported{2}: RF\n\
            }\n";
        let obj = parse_one(text.as_bytes(), ParseMode::Lenient).unwrap();
        assert_eq!(obj.get_str("FieldsSupported"), Some("[basic-1 author]"));
        assert_eq!(obj.get_str("QueryPartsSupported"), Some("RF"));
    }

    #[test]
    fn lenient_wrong_count_multiline() {
        // Wrong count over a multi-line value: resync must stop at the
        // next plausible header, keeping both lines of the value.
        let text = "@SQRDocument{\n\
            TermStats{999}: line one\nline two\n\
            DocSize{3}: 248\n\
            }\n";
        let obj = parse_one(text.as_bytes(), ParseMode::Lenient).unwrap();
        assert_eq!(obj.get_str("TermStats"), Some("line one\nline two"));
        assert_eq!(obj.get_str("DocSize"), Some("248"));
    }

    #[test]
    fn eof_inside_object() {
        let text = "@SQuery{\nVersion{10}: STARTS 1.0\n";
        let err = parse_one(text.as_bytes(), ParseMode::Strict).unwrap_err();
        assert!(matches!(err, ParseError::UnexpectedEof { .. }));
    }

    #[test]
    fn garbage_input() {
        assert!(matches!(
            parse_one(b"not soif", ParseMode::Strict),
            Err(ParseError::ExpectedObjectStart { .. })
        ));
        assert!(parse(b"", ParseMode::Strict).unwrap().is_empty());
        assert!(parse(b"   \n\n ", ParseMode::Strict).unwrap().is_empty());
    }

    #[test]
    fn empty_object() {
        let objs = parse(b"@SResource{\n}\n", ParseMode::Strict).unwrap();
        assert_eq!(objs.len(), 1);
        assert!(objs[0].is_empty());
    }

    #[test]
    fn url_slot_round_trip() {
        let mut o = SoifObject::new("FILE");
        o.url = Some("http://example.org/a".to_string());
        o.push_str("x", "y");
        let enc = write_object(&o);
        let back = parse_one(&enc, ParseMode::Strict).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn crlf_tolerated_after_value() {
        let text = "@SQuery{\r\nDropStopWords{1}: T\r\n}\r\n";
        let obj = parse_one(text.as_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(obj.get_str("DropStopWords"), Some("T"));
    }

    #[test]
    fn value_with_trailing_byte_noise_rejected_strict() {
        let text = "@SQuery{\nDropStopWords{1}: TX\n}\n";
        assert!(parse_one(text.as_bytes(), ParseMode::Strict).is_err());
    }

    #[test]
    fn borrowed_attributes_are_slices_of_the_input() {
        let text = b"@SQResults{\nNumDocSOIFs{1}: 1\n}\n\n@SQRDocument{ http://x/\nRawScore{4}: 0.82\nDocSize{3}: 248\n}\n";
        let mut reader = SoifReader::new(text, ParseMode::Strict);
        let head = reader.next_head().unwrap().unwrap();
        assert_eq!((head.template, head.url), ("SQResults", None));
        // A head read before the object was finished finishes it first.
        let head = reader.next_head().unwrap().unwrap();
        assert_eq!(
            (head.template, head.url),
            ("SQRDocument", Some("http://x/"))
        );
        let attrs: Vec<_> = reader.attrs().collect::<Result<_, _>>().unwrap();
        assert_eq!(
            attrs,
            [("RawScore", &b"0.82"[..]), ("DocSize", &b"248"[..])]
        );
        assert_eq!(reader.next_attr(), Ok(None));
        assert_eq!(reader.next_head(), Ok(None));
        assert_eq!(parse(text, ParseMode::Strict).unwrap().len(), 2);
    }

    #[test]
    fn a_count_past_any_input_is_out_of_bounds_not_an_overflow() {
        let text = "@SQuery{\nVersion{18446744073709551615}: STARTS 1.0\n}\n";
        assert!(matches!(
            parse_one(text.as_bytes(), ParseMode::Strict),
            Err(ParseError::UnexpectedEof { .. })
        ));
        let obj = parse_one(text.as_bytes(), ParseMode::Lenient).unwrap();
        assert_eq!(obj.get_str("Version"), Some("STARTS 1.0"));
    }

    #[test]
    fn zero_length_value() {
        let text = "@SQuery{\nRankingExpression{0}: \n}\n";
        let obj = parse_one(text.as_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(obj.get_str("RankingExpression"), Some(""));
    }
}
