//! Source content summaries (§4.3.2) and their `@SContentSummary` SOIF
//! binding (Example 11).
//!
//! "We require that each source export partial data about its contents.
//! This data is automatically generated, is orders of magnitude smaller
//! than the original contents, and has proven useful in distinguishing
//! the more useful from the less useful sources for a given query
//! [GlOSS, refs 7–8]." A summary is a word list with per-word statistics
//! (total postings and/or document frequency) plus the total document
//! count, optionally sectioned by field and language.

use std::collections::hash_map::RandomState;
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hasher};

use starts_soif::{AttrSink, ParseMode, SoifWriter, STARTS_VERSION, VERSION_ATTR};
use starts_text::LangTag;

use crate::codec::{decode_one, text, Attrs, FirstWins};
use crate::error::ProtoError;
use crate::query::parse_bool;

const SSUMMARY: &str = "SContentSummary";

/// The header flags a decoder reads; the first value of each wins.
const SUMMARY_FLAGS: &[&str] = &["Stemming", "StopWords", "CaseSensitive", "NumDocs"];

/// The attributes of a section, read at every occurrence.
const SECTION_ATTRS: [&str; 3] = ["Field", "Language", "TermDocFreq"];

/// Statistics for one word. "Statistics for each word listed, including
/// at least one of: total number of postings …, document frequency."
#[derive(Debug, Clone, PartialEq)]
pub struct TermSummary {
    /// The word (unstemmed and case-preserved "if possible").
    pub term: String,
    /// Total occurrences in the source.
    pub total_postings: Option<u64>,
    /// Number of documents containing the word.
    pub doc_freq: Option<u32>,
}

/// One section of the summary: the words of one field–language slice
/// (Example 11 has an `en-US` title section and an `es` title section).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SummarySection {
    /// The field the words occurred in, if field-qualified.
    pub field: Option<String>,
    /// The language of the words, if qualified.
    pub language: Option<LangTag>,
    /// The words with their statistics.
    pub terms: Vec<TermSummary>,
}

/// A source's exported content summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ContentSummary {
    /// Whether the listed words are stemmed ("if possible … not").
    pub stemmed: bool,
    /// Whether the list includes stop words ("should include" them; the
    /// flag is `T` when stop words are ABSENT in the original Harvest
    /// sense — here: `stop_words_included = F` ⇔ Example 11's
    /// `StopWords{1}: F` meaning the list has none removed... The paper's
    /// flag reads "whether the words listed include stop words or not";
    /// we store exactly that.
    pub stop_words_included: bool,
    /// Whether the words are case sensitive.
    pub case_sensitive: bool,
    /// Total number of documents in the source.
    pub num_docs: u32,
    /// The word sections. With field qualification off, a single section
    /// with `field: None`.
    pub sections: Vec<SummarySection>,
}

impl ContentSummary {
    /// Whether words carry field qualification (the `Fields` flag).
    pub fn fields_qualified(&self) -> bool {
        self.sections.iter().any(|s| s.field.is_some())
    }

    /// Total number of distinct (section, word) entries.
    pub fn total_terms(&self) -> usize {
        self.sections.iter().map(|s| s.terms.len()).sum()
    }

    /// Look up a word's statistics in a given field (None = any
    /// section), case per the summary's own flag: the first section in
    /// order that passes the field rule and lists the word, and the
    /// first such word in it.
    ///
    /// This linear scan is the *definition*; anything that looks words
    /// up per query holds an [`IndexedSummary`], whose `lookup` returns
    /// the same entry without walking the vocabulary.
    pub fn lookup(&self, field: Option<&str>, term: &str) -> Option<&TermSummary> {
        for section in &self.sections {
            if let Some(f) = field {
                match &section.field {
                    Some(sf) if sf.eq_ignore_ascii_case(f) => {}
                    // Unqualified summaries match any requested field.
                    None => {}
                    _ => continue,
                }
            }
            let found = section.terms.iter().find(|t| {
                if self.case_sensitive {
                    t.term == term
                } else {
                    t.term.eq_ignore_ascii_case(term)
                }
            });
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Document frequency of a word (0 when absent) — the statistic
    /// GlOSS-style source selection consumes.
    pub fn df(&self, field: Option<&str>, term: &str) -> u32 {
        self.lookup(field, term)
            .and_then(|t| t.doc_freq)
            .unwrap_or(0)
    }

    /// The wire form of the `@SContentSummary` object (Example 11's
    /// layout: header flags, then repeated `Field`/`Language`/
    /// `TermDocFreq` attribute groups).
    pub fn to_soif_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        SoifWriter::new(&mut out).object(SSUMMARY, |w| self.encode(w));
        out
    }

    /// Decode the one `@SContentSummary` object that `bytes` hold.
    pub fn from_soif_bytes(bytes: &[u8], mode: ParseMode) -> Result<ContentSummary, ProtoError> {
        decode_one(bytes, mode, SSUMMARY, |r| Self::decode(r.attrs()))
    }

    fn encode(&self, sink: &mut impl AttrSink) {
        sink.attr(VERSION_ATTR, STARTS_VERSION.as_bytes());
        sink.attr("Stemming", tf(self.stemmed));
        sink.attr("StopWords", tf(self.stop_words_included));
        sink.attr("CaseSensitive", tf(self.case_sensitive));
        sink.attr("Fields", tf(self.fields_qualified()));
        sink.attr_fmt("NumDocs", |v| {
            let _ = write!(v, "{}", self.num_docs);
        });
        for section in &self.sections {
            if let Some(f) = &section.field {
                sink.attr("Field", f.as_bytes());
            }
            if let Some(l) = &section.language {
                sink.attr_fmt("Language", |v| {
                    let _ = write!(v, "{l}");
                });
            }
            sink.attr_fmt("TermDocFreq", |v| {
                for (i, t) in section.terms.iter().enumerate() {
                    if i > 0 {
                        v.push('\n');
                    }
                    write_term(v, t);
                }
            });
        }
    }

    /// The first value of each header flag is read; every `Field`,
    /// `Language` and `TermDocFreq` is read, in order: `Field` and
    /// `Language` head the section that the next `TermDocFreq` closes.
    /// What is read must be UTF-8; anything else is skipped unread.
    fn decode<'a>(attrs: impl Attrs<'a>) -> Result<ContentSummary, ProtoError> {
        let mut summary = ContentSummary {
            stop_words_included: true,
            ..ContentSummary::default()
        };
        let mut num_docs = None;
        let (mut field, mut language) = (None, None);
        let mut first = FirstWins::new(SUMMARY_FLAGS);
        for attr in attrs {
            let (name, value) = attr?;
            let group = SECTION_ATTRS.iter().find(|n| n.eq_ignore_ascii_case(name));
            let Some(attr) = group.copied().or_else(|| first.claim(name)) else {
                continue;
            };
            let v = text(attr, value)?;
            match attr {
                "Stemming" => summary.stemmed = parse_bool(attr, v)?,
                "StopWords" => summary.stop_words_included = parse_bool(attr, v)?,
                "CaseSensitive" => summary.case_sensitive = parse_bool(attr, v)?,
                "NumDocs" => {
                    let n = v.trim().parse();
                    num_docs = Some(n.map_err(|_| ProtoError::invalid(attr, "not an integer"))?);
                }
                "Field" => field = Some(v.trim().to_string()),
                "Language" => {
                    let tag = LangTag::parse(v.trim());
                    language = Some(tag.map_err(|e| ProtoError::invalid(attr, e.to_string()))?);
                }
                "TermDocFreq" => summary.sections.push(SummarySection {
                    field: field.take(),
                    language: language.take(),
                    terms: v
                        .lines()
                        .filter(|l| !l.trim().is_empty())
                        .map(decode_term)
                        .collect::<Result<_, _>>()?,
                }),
                _ => {}
            }
        }
        summary.num_docs = num_docs.ok_or_else(|| ProtoError::missing(SSUMMARY, "NumDocs"))?;
        Ok(summary)
    }
}

/// One entry of an [`IndexedSummary`]'s table: where a word is, and
/// half of its hash, so that a probe passing over other words does not
/// have to read them.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    section: u32,
    term: u32,
}

const VACANT: Slot = Slot {
    tag: 0,
    section: u32::MAX,
    term: u32::MAX,
};

impl Slot {
    fn is_vacant(self) -> bool {
        self.section == VACANT.section
    }
}

/// A [`ContentSummary`] plus a hash table over its words, so a lookup
/// costs one probe instead of a walk of the vocabulary.
///
/// The table stores `(section, term)` *positions*, not strings: slots
/// are filled in section-then-term order under linear probing, and all
/// spellings of a word that are equal under the summary's case rule
/// hash alike, so the first admissible entry along the probe sequence
/// is the one [`ContentSummary::lookup`] returns. The summary is owned
/// and only readable (through `Deref`), so it cannot change behind the
/// table. Hashing is keyed per table ([`RandomState`]): summaries arrive
/// from sources, which must not be able to choose colliding words.
#[derive(Debug)]
pub struct IndexedSummary {
    summary: ContentSummary,
    keys: RandomState,
    /// Power-of-two length, at most two-thirds full.
    slots: Vec<Slot>,
}

impl IndexedSummary {
    /// Index `summary` (one hash per listed word).
    pub fn new(summary: ContentSummary) -> Self {
        let words = summary.total_terms();
        let mut indexed = IndexedSummary {
            slots: vec![VACANT; (words + words / 2 + 1).next_power_of_two()],
            keys: RandomState::new(),
            summary,
        };
        let mask = indexed.slots.len() - 1;
        for (s, section) in indexed.summary.sections.iter().enumerate() {
            for (t, word) in section.terms.iter().enumerate() {
                let (mut slot, tag) = indexed.home(&word.term);
                while !indexed.slots[slot].is_vacant() {
                    slot = (slot + 1) & mask;
                }
                indexed.slots[slot] = Slot {
                    tag,
                    section: u32::try_from(s).expect("fewer than 2^32 - 1 sections"),
                    term: u32::try_from(t).expect("fewer than 2^32 words in a section"),
                };
            }
        }
        indexed
    }

    /// The slot a word's probe sequence starts at, and its tag.
    fn home(&self, term: &str) -> (usize, u32) {
        let mut hasher = self.keys.build_hasher();
        if self.summary.case_sensitive {
            hasher.write(term.as_bytes());
        } else {
            for chunk in term.as_bytes().chunks(32) {
                let mut folded = [0u8; 32];
                folded[..chunk.len()].copy_from_slice(chunk);
                folded.make_ascii_lowercase();
                hasher.write(&folded[..chunk.len()]);
            }
        }
        let hash = hasher.finish();
        (hash as usize & (self.slots.len() - 1), (hash >> 32) as u32)
    }

    /// [`ContentSummary::lookup`], by one probe of the table.
    pub fn lookup(&self, field: Option<&str>, term: &str) -> Option<&TermSummary> {
        let mask = self.slots.len() - 1;
        let (mut slot, tag) = self.home(term);
        loop {
            let entry = self.slots[slot];
            if entry.is_vacant() {
                return None;
            }
            if entry.tag == tag {
                let section = &self.summary.sections[entry.section as usize];
                let word = &section.terms[entry.term as usize];
                let equal = if self.summary.case_sensitive {
                    word.term == term
                } else {
                    word.term.eq_ignore_ascii_case(term)
                };
                let admitted = || match (field, &section.field) {
                    (Some(f), Some(sf)) => sf.eq_ignore_ascii_case(f),
                    // No field asked for, or an unqualified section.
                    _ => true,
                };
                if equal && admitted() {
                    return Some(word);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// [`ContentSummary::df`], by one probe of the table.
    pub fn df(&self, field: Option<&str>, term: &str) -> u32 {
        self.lookup(field, term)
            .and_then(|t| t.doc_freq)
            .unwrap_or(0)
    }
}

impl std::ops::Deref for IndexedSummary {
    type Target = ContentSummary;

    fn deref(&self) -> &ContentSummary {
        &self.summary
    }
}

fn tf(b: bool) -> &'static [u8] {
    if b {
        b"T"
    } else {
        b"F"
    }
}

/// `"term" postings df`, with `-` for an absent statistic (the paper
/// requires at least one of the two).
fn write_term(out: &mut String, t: &TermSummary) {
    crate::lstring::write_quoted(out, &t.term);
    for stat in [t.total_postings, t.doc_freq.map(u64::from)] {
        match stat {
            Some(v) => {
                let _ = write!(out, " {v}");
            }
            None => out.push_str(" -"),
        }
    }
}

fn decode_term(line: &str) -> Result<TermSummary, ProtoError> {
    let trimmed = line.trim();
    if !trimmed.starts_with('"') {
        return Err(ProtoError::invalid(
            "TermDocFreq",
            format!("expected quoted term in {line:?}"),
        ));
    }
    // Find the closing quote (terms are single words; no escapes in
    // practice, but honour them anyway).
    let mut end = None;
    let bytes = trimmed.as_bytes();
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                end = Some(i);
                break;
            }
            _ => i += 1,
        }
    }
    let end = end.ok_or_else(|| ProtoError::invalid("TermDocFreq", "unterminated term"))?;
    let mut stats = trimmed[end + 1..].split_whitespace();
    let (Some(postings), Some(df), None) = (stats.next(), stats.next(), stats.next()) else {
        return Err(ProtoError::invalid(
            "TermDocFreq",
            format!("expected two statistics in {line:?}"),
        ));
    };
    let parse_stat = |s: &str| -> Result<Option<u64>, ProtoError> {
        if s == "-" {
            Ok(None)
        } else {
            s.parse()
                .map(Some)
                .map_err(|_| ProtoError::invalid("TermDocFreq", format!("bad statistic {s:?}")))
        }
    };
    let total_postings = parse_stat(postings)?;
    let doc_freq = parse_stat(df)?
        .map(u32::try_from)
        .transpose()
        .map_err(|_| ProtoError::invalid("TermDocFreq", format!("statistic {df} is too large")))?;
    if total_postings.is_none() && doc_freq.is_none() {
        return Err(ProtoError::invalid(
            "TermDocFreq",
            "at least one statistic (postings or document frequency) is required",
        ));
    }
    Ok(TermSummary {
        term: crate::lstring::unquote_contents(&trimmed[1..end], 0)?,
        total_postings,
        doc_freq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_soif::{parse_one, write_object, SoifObject};

    fn example11_summary() -> ContentSummary {
        ContentSummary {
            stemmed: false,
            stop_words_included: false,
            case_sensitive: false,
            num_docs: 892,
            sections: vec![
                SummarySection {
                    field: Some("title".to_string()),
                    language: Some(LangTag::en_us()),
                    terms: vec![
                        TermSummary {
                            term: "algorithm".to_string(),
                            total_postings: Some(100),
                            doc_freq: Some(53),
                        },
                        TermSummary {
                            term: "analysis".to_string(),
                            total_postings: Some(50),
                            doc_freq: Some(23),
                        },
                    ],
                },
                SummarySection {
                    field: Some("title".to_string()),
                    language: Some(LangTag::es()),
                    terms: vec![
                        TermSummary {
                            term: "algoritmo".to_string(),
                            total_postings: Some(23),
                            doc_freq: Some(11),
                        },
                        TermSummary {
                            term: "datos".to_string(),
                            total_postings: Some(59),
                            doc_freq: Some(12),
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn example11_encoding() {
        let s = example11_summary();
        let o = parse_one(&s.to_soif_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(o.get_str("Stemming"), Some("F"));
        assert_eq!(o.get_str("StopWords"), Some("F"));
        assert_eq!(o.get_str("CaseSensitive"), Some("F"));
        assert_eq!(o.get_str("Fields"), Some("T"));
        assert_eq!(o.get_str("NumDocs"), Some("892"));
        let fields: Vec<&str> = o.get_all_str("Field").collect();
        assert_eq!(fields, vec!["title", "title"]);
        let langs: Vec<&str> = o.get_all_str("Language").collect();
        assert_eq!(langs, vec!["en-US", "es"]);
        let tdf: Vec<&str> = o.get_all_str("TermDocFreq").collect();
        assert_eq!(tdf[0], "\"algorithm\" 100 53\n\"analysis\" 50 23");
        assert_eq!(tdf[1], "\"algoritmo\" 23 11\n\"datos\" 59 12");
    }

    #[test]
    fn round_trip() {
        let s = example11_summary();
        let back = ContentSummary::from_soif_bytes(&s.to_soif_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn lookup_and_df() {
        let s = example11_summary();
        // The paper's reading of Example 11: "the English word
        // 'algorithm' appears in the title of 53 documents, while the
        // Spanish word 'datos' appears in the title of 12 documents."
        assert_eq!(s.df(Some("title"), "algorithm"), 53);
        assert_eq!(s.df(Some("title"), "datos"), 12);
        assert_eq!(s.df(Some("title"), "missing"), 0);
        assert_eq!(s.df(Some("author"), "algorithm"), 0);
        // Case-insensitive summary.
        assert_eq!(s.df(Some("title"), "Algorithm"), 53);
    }

    #[test]
    fn case_sensitive_lookup() {
        let mut s = example11_summary();
        s.case_sensitive = true;
        assert_eq!(s.df(Some("title"), "Algorithm"), 0);
        assert_eq!(s.df(Some("title"), "algorithm"), 53);
    }

    #[test]
    fn unqualified_summary() {
        let s = ContentSummary {
            num_docs: 10,
            sections: vec![SummarySection {
                field: None,
                language: None,
                terms: vec![TermSummary {
                    term: "word".to_string(),
                    total_postings: None,
                    doc_freq: Some(4),
                }],
            }],
            ..ContentSummary::default()
        };
        let bytes = s.to_soif_bytes();
        let o = parse_one(&bytes, ParseMode::Strict).unwrap();
        assert_eq!(o.get_str("Fields"), Some("F"));
        assert!(!o.has("Field"));
        // Absent postings encodes as '-'.
        assert_eq!(o.get_str("TermDocFreq"), Some("\"word\" - 4"));
        let back = ContentSummary::from_soif_bytes(&bytes, ParseMode::Strict).unwrap();
        assert_eq!(back, s);
        // Field-qualified lookup still finds unqualified entries.
        assert_eq!(s.df(Some("title"), "word"), 4);
    }

    #[test]
    fn decode_errors() {
        assert!(decode_term("unquoted 1 2").is_err());
        assert!(decode_term("\"unterminated 1 2").is_err());
        assert!(decode_term("\"x\" 1").is_err());
        assert!(decode_term("\"x\" - -").is_err());
        assert!(decode_term("\"x\" a b").is_err());
    }

    #[test]
    fn missing_numdocs_rejected() {
        let o = write_object(&SoifObject::new("SContentSummary"));
        assert!(matches!(
            ContentSummary::from_soif_bytes(&o, ParseMode::Strict),
            Err(ProtoError::MissingAttribute { .. })
        ));
    }

    #[test]
    fn total_terms() {
        assert_eq!(example11_summary().total_terms(), 4);
    }
}
