//! Source metadata — the "MBasic-1" attribute set (§4.3.1) and its
//! `@SMetaAttributes` SOIF binding (Example 10).
//!
//! "Each source exports information about itself by giving values to the
//! metadata attributes below. A metasearcher can use this information to
//! rewrite the queries that it sends to each source." The set borrows
//! from Z39.50-1995 Exp-1 and GILS, with several new attributes the
//! participants deemed necessary (capability declarations, score ranges,
//! tokenizer ids, sample-database results).

use std::fmt::Write as _;

use starts_soif::{AttrSink, ParseMode, SoifWriter, STARTS_VERSION, VERSION_ATTR};
use starts_text::LangTag;

use crate::attrs::{Field, Modifier, ATTRSET_BASIC1, ATTRSET_MBASIC1};
use crate::codec::{decode_one, push_joined, text, Attrs, FirstWins};
use crate::error::ProtoError;
use crate::query::{parse_bool, write_weight};

const SMETA: &str = "SMetaAttributes";

/// The `@SMetaAttributes` attributes a decoder reads; the first value of
/// each wins.
const META_ATTRS: &[&str] = &[
    "SourceID",
    "FieldsSupported",
    "ModifiersSupported",
    "FieldModifierCombinations",
    "QueryPartsSupported",
    "ScoreRange",
    "RankingAlgorithmID",
    "TokenizerIDList",
    "SampleDatabaseResults",
    "StopWordList",
    "TurnOffStopWords",
    "source-languages",
    "source-name",
    "linkage",
    "content-summary-linkage",
    "date-changed",
    "date-expires",
    "abstract",
    "access-constraints",
    "contact",
];

/// `QueryPartsSupported`: "whether the source supports ranking
/// expressions only, filter expressions only, or both."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryParts {
    /// `R` — ranking expressions only (pure vector-space engines).
    Ranking,
    /// `F` — filter expressions only (pure Boolean engines, e.g. the
    /// paper's Glimpse example).
    Filter,
    /// `RF` — both.
    #[default]
    Both,
}

impl QueryParts {
    /// Wire form.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryParts::Ranking => "R",
            QueryParts::Filter => "F",
            QueryParts::Both => "RF",
        }
    }

    /// Parse the wire form.
    pub fn parse(s: &str) -> Result<Self, ProtoError> {
        match s.trim() {
            "R" => Ok(QueryParts::Ranking),
            "F" => Ok(QueryParts::Filter),
            "RF" | "FR" => Ok(QueryParts::Both),
            other => Err(ProtoError::invalid(
                "QueryPartsSupported",
                format!("expected R, F or RF, got {other:?}"),
            )),
        }
    }

    /// Does the source accept filter expressions?
    pub fn supports_filter(self) -> bool {
        matches!(self, QueryParts::Filter | QueryParts::Both)
    }

    /// Does the source accept ranking expressions?
    pub fn supports_ranking(self) -> bool {
        matches!(self, QueryParts::Ranking | QueryParts::Both)
    }
}

/// One legal field–modifier combination (`FieldModifierCombinations`):
/// e.g. "asking that an author name be stemmed might be illegal at a
/// source, even if the Author field and the Stem modifier are supported
/// in other contexts."
#[derive(Debug, Clone, PartialEq)]
pub struct FieldModCombo {
    /// The field.
    pub field: Field,
    /// The modifiers that may accompany it (one combination may list
    /// several, all legal together).
    pub modifiers: Vec<Modifier>,
}

/// The exported metadata of one source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceMetadata {
    /// The source's identifier (Example 10's `SourceID`).
    pub source_id: String,
    /// Optional fields supported for querying, each with the languages
    /// used in that field at the source. Required fields may also be
    /// listed to declare their languages.
    pub fields_supported: Vec<(Field, Vec<LangTag>)>,
    /// Modifiers supported, each with the languages it works for
    /// ("modifiers like Stem are language dependent").
    pub modifiers_supported: Vec<(Modifier, Vec<LangTag>)>,
    /// Legal field–modifier combinations.
    pub field_modifier_combinations: Vec<FieldModCombo>,
    /// Which query parts the source accepts.
    pub query_parts_supported: QueryParts,
    /// Score range `[min, max]` (may be infinite).
    pub score_range: (f64, f64),
    /// Opaque ranking-algorithm identifier: "even when we do not know
    /// the actual algorithm used it is useful to know that two sources
    /// use the same algorithm."
    pub ranking_algorithm_id: String,
    /// Tokenizers per language, e.g. `(Acme-1 en-US) (Acme-2 es)`.
    pub tokenizer_id_list: Vec<(String, LangTag)>,
    /// URL of query results for the sample document collection (§4.2's
    /// black-box calibration hook).
    pub sample_database_results: String,
    /// The source's stop words.
    pub stop_word_list: Vec<String>,
    /// Whether `DropStopWords: F` is honoured.
    pub turn_off_stop_words: bool,
    /// Languages of the source's documents.
    pub source_languages: Vec<LangTag>,
    /// Human-readable name.
    pub source_name: String,
    /// "The URL where the source should be queried."
    pub linkage: String,
    /// "The URL of the content summary of the source."
    pub content_summary_linkage: String,
    /// `DateChanged` (ISO date), if known.
    pub date_changed: Option<String>,
    /// `DateExpires` (ISO date), if set.
    pub date_expires: Option<String>,
    /// Free-text abstract of the collection.
    pub abstract_text: Option<String>,
    /// Access constraints (e.g. fees), free text.
    pub access_constraints: Option<String>,
    /// Administrative contact.
    pub contact: Option<String>,
}

impl Default for SourceMetadata {
    fn default() -> Self {
        SourceMetadata {
            source_id: String::new(),
            fields_supported: Vec::new(),
            modifiers_supported: Vec::new(),
            field_modifier_combinations: Vec::new(),
            query_parts_supported: QueryParts::Both,
            score_range: (0.0, 1.0),
            ranking_algorithm_id: String::new(),
            tokenizer_id_list: Vec::new(),
            sample_database_results: String::new(),
            stop_word_list: Vec::new(),
            turn_off_stop_words: true,
            source_languages: Vec::new(),
            source_name: String::new(),
            linkage: String::new(),
            content_summary_linkage: String::new(),
            date_changed: None,
            date_expires: None,
            abstract_text: None,
            access_constraints: None,
            contact: None,
        }
    }
}

impl SourceMetadata {
    /// Whether the source declares support for a field (required Basic-1
    /// fields are always supported: "the source must recognize these
    /// fields").
    pub fn supports_field(&self, field: &Field) -> bool {
        field.required() || self.fields_supported.iter().any(|(f, _)| f == field)
    }

    /// Whether the source declares support for a modifier. Comparison
    /// modifiers are grouped: declaring one `Cmp` declares them all (the
    /// paper's table treats `<, <=, =, >=, >, !=` as one row).
    pub fn supports_modifier(&self, modifier: &Modifier) -> bool {
        self.modifiers_supported.iter().any(|(m, _)| {
            m == modifier || matches!((m, modifier), (Modifier::Cmp(_), Modifier::Cmp(_)))
        })
    }

    /// Whether a field+modifier combination is legal. With an empty
    /// combination table, any supported field × supported modifier is
    /// legal; with a non-empty table, the table is authoritative for
    /// modified terms.
    pub fn combination_legal(&self, field: &Field, modifiers: &[Modifier]) -> bool {
        if modifiers.is_empty() {
            return self.supports_field(field);
        }
        if !self.supports_field(field) || !modifiers.iter().all(|m| self.supports_modifier(m)) {
            return false;
        }
        if self.field_modifier_combinations.is_empty() {
            return true;
        }
        self.field_modifier_combinations.iter().any(|combo| {
            &combo.field == field
                && modifiers.iter().all(|m| {
                    combo.modifiers.iter().any(|cm| {
                        cm == m || matches!((cm, m), (Modifier::Cmp(_), Modifier::Cmp(_)))
                    })
                })
        })
    }

    /// The wire form of the `@SMetaAttributes` object (Example 10's
    /// layout).
    pub fn to_soif_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        SoifWriter::new(&mut out).object(SMETA, |w| self.encode(w));
        out
    }

    /// Decode the one `@SMetaAttributes` object that `bytes` hold.
    pub fn from_soif_bytes(bytes: &[u8], mode: ParseMode) -> Result<SourceMetadata, ProtoError> {
        decode_one(bytes, mode, SMETA, |r| Self::decode(r.attrs()))
    }

    fn encode(&self, sink: &mut impl AttrSink) {
        sink.attr(VERSION_ATTR, STARTS_VERSION.as_bytes());
        sink.attr("SourceID", self.source_id.as_bytes());
        sink.attr_fmt("FieldsSupported", |v| {
            for (i, (field, langs)) in self.fields_supported.iter().enumerate() {
                write_item(v, i, ('[', ']'), field.name(), langs);
            }
        });
        sink.attr_fmt("ModifiersSupported", |v| {
            for (i, (modifier, langs)) in self.modifiers_supported.iter().enumerate() {
                write_item(v, i, ('{', '}'), modifier.name(), langs);
            }
        });
        sink.attr_fmt("FieldModifierCombinations", |v| {
            for (i, combo) in self.field_modifier_combinations.iter().enumerate() {
                v.push_str(if i > 0 { " (" } else { "(" });
                write_item(v, 0, ('[', ']'), combo.field.name(), &[]);
                for m in &combo.modifiers {
                    write_item(v, 1, ('{', '}'), m.name(), &[]);
                }
                v.push(')');
            }
        });
        sink.attr(
            "QueryPartsSupported",
            self.query_parts_supported.as_str().as_bytes(),
        );
        sink.attr_fmt("ScoreRange", |v| {
            write_score_bound(v, self.score_range.0);
            v.push(' ');
            write_score_bound(v, self.score_range.1);
        });
        sink.attr("RankingAlgorithmID", self.ranking_algorithm_id.as_bytes());
        if !self.tokenizer_id_list.is_empty() {
            sink.attr_fmt("TokenizerIDList", |v| {
                for (i, (id, lang)) in self.tokenizer_id_list.iter().enumerate() {
                    let _ = write!(v, "{}({id} {lang})", if i > 0 { " " } else { "" });
                }
            });
        }
        sink.attr(
            "SampleDatabaseResults",
            self.sample_database_results.as_bytes(),
        );
        sink.attr_fmt("StopWordList", |v| {
            push_joined(v, self.stop_word_list.iter().map(String::as_str))
        });
        let turn_off: &[u8] = if self.turn_off_stop_words { b"T" } else { b"F" };
        sink.attr("TurnOffStopWords", turn_off);
        sink.attr("DefaultMetaAttributeSet", ATTRSET_MBASIC1.as_bytes());
        if !self.source_languages.is_empty() {
            sink.attr_fmt("source-languages", |v| {
                write_langs(v, &self.source_languages)
            });
        }
        if !self.source_name.is_empty() {
            sink.attr("source-name", self.source_name.as_bytes());
        }
        for (name, value) in [
            ("linkage", Some(&self.linkage)),
            (
                "content-summary-linkage",
                Some(&self.content_summary_linkage),
            ),
            ("date-changed", self.date_changed.as_ref()),
            ("date-expires", self.date_expires.as_ref()),
            ("abstract", self.abstract_text.as_ref()),
            ("access-constraints", self.access_constraints.as_ref()),
            ("contact", self.contact.as_ref()),
        ] {
            if let Some(value) = value {
                sink.attr(name, value.as_bytes());
            }
        }
    }

    /// The first value of each attribute in [`META_ATTRS`] is read, and
    /// must be UTF-8; anything else is skipped unread.
    fn decode<'a>(attrs: impl Attrs<'a>) -> Result<SourceMetadata, ProtoError> {
        let mut m = SourceMetadata::default();
        let mut source_id = None;
        let mut first = FirstWins::new(META_ATTRS);
        for attr in attrs {
            let (name, value) = attr?;
            let Some(attr) = first.claim(name) else {
                continue;
            };
            let v = text(attr, value)?;
            let owned = || v.to_string();
            match attr {
                "SourceID" => source_id = Some(v),
                "FieldsSupported" => {
                    m.fields_supported = decode_lang_tagged(v, ('[', ']'), Field::parse)?
                }
                "ModifiersSupported" => {
                    m.modifiers_supported = decode_lang_tagged(v, ('{', '}'), Modifier::parse)?
                }
                "FieldModifierCombinations" => m.field_modifier_combinations = decode_combos(v)?,
                "QueryPartsSupported" => m.query_parts_supported = QueryParts::parse(v)?,
                "ScoreRange" => {
                    let mut bounds = v.split_whitespace();
                    let (Some(lo), Some(hi), None) = (bounds.next(), bounds.next(), bounds.next())
                    else {
                        return Err(ProtoError::invalid("ScoreRange", "expected two bounds"));
                    };
                    m.score_range = (parse_score_bound(lo)?, parse_score_bound(hi)?);
                }
                "RankingAlgorithmID" => m.ranking_algorithm_id = owned(),
                "TokenizerIDList" => m.tokenizer_id_list = decode_tokenizers(v)?,
                "SampleDatabaseResults" => m.sample_database_results = owned(),
                "StopWordList" => {
                    m.stop_word_list = v.split_whitespace().map(str::to_string).collect()
                }
                "TurnOffStopWords" => m.turn_off_stop_words = parse_bool(attr, v)?,
                "source-languages" => m.source_languages = parse_langs(v, attr)?,
                "source-name" => m.source_name = owned(),
                "linkage" => m.linkage = owned(),
                "content-summary-linkage" => m.content_summary_linkage = owned(),
                "date-changed" => m.date_changed = Some(owned()),
                "date-expires" => m.date_expires = Some(owned()),
                "abstract" => m.abstract_text = Some(owned()),
                "access-constraints" => m.access_constraints = Some(owned()),
                "contact" => m.contact = Some(owned()),
                _ => {}
            }
        }
        m.source_id = source_id
            .ok_or_else(|| ProtoError::missing(SMETA, "SourceID"))?
            .to_string();
        Ok(m)
    }
}

/// Infinite bounds by name; finite ones always with a decimal point ("0.0").
fn write_score_bound(out: &mut String, v: f64) {
    if v == f64::INFINITY {
        out.push_str("Infinity");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else if v.fract() == 0.0 {
        let _ = write!(out, "{v:.1}");
    } else {
        write_weight(out, v);
    }
}

fn parse_score_bound(s: &str) -> Result<f64, ProtoError> {
    match s {
        "Infinity" | "+Infinity" | "inf" => Ok(f64::INFINITY),
        "-Infinity" | "-inf" => Ok(f64::NEG_INFINITY),
        _ => s
            .parse()
            .map_err(|_| ProtoError::invalid("ScoreRange", format!("bad bound {s:?}"))),
    }
}

/// Languages separated by single spaces.
fn write_langs(out: &mut String, langs: &[LangTag]) {
    for (i, lang) in langs.iter().enumerate() {
        let _ = write!(out, "{}{lang}", if i > 0 { " " } else { "" });
    }
}

/// Write item `i` of a `[set name]` / `{set name}` list: a
/// parentheses-free language list after the name would be ambiguous, so
/// languages go inside the delimiters after a `;` when present —
/// `[basic-1 author; en-US es]`. A name that carries its own set
/// (`gils author`, read by [`item_name`]) is written as it is.
fn write_item(
    out: &mut String,
    i: usize,
    (open, close): (char, char),
    name: &str,
    langs: &[LangTag],
) {
    if i > 0 {
        out.push(' ');
    }
    out.push(open);
    if !name.contains(char::is_whitespace) {
        out.push_str(ATTRSET_BASIC1);
        out.push(' ');
    }
    out.push_str(name);
    if !langs.is_empty() {
        out.push_str("; ");
        write_langs(out, langs);
    }
    out.push(close);
}

/// The bodies of a run of `open … close` groups, such as `(a b) (c d)`:
/// each group ends at the first `close` after its `open`.
fn groups<'v>(
    v: &'v str,
    attr: &'static str,
    (open, close): (char, char),
) -> impl Iterator<Item = Result<&'v str, ProtoError>> {
    let mut rest = v.trim();
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let group = rest.strip_prefix(open).and_then(|r| r.split_once(close));
        let Some((body, after)) = group else {
            rest = "";
            let message = format!("expected {open:?} … {close:?} in {v:?}");
            return Some(Err(ProtoError::invalid(attr, message)));
        };
        rest = after.trim_start();
        Some(Ok(body))
    })
}

/// Space-separated language tags.
fn parse_langs(v: &str, attr: &str) -> Result<Vec<LangTag>, ProtoError> {
    let parse = |t| LangTag::parse(t).map_err(|e| ProtoError::invalid(attr, e.to_string()));
    v.split_whitespace().map(parse).collect()
}

/// The attribute an item's `set name` (or bare `name`) names: a
/// leading `basic-1` (ASCII case ignored) is dropped, so `[basic-1
/// author]` reads as [`Field::Author`]; any other set is kept with the
/// name, so `[gils author]` reads as `Field::Other("gils author")`
/// (§4.1.1 qualifies other sets' attributes by their set).
fn item_name<'v>(spec: &'v str, attr: &'static str) -> Result<&'v str, ProtoError> {
    let spec = spec.trim();
    let name = match spec.split_once(char::is_whitespace) {
        Some((set, name)) if set.eq_ignore_ascii_case(ATTRSET_BASIC1) => name.trim_start(),
        _ => spec,
    };
    if name.is_empty() {
        return Err(ProtoError::invalid(attr, "empty item"));
    }
    Ok(name)
}

fn decode_lang_tagged<T>(
    v: &str,
    delimiters: (char, char),
    parse: impl Fn(&str) -> T,
) -> Result<Vec<(T, Vec<LangTag>)>, ProtoError> {
    const ATTR: &str = "FieldsSupported/ModifiersSupported";
    groups(v, ATTR, delimiters)
        .map(|body| {
            let body = body?;
            let (spec, langs) = match body.split_once(';') {
                Some((spec, langs)) => (spec, parse_langs(langs, ATTR)?),
                None => (body, Vec::new()),
            };
            Ok((parse(item_name(spec, ATTR)?), langs))
        })
        .collect()
}

fn decode_combos(v: &str) -> Result<Vec<FieldModCombo>, ProtoError> {
    const ATTR: &str = "FieldModifierCombinations";
    groups(v, ATTR, ('(', ')'))
        .map(|body| {
            let (mut field, mut modifiers) = (None, Vec::new());
            let mut rest = body?.trim();
            while let Some(open) = rest.chars().next() {
                let close = match open {
                    '[' => ']',
                    '{' => '}',
                    other => {
                        return Err(ProtoError::invalid(ATTR, format!("unexpected {other:?}")))
                    }
                };
                let (item, after) = rest[1..]
                    .split_once(close)
                    .ok_or_else(|| ProtoError::invalid(ATTR, format!("missing {close:?}")))?;
                let name = item_name(item, ATTR)?;
                if open == '[' {
                    field = Some(Field::parse(name));
                } else {
                    modifiers.push(Modifier::parse(name));
                }
                rest = after.trim_start();
            }
            let field =
                field.ok_or_else(|| ProtoError::invalid(ATTR, "combination without a field"))?;
            Ok(FieldModCombo { field, modifiers })
        })
        .collect()
}

fn decode_tokenizers(v: &str) -> Result<Vec<(String, LangTag)>, ProtoError> {
    groups(v, "TokenizerIDList", ('(', ')'))
        .map(|body| {
            let mut parts = body?.split_whitespace();
            let (Some(id), Some(lang)) = (parts.next(), parts.next()) else {
                return Err(ProtoError::invalid(
                    "TokenizerIDList",
                    "expected an id and a language",
                ));
            };
            let lang = LangTag::parse(lang)
                .map_err(|e| ProtoError::invalid("TokenizerIDList", e.to_string()))?;
            Ok((id.to_string(), lang))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::CmpOp;
    use starts_soif::{parse_one, write_object, SoifObject};

    fn example10_metadata() -> SourceMetadata {
        SourceMetadata {
            source_id: "Source-1".to_string(),
            fields_supported: vec![(Field::Author, vec![])],
            modifiers_supported: vec![(Modifier::Phonetic, vec![])],
            field_modifier_combinations: vec![FieldModCombo {
                field: Field::Author,
                modifiers: vec![Modifier::Phonetic],
            }],
            query_parts_supported: QueryParts::Both,
            score_range: (0.0, 1.0),
            ranking_algorithm_id: "Acme-1".to_string(),
            tokenizer_id_list: vec![
                ("Acme-1".to_string(), LangTag::en_us()),
                ("Acme-2".to_string(), LangTag::es()),
            ],
            sample_database_results: "ftp://www-db.stanford.edu/sample_results.txt".to_string(),
            stop_word_list: vec!["the".to_string(), "of".to_string()],
            turn_off_stop_words: true,
            source_languages: vec![LangTag::en_us(), LangTag::es()],
            source_name: "Stanford DB Group".to_string(),
            linkage: "http://www-db.stanford.edu/cgi-bin/query".to_string(),
            content_summary_linkage: "ftp://www-db.stanford.edu/cont_sum.txt".to_string(),
            date_changed: Some("1996-03-31".to_string()),
            date_expires: None,
            abstract_text: None,
            access_constraints: None,
            contact: None,
        }
    }

    #[test]
    fn example10_encoding_values() {
        let o = parse_one(&example10_metadata().to_soif_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(o.get_str("SourceID"), Some("Source-1"));
        assert_eq!(o.get_str("FieldsSupported"), Some("[basic-1 author]"));
        assert_eq!(o.get_str("ModifiersSupported"), Some("{basic-1 phonetic}"));
        assert_eq!(
            o.get_str("FieldModifierCombinations"),
            Some("([basic-1 author] {basic-1 phonetic})")
        );
        assert_eq!(o.get_str("QueryPartsSupported"), Some("RF"));
        assert_eq!(o.get_str("ScoreRange"), Some("0.0 1.0"));
        assert_eq!(o.get_str("RankingAlgorithmID"), Some("Acme-1"));
        assert_eq!(
            o.get_str("TokenizerIDList"),
            Some("(Acme-1 en-US) (Acme-2 es)")
        );
        assert_eq!(o.get_str("DefaultMetaAttributeSet"), Some("mbasic-1"));
        assert_eq!(o.get_str("source-languages"), Some("en-US es"));
        assert_eq!(o.get_str("source-name"), Some("Stanford DB Group"));
        assert_eq!(o.get_str("date-changed"), Some("1996-03-31"));
    }

    #[test]
    fn soif_round_trip() {
        let m = example10_metadata();
        let back = SourceMetadata::from_soif_bytes(&m.to_soif_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn round_trip_with_languages_on_fields() {
        let m = SourceMetadata {
            source_id: "S".to_string(),
            fields_supported: vec![
                (Field::Title, vec![LangTag::en_us(), LangTag::es()]),
                (Field::Author, vec![]),
            ],
            modifiers_supported: vec![(Modifier::Stem, vec![LangTag::en()])],
            ..SourceMetadata::default()
        };
        let bytes = m.to_soif_bytes();
        let o = parse_one(&bytes, ParseMode::Strict).unwrap();
        assert_eq!(
            o.get_str("FieldsSupported"),
            Some("[basic-1 title; en-US es] [basic-1 author]")
        );
        assert_eq!(o.get_str("ModifiersSupported"), Some("{basic-1 stem; en}"));
        let back = SourceMetadata::from_soif_bytes(&bytes, ParseMode::Strict).unwrap();
        assert_eq!(back.fields_supported, m.fields_supported);
        assert_eq!(back.modifiers_supported, m.modifiers_supported);
    }

    #[test]
    fn infinite_score_range() {
        let m = SourceMetadata {
            source_id: "S".to_string(),
            score_range: (0.0, f64::INFINITY),
            ..SourceMetadata::default()
        };
        let bytes = m.to_soif_bytes();
        let o = parse_one(&bytes, ParseMode::Strict).unwrap();
        assert_eq!(o.get_str("ScoreRange"), Some("0.0 Infinity"));
        let back = SourceMetadata::from_soif_bytes(&bytes, ParseMode::Strict).unwrap();
        assert_eq!(back.score_range, (0.0, f64::INFINITY));
    }

    #[test]
    fn required_fields_always_supported() {
        let m = SourceMetadata::default();
        assert!(m.supports_field(&Field::Title));
        assert!(m.supports_field(&Field::Any));
        assert!(m.supports_field(&Field::Linkage));
        assert!(m.supports_field(&Field::DateLastModified));
        assert!(!m.supports_field(&Field::Author));
        assert!(!m.supports_field(&Field::Other("abstract".to_string())));
    }

    #[test]
    fn modifier_support_groups_comparisons() {
        let m = SourceMetadata {
            modifiers_supported: vec![(Modifier::Cmp(CmpOp::Eq), vec![])],
            ..SourceMetadata::default()
        };
        assert!(m.supports_modifier(&Modifier::Cmp(CmpOp::Gt)));
        assert!(!m.supports_modifier(&Modifier::Stem));
    }

    #[test]
    fn combination_legality() {
        let m = example10_metadata();
        // author+phonetic is declared legal.
        assert!(m.combination_legal(&Field::Author, &[Modifier::Phonetic]));
        // author+stem: stem is not even supported.
        assert!(!m.combination_legal(&Field::Author, &[Modifier::Stem]));
        // title (required) with no modifiers: legal.
        assert!(m.combination_legal(&Field::Title, &[]));
        // title+phonetic: both supported individually but the combination
        // table does not list it.
        assert!(!m.combination_legal(&Field::Title, &[Modifier::Phonetic]));
    }

    #[test]
    fn combination_open_when_table_empty() {
        let m = SourceMetadata {
            fields_supported: vec![(Field::Author, vec![])],
            modifiers_supported: vec![(Modifier::Stem, vec![])],
            ..SourceMetadata::default()
        };
        assert!(m.combination_legal(&Field::Author, &[Modifier::Stem]));
        assert!(!m.combination_legal(&Field::Author, &[Modifier::Phonetic]));
    }

    #[test]
    fn query_parts() {
        assert_eq!(QueryParts::parse("R").unwrap(), QueryParts::Ranking);
        assert_eq!(QueryParts::parse("F").unwrap(), QueryParts::Filter);
        assert_eq!(QueryParts::parse("RF").unwrap(), QueryParts::Both);
        assert!(QueryParts::parse("X").is_err());
        assert!(QueryParts::Filter.supports_filter());
        assert!(!QueryParts::Filter.supports_ranking());
        assert!(QueryParts::Both.supports_ranking());
    }

    #[test]
    fn missing_source_id_rejected() {
        let o = write_object(&SoifObject::new("SMetaAttributes"));
        assert!(matches!(
            SourceMetadata::from_soif_bytes(&o, ParseMode::Strict),
            Err(ProtoError::MissingAttribute { .. })
        ));
    }

    #[test]
    fn malformed_lists_rejected() {
        let bytes = SourceMetadata {
            source_id: "S".to_string(),
            ..SourceMetadata::default()
        }
        .to_soif_bytes();
        let mut o = parse_one(&bytes, ParseMode::Strict).unwrap();
        o.push_str("TokenizerIDList", "(Acme-1");
        assert!(SourceMetadata::from_soif_bytes(&write_object(&o), ParseMode::Strict).is_err());
    }
}
