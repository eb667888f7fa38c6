//! The `@SMetaAttributes`, `@SContentSummary` and `@SResource` codecs
//! against the codecs they replaced. `oracle` is the earlier
//! implementation, kept verbatim: every value went through a
//! `SoifObject` on the way out and on the way in. Each type now writes
//! and reads the wire form directly, so it must
//!
//! * write the very bytes the oracle writes, for any value, and read
//!   them back to the value; and
//! * on any input — arbitrary bytes, or a valid encoding with one
//!   attribute (or its byte count) flipped, dropped, duplicated or cut
//!   short — fail exactly when the oracle fails, decode exactly what the
//!   oracle decodes, and never panic, under both framing modes.
//!
//! **The carve-out: values that are not UTF-8.** The three decoders now
//! share one rule: a value a decoder reads must be UTF-8, and an
//! attribute it does not read is skipped unread. The oracles disagreed
//! with it and with each other (metadata read a non-UTF-8 value as
//! absent, the summary refused one anywhere, even in an attribute it
//! ignores). So an input that frames as an object holding a non-UTF-8
//! value is kept out of the metadata and summary comparisons: those
//! decoders must only not panic on it, and the `non_utf8_*` tests pin
//! the new rule case by case. For `@SResource` the rule changes only the
//! kind of error, so it is compared on every input.
//!
//! **The second carve-out: a document frequency above `u32::MAX`.** The
//! oracle cast a `TermDocFreq` document frequency to `u32`, so
//! `"x" 1 4294967297` read as a frequency of 1; the summary decoder now
//! refuses it. An input that frames as an object holding such a
//! statistic is kept out of the summary comparison by
//! `holds_doc_freq_above_u32_max`, and
//! `a_document_frequency_above_u32_max_is_refused_not_wrapped` pins the
//! new rule.
//!
//! **The third carve-out: an attribute from another set.** The oracle
//! read only the last word of an item `[set name]` / `{set name}`, so
//! `[gils author]` read as the Basic-1 `author`. The decoder now drops
//! only a leading `basic-1` and keeps any other `set name` whole, as
//! `Field::Other` / `Modifier::Other`. An input that frames as an
//! object holding an item with more than one word once a leading
//! `basic-1` is dropped is kept out of the metadata comparison by
//! `holds_set_qualified_item`, and
//! `a_field_from_another_attribute_set_is_not_read_as_the_basic1_field`
//! pins the new rule.
//!
//! Seeds are the paper's Examples 10–12 (Examples 10 and 11 also as
//! printed, read `Lenient`) and the metadata, summaries and resource
//! descriptor of the five vendor personalities. The sample payload has
//! no oracle — its template rules were settled anew — so its round trip
//! and its rules are pinned by name.

mod strategies;

use proptest::prelude::*;
use starts_index::Document;
use starts_proto::metadata::{FieldModCombo, QueryParts};
use starts_proto::results::{decode_sample, encode_sample};
use starts_proto::summary::{ContentSummary, SummarySection, TermSummary};
use starts_proto::{Field, Modifier, ProtoError, Resource, SourceMetadata};
use starts_soif::{parse_one, write_object, ParseError, ParseMode, SoifObject};
use starts_source::{vendors, ResourceHost, Source};
use starts_text::LangTag;
use strategies::mutations::{check_every_mutation, mutations};
use strategies::{arb_field, arb_lang, arb_modifier, arb_text};

/// The `SoifObject`-based codecs as they were.
mod oracle {
    use starts_proto::attrs::{ATTRSET_BASIC1, ATTRSET_MBASIC1};
    use starts_proto::metadata::{FieldModCombo, QueryParts};
    use starts_proto::query::fmt_weight;
    use starts_proto::summary::{ContentSummary, SummarySection, TermSummary};
    use starts_proto::{Field, Modifier, ProtoError, Resource, SourceMetadata};
    use starts_soif::{SoifObject, STARTS_VERSION, VERSION_ATTR};
    use starts_text::LangTag;

    fn parse_bool(attr: &str, v: &str) -> Result<bool, ProtoError> {
        match v.trim() {
            "T" | "t" | "true" => Ok(true),
            "F" | "f" | "false" => Ok(false),
            other => Err(ProtoError::invalid(
                attr,
                format!("expected T or F, got {other:?}"),
            )),
        }
    }

    fn quote(text: &str) -> String {
        let mut out = String::with_capacity(text.len() + 2);
        out.push('"');
        for c in text.chars() {
            if c == '"' || c == '\\' {
                out.push('\\');
            }
            out.push(c);
        }
        out.push('"');
        out
    }

    fn unquote_contents(raw: &str, offset: usize) -> Result<String, ProtoError> {
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

    /// Encode as an `@SMetaAttributes` object (Example 10's layout).
    pub fn metadata_to_soif(m: &SourceMetadata) -> SoifObject {
        let mut o = SoifObject::new("SMetaAttributes");
        o.push_str(VERSION_ATTR, STARTS_VERSION);
        o.push_str("SourceID", &m.source_id);
        o.push_str(
            "FieldsSupported",
            encode_lang_tagged(&m.fields_supported, |f| {
                format!("[{ATTRSET_BASIC1} {}]", f.name())
            }),
        );
        o.push_str(
            "ModifiersSupported",
            encode_lang_tagged(&m.modifiers_supported, |m| {
                format!("{{{ATTRSET_BASIC1} {}}}", m.name())
            }),
        );
        o.push_str(
            "FieldModifierCombinations",
            m.field_modifier_combinations
                .iter()
                .map(encode_combo)
                .collect::<Vec<_>>()
                .join(" "),
        );
        o.push_str("QueryPartsSupported", m.query_parts_supported.as_str());
        o.push_str(
            "ScoreRange",
            format!(
                "{} {}",
                fmt_score_bound(m.score_range.0),
                fmt_score_bound(m.score_range.1)
            ),
        );
        o.push_str("RankingAlgorithmID", &m.ranking_algorithm_id);
        if !m.tokenizer_id_list.is_empty() {
            let parts: Vec<String> = m
                .tokenizer_id_list
                .iter()
                .map(|(id, lang)| format!("({id} {lang})"))
                .collect();
            o.push_str("TokenizerIDList", parts.join(" "));
        }
        o.push_str("SampleDatabaseResults", &m.sample_database_results);
        o.push_str("StopWordList", m.stop_word_list.join(" "));
        o.push_str(
            "TurnOffStopWords",
            if m.turn_off_stop_words { "T" } else { "F" },
        );
        o.push_str("DefaultMetaAttributeSet", ATTRSET_MBASIC1);
        if !m.source_languages.is_empty() {
            let langs: Vec<String> = m.source_languages.iter().map(LangTag::to_string).collect();
            o.push_str("source-languages", langs.join(" "));
        }
        if !m.source_name.is_empty() {
            o.push_str("source-name", &m.source_name);
        }
        o.push_str("linkage", &m.linkage);
        o.push_str("content-summary-linkage", &m.content_summary_linkage);
        if let Some(d) = &m.date_changed {
            o.push_str("date-changed", d);
        }
        if let Some(d) = &m.date_expires {
            o.push_str("date-expires", d);
        }
        if let Some(a) = &m.abstract_text {
            o.push_str("abstract", a);
        }
        if let Some(a) = &m.access_constraints {
            o.push_str("access-constraints", a);
        }
        if let Some(c) = &m.contact {
            o.push_str("contact", c);
        }
        o
    }

    /// Decode from an `@SMetaAttributes` object.
    pub fn metadata_from_soif(o: &SoifObject) -> Result<SourceMetadata, ProtoError> {
        if !o.template.eq_ignore_ascii_case("SMetaAttributes") {
            return Err(ProtoError::WrongTemplate {
                expected: "SMetaAttributes",
                found: o.template.clone(),
            });
        }
        let mut m = SourceMetadata {
            source_id: o
                .get_str("SourceID")
                .ok_or_else(|| ProtoError::missing("SMetaAttributes", "SourceID"))?
                .to_string(),
            ..SourceMetadata::default()
        };
        if let Some(v) = o.get_str("FieldsSupported") {
            m.fields_supported = decode_lang_tagged(v, '[', ']', Field::parse)?;
        }
        if let Some(v) = o.get_str("ModifiersSupported") {
            m.modifiers_supported = decode_lang_tagged(v, '{', '}', Modifier::parse)?;
        }
        if let Some(v) = o.get_str("FieldModifierCombinations") {
            m.field_modifier_combinations = decode_combos(v)?;
        }
        if let Some(v) = o.get_str("QueryPartsSupported") {
            m.query_parts_supported = QueryParts::parse(v)?;
        }
        if let Some(v) = o.get_str("ScoreRange") {
            let parts: Vec<&str> = v.split_whitespace().collect();
            if parts.len() != 2 {
                return Err(ProtoError::invalid("ScoreRange", "expected two bounds"));
            }
            m.score_range = (parse_score_bound(parts[0])?, parse_score_bound(parts[1])?);
        }
        if let Some(v) = o.get_str("RankingAlgorithmID") {
            m.ranking_algorithm_id = v.to_string();
        }
        if let Some(v) = o.get_str("TokenizerIDList") {
            m.tokenizer_id_list = decode_tokenizers(v)?;
        }
        if let Some(v) = o.get_str("SampleDatabaseResults") {
            m.sample_database_results = v.to_string();
        }
        if let Some(v) = o.get_str("StopWordList") {
            m.stop_word_list = v.split_whitespace().map(str::to_string).collect();
        }
        if let Some(v) = o.get_str("TurnOffStopWords") {
            m.turn_off_stop_words = parse_bool("TurnOffStopWords", v)?;
        }
        if let Some(v) = o.get_str("source-languages") {
            m.source_languages = v
                .split_whitespace()
                .map(|t| {
                    LangTag::parse(t)
                        .map_err(|e| ProtoError::invalid("source-languages", e.to_string()))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = o.get_str("source-name") {
            m.source_name = v.to_string();
        }
        if let Some(v) = o.get_str("linkage") {
            m.linkage = v.to_string();
        }
        if let Some(v) = o.get_str("content-summary-linkage") {
            m.content_summary_linkage = v.to_string();
        }
        m.date_changed = o.get_str("date-changed").map(str::to_string);
        m.date_expires = o.get_str("date-expires").map(str::to_string);
        m.abstract_text = o.get_str("abstract").map(str::to_string);
        m.access_constraints = o.get_str("access-constraints").map(str::to_string);
        m.contact = o.get_str("contact").map(str::to_string);
        Ok(m)
    }
    fn fmt_score_bound(v: f64) -> String {
        if v == f64::INFINITY {
            "Infinity".to_string()
        } else if v == f64::NEG_INFINITY {
            "-Infinity".to_string()
        } else {
            // Always show a decimal point for finite bounds ("0.0 1.0").
            if v.fract() == 0.0 {
                format!("{v:.1}")
            } else {
                fmt_weight(v)
            }
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

    /// Encode `[set name] (lang…)` lists: each item optionally followed by
    /// its language list in parentheses-free space form is ambiguous, so
    /// languages are appended inside the brackets after a `;` when present:
    /// `[basic-1 author; en-US es]`.
    fn encode_lang_tagged<T>(items: &[(T, Vec<LangTag>)], render: impl Fn(&T) -> String) -> String {
        items
            .iter()
            .map(|(item, langs)| {
                let base = render(item);
                if langs.is_empty() {
                    base
                } else {
                    let langs: Vec<String> = langs.iter().map(LangTag::to_string).collect();
                    // Insert "; langs" before the closing delimiter.
                    let (head, close) = base.split_at(base.len() - 1);
                    format!("{head}; {}{close}", langs.join(" "))
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn decode_lang_tagged<T>(
        v: &str,
        open: char,
        close: char,
        parse: impl Fn(&str) -> T,
    ) -> Result<Vec<(T, Vec<LangTag>)>, ProtoError> {
        let mut out = Vec::new();
        let mut rest = v.trim();
        while !rest.is_empty() {
            if !rest.starts_with(open) {
                return Err(ProtoError::invalid(
                    "FieldsSupported/ModifiersSupported",
                    format!("expected {open:?} in {v:?}"),
                ));
            }
            let end = rest.find(close).ok_or_else(|| {
                ProtoError::invalid(
                    "FieldsSupported/ModifiersSupported",
                    format!("missing {close:?} in {v:?}"),
                )
            })?;
            let body = &rest[1..end];
            let (spec, langs_part) = match body.split_once(';') {
                Some((s, l)) => (s.trim(), Some(l.trim())),
                None => (body.trim(), None),
            };
            // spec = "attrset name" or just "name".
            let name = spec.split_whitespace().last().ok_or_else(|| {
                ProtoError::invalid("FieldsSupported/ModifiersSupported", "empty item")
            })?;
            let langs = match langs_part {
                None => Vec::new(),
                Some(ls) => ls
                    .split_whitespace()
                    .map(|t| {
                        LangTag::parse(t).map_err(|e| {
                            ProtoError::invalid("FieldsSupported/ModifiersSupported", e.to_string())
                        })
                    })
                    .collect::<Result<_, _>>()?,
            };
            out.push((parse(name), langs));
            rest = rest[end + 1..].trim_start();
        }
        Ok(out)
    }

    fn encode_combo(c: &FieldModCombo) -> String {
        let mut parts = vec![format!("[{ATTRSET_BASIC1} {}]", c.field.name())];
        for m in &c.modifiers {
            parts.push(format!("{{{ATTRSET_BASIC1} {}}}", m.name()));
        }
        format!("({})", parts.join(" "))
    }

    fn decode_combos(v: &str) -> Result<Vec<FieldModCombo>, ProtoError> {
        let mut out = Vec::new();
        let mut rest = v.trim();
        while !rest.is_empty() {
            if !rest.starts_with('(') {
                return Err(ProtoError::invalid(
                    "FieldModifierCombinations",
                    format!("expected '(' in {v:?}"),
                ));
            }
            let end = rest
                .find(')')
                .ok_or_else(|| ProtoError::invalid("FieldModifierCombinations", "missing ')'"))?;
            let body = &rest[1..end];
            let mut field = None;
            let mut modifiers = Vec::new();
            let mut inner = body.trim();
            while !inner.is_empty() {
                let (open, close) = match inner.chars().next().unwrap() {
                    '[' => ('[', ']'),
                    '{' => ('{', '}'),
                    other => {
                        return Err(ProtoError::invalid(
                            "FieldModifierCombinations",
                            format!("unexpected {other:?}"),
                        ))
                    }
                };
                let iend = inner.find(close).ok_or_else(|| {
                    ProtoError::invalid("FieldModifierCombinations", format!("missing {close:?}"))
                })?;
                let name = inner[1..iend].split_whitespace().last().ok_or_else(|| {
                    ProtoError::invalid("FieldModifierCombinations", "empty item")
                })?;
                if open == '[' {
                    field = Some(Field::parse(name));
                } else {
                    modifiers.push(Modifier::parse(name));
                }
                inner = inner[iend + 1..].trim_start();
            }
            let field = field.ok_or_else(|| {
                ProtoError::invalid("FieldModifierCombinations", "combination without a field")
            })?;
            out.push(FieldModCombo { field, modifiers });
            rest = rest[end + 1..].trim_start();
        }
        Ok(out)
    }

    fn decode_tokenizers(v: &str) -> Result<Vec<(String, LangTag)>, ProtoError> {
        let mut out = Vec::new();
        let mut rest = v.trim();
        while !rest.is_empty() {
            if !rest.starts_with('(') {
                return Err(ProtoError::invalid(
                    "TokenizerIDList",
                    format!("expected '(' in {v:?}"),
                ));
            }
            let end = rest
                .find(')')
                .ok_or_else(|| ProtoError::invalid("TokenizerIDList", "missing ')'"))?;
            let body = &rest[1..end];
            let mut parts = body.split_whitespace();
            let id = parts
                .next()
                .ok_or_else(|| ProtoError::invalid("TokenizerIDList", "empty entry"))?;
            let lang = parts
                .next()
                .ok_or_else(|| ProtoError::invalid("TokenizerIDList", "missing language"))?;
            let lang = LangTag::parse(lang)
                .map_err(|e| ProtoError::invalid("TokenizerIDList", e.to_string()))?;
            out.push((id.to_string(), lang));
            rest = rest[end + 1..].trim_start();
        }
        Ok(out)
    }

    /// Encode as an `@SContentSummary` object (Example 11's layout:
    /// header flags, then repeated `Field`/`Language`/`TermDocFreq`
    /// attribute groups).
    pub fn summary_to_soif(s: &ContentSummary) -> SoifObject {
        let mut o = SoifObject::new("SContentSummary");
        o.push_str(VERSION_ATTR, STARTS_VERSION);
        o.push_str("Stemming", tf(s.stemmed));
        o.push_str("StopWords", tf(s.stop_words_included));
        o.push_str("CaseSensitive", tf(s.case_sensitive));
        o.push_str("Fields", tf(s.fields_qualified()));
        o.push_str("NumDocs", s.num_docs.to_string());
        for section in &s.sections {
            if let Some(f) = &section.field {
                o.push_str("Field", f);
            }
            if let Some(l) = &section.language {
                o.push_str("Language", l.to_string());
            }
            let lines: Vec<String> = section.terms.iter().map(encode_term).collect();
            o.push_str("TermDocFreq", lines.join("\n"));
        }
        o
    }

    /// Decode from an `@SContentSummary` object.
    pub fn summary_from_soif(o: &SoifObject) -> Result<ContentSummary, ProtoError> {
        if !o.template.eq_ignore_ascii_case("SContentSummary") {
            return Err(ProtoError::WrongTemplate {
                expected: "SContentSummary",
                found: o.template.clone(),
            });
        }
        let mut summary = ContentSummary {
            stemmed: o
                .get_str("Stemming")
                .map(|v| parse_bool("Stemming", v))
                .transpose()?
                .unwrap_or(false),
            stop_words_included: o
                .get_str("StopWords")
                .map(|v| parse_bool("StopWords", v))
                .transpose()?
                .unwrap_or(true),
            case_sensitive: o
                .get_str("CaseSensitive")
                .map(|v| parse_bool("CaseSensitive", v))
                .transpose()?
                .unwrap_or(false),
            num_docs: o
                .get_str("NumDocs")
                .ok_or_else(|| ProtoError::missing("SContentSummary", "NumDocs"))?
                .trim()
                .parse()
                .map_err(|_| ProtoError::invalid("NumDocs", "not an integer"))?,
            sections: Vec::new(),
        };
        // Walk attributes in order, building sections: Field/Language
        // attrs set the pending section header; TermDocFreq closes it.
        let mut pending_field: Option<String> = None;
        let mut pending_lang: Option<LangTag> = None;
        for attr in o.iter() {
            let value = std::str::from_utf8(&attr.value)
                .map_err(|_| ProtoError::invalid(&attr.name, "not UTF-8"))?;
            match attr.name.to_ascii_lowercase().as_str() {
                "field" => pending_field = Some(value.trim().to_string()),
                "language" => {
                    pending_lang = Some(
                        LangTag::parse(value.trim())
                            .map_err(|e| ProtoError::invalid("Language", e.to_string()))?,
                    )
                }
                "termdocfreq" => {
                    let terms = value
                        .lines()
                        .filter(|l| !l.trim().is_empty())
                        .map(decode_term)
                        .collect::<Result<Vec<_>, _>>()?;
                    summary.sections.push(SummarySection {
                        field: pending_field.take(),
                        language: pending_lang.take(),
                        terms,
                    });
                }
                _ => {}
            }
        }
        Ok(summary)
    }

    fn tf(b: bool) -> &'static str {
        if b {
            "T"
        } else {
            "F"
        }
    }

    /// `"term" postings df`, with `-` for an absent statistic (the paper
    /// requires at least one of the two).
    fn encode_term(t: &TermSummary) -> String {
        format!(
            "{} {} {}",
            quote(&t.term),
            t.total_postings
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_string()),
            t.doc_freq
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_string()),
        )
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
        let term = unquote_contents(&trimmed[1..end], 0)?;
        let stats: Vec<&str> = trimmed[end + 1..].split_whitespace().collect();
        if stats.len() != 2 {
            return Err(ProtoError::invalid(
                "TermDocFreq",
                format!("expected two statistics in {line:?}"),
            ));
        }
        let parse_stat = |s: &str| -> Result<Option<u64>, ProtoError> {
            if s == "-" {
                Ok(None)
            } else {
                s.parse()
                    .map(Some)
                    .map_err(|_| ProtoError::invalid("TermDocFreq", format!("bad statistic {s:?}")))
            }
        };
        let total_postings = parse_stat(stats[0])?;
        let doc_freq = parse_stat(stats[1])?.map(|v| v as u32);
        if total_postings.is_none() && doc_freq.is_none() {
            return Err(ProtoError::invalid(
                "TermDocFreq",
                "at least one statistic (postings or document frequency) is required",
            ));
        }
        Ok(TermSummary {
            term,
            total_postings,
            doc_freq,
        })
    }

    /// Encode as an `@SResource` object (Example 12).
    pub fn resource_to_soif(r: &Resource) -> SoifObject {
        let mut o = SoifObject::new("SResource");
        o.push_str(VERSION_ATTR, STARTS_VERSION);
        let lines: Vec<String> = r
            .sources
            .iter()
            .map(|(id, url)| format!("{id} {url}"))
            .collect();
        o.push_str("SourceList", lines.join("\n"));
        o
    }

    /// Decode from an `@SResource` object.
    pub fn resource_from_soif(o: &SoifObject) -> Result<Resource, ProtoError> {
        if !o.template.eq_ignore_ascii_case("SResource") {
            return Err(ProtoError::WrongTemplate {
                expected: "SResource",
                found: o.template.clone(),
            });
        }
        let list = o
            .get_str("SourceList")
            .ok_or_else(|| ProtoError::missing("SResource", "SourceList"))?;
        let mut sources = Vec::new();
        for line in list.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let id = parts
                .next()
                .ok_or_else(|| ProtoError::invalid("SourceList", "empty line"))?;
            let url = parts.next().ok_or_else(|| {
                ProtoError::invalid("SourceList", format!("missing URL for {id:?}"))
            })?;
            sources.push((id.to_string(), url.to_string()));
        }
        Ok(Resource { sources })
    }
}

/// What a decode came to, compared across the two codecs: the value
/// (by its `Debug` form, so a decoded NaN equals itself), or that it
/// failed. The two may fail for different reasons — the codec reads as
/// it parses, so it can meet a bad value before a later framing error.
fn outcome<T: std::fmt::Debug>(decoded: Result<T, ProtoError>) -> Result<String, ()> {
    decoded.map(|v| format!("{v:?}")).map_err(|_| ())
}

const MODES: [ParseMode; 2] = [ParseMode::Strict, ParseMode::Lenient];

/// Whether `object` framed and holds a value that is not UTF-8: the
/// carve-out of the module doc.
fn holds_non_utf8(object: &Result<SoifObject, ParseError>) -> bool {
    object
        .as_ref()
        .is_ok_and(|o| o.iter().any(|a| std::str::from_utf8(&a.value).is_err()))
}

/// Whether `object` framed and holds a `TermDocFreq` line whose last
/// statistic, the document frequency, is above `u32::MAX`: the second
/// carve-out of the module doc. (A line whose last token is not its
/// document frequency fails both decoders.)
fn holds_doc_freq_above_u32_max(object: &Result<SoifObject, ParseError>) -> bool {
    let too_large = |line: &str| {
        let df = line.split_whitespace().last().map(str::parse::<u64>);
        df.is_some_and(|df| df.is_ok_and(|df| df > u64::from(u32::MAX)))
    };
    object.as_ref().is_ok_and(|o| {
        o.iter()
            .filter(|a| a.name.eq_ignore_ascii_case("TermDocFreq"))
            .any(|a| String::from_utf8_lossy(&a.value).lines().any(too_large))
    })
}

/// Whether `object` framed and holds, in `FieldsSupported`,
/// `ModifiersSupported` or `FieldModifierCombinations`, an item of more
/// than one word once a leading `basic-1` is dropped: the third
/// carve-out of the module doc. Every `[` … `]` and `{` … `}` run is
/// taken as an item (in the language-tagged lists, up to its `;`), a
/// superset of the items the decoders read.
fn holds_set_qualified_item(object: &Result<SoifObject, ParseError>) -> bool {
    let qualified = |spec: &str| {
        let mut words = spec.split_whitespace().peekable();
        words.next_if(|w| w.eq_ignore_ascii_case("basic-1"));
        words.count() > 1
    };
    let items = |v: &str, combos: bool| {
        let mut found = false;
        for (open, close) in [('[', ']'), ('{', '}')] {
            for (at, _) in v.match_indices(open) {
                let item = &v[at + 1..];
                let item = item.split(close).next().unwrap_or(item);
                let spec = if combos {
                    item
                } else {
                    item.split(';').next().unwrap_or(item)
                };
                found |= qualified(spec);
            }
        }
        found
    };
    object.as_ref().is_ok_and(|o| {
        o.iter().any(|a| {
            let v = String::from_utf8_lossy(&a.value);
            let is = |name: &str| a.name.eq_ignore_ascii_case(name);
            if is("FieldModifierCombinations") {
                items(&v, true)
            } else {
                (is("FieldsSupported") || is("ModifiersSupported")) && items(&v, false)
            }
        })
    })
}

/// `decoded` against what `oracle` makes of `object`.
fn agree<T: std::fmt::Debug>(
    what: &str,
    decoded: Result<T, ProtoError>,
    object: &Result<SoifObject, ParseError>,
    oracle: fn(&SoifObject) -> Result<T, ProtoError>,
) {
    let expected = object
        .clone()
        .map_err(ProtoError::from)
        .and_then(|o| oracle(&o));
    assert_eq!(outcome(decoded), outcome(expected), "{what}: {object:?}");
}

/// Decode `bytes` as each of the three templates, both ways, in both
/// framing modes, and require the same outcomes; and as a sample
/// payload, which must not panic.
fn check_decoders_agree(bytes: &[u8]) {
    for mode in MODES {
        let object = parse_one(bytes, mode);
        let metadata = SourceMetadata::from_soif_bytes(bytes, mode);
        let summary = ContentSummary::from_soif_bytes(bytes, mode);
        if !holds_non_utf8(&object) {
            if !holds_set_qualified_item(&object) {
                agree("metadata", metadata, &object, oracle::metadata_from_soif);
            }
            if !holds_doc_freq_above_u32_max(&object) {
                agree("summary", summary, &object, oracle::summary_from_soif);
            }
        }
        let resource = Resource::from_soif_bytes(bytes, mode);
        agree("resource", resource, &object, oracle::resource_from_soif);
    }
    let _ = decode_sample(bytes);
}

/// The new codec writes what the oracle writes, reads it back to the
/// value, and agrees with the oracle on what it wrote.
fn check_metadata(m: &SourceMetadata) {
    let bytes = m.to_soif_bytes();
    let expected = write_object(&oracle::metadata_to_soif(m));
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&expected)
    );
    let back = SourceMetadata::from_soif_bytes(&bytes, ParseMode::Strict);
    assert_eq!(back.as_ref(), Ok(m));
    check_decoders_agree(&bytes);
}

fn check_summary(s: &ContentSummary) {
    let bytes = s.to_soif_bytes();
    let expected = write_object(&oracle::summary_to_soif(s));
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&expected)
    );
    let back = ContentSummary::from_soif_bytes(&bytes, ParseMode::Strict);
    assert_eq!(back.as_ref(), Ok(s));
    check_decoders_agree(&bytes);
}

fn check_resource(r: &Resource) {
    let bytes = r.to_soif_bytes();
    let expected = write_object(&oracle::resource_to_soif(r));
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&expected)
    );
    let back = Resource::from_soif_bytes(&bytes, ParseMode::Strict);
    assert_eq!(back.as_ref(), Ok(r));
    check_decoders_agree(&bytes);
}

fn example_10() -> SourceMetadata {
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
        source_languages: vec![LangTag::en_us(), LangTag::es()],
        source_name: "Stanford DB Group".to_string(),
        linkage: "http://www-db.stanford.edu/cgi-bin/query".to_string(),
        content_summary_linkage: "ftp://www-db.stanford.edu/cont_sum.txt".to_string(),
        date_changed: Some("1996-03-31".to_string()),
        ..SourceMetadata::default()
    }
}

fn term(term: &str, postings: u64, df: u32) -> TermSummary {
    TermSummary {
        term: term.to_string(),
        total_postings: Some(postings),
        doc_freq: Some(df),
    }
}

fn example_11() -> ContentSummary {
    let section = |language, terms| SummarySection {
        field: Some("title".to_string()),
        language: Some(language),
        terms,
    };
    ContentSummary {
        num_docs: 892,
        sections: vec![
            section(
                LangTag::en_us(),
                vec![term("algorithm", 100, 53), term("analysis", 50, 23)],
            ),
            section(
                LangTag::es(),
                vec![term("algoritmo", 23, 11), term("datos", 59, 12)],
            ),
        ],
        ..ContentSummary::default()
    }
}

fn example_12() -> Resource {
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

/// Example 10 transcribed with the paper's printed byte counts (three
/// are wrong) and its plain-quote rendering.
const EXAMPLE_10_AS_PRINTED: &str = "@SMetaAttributes{\n\
Version{10}: STARTS 1.0\n\
SourceID{8}: Source-1\n\
FieldsSupported{17}: [basic-1 author]\n\
ModifiersSupported{19}: {basic-1 phonetics}\n\
FieldModifierCombinations{39}: ([basic-1 author] {basic-1 phonetics})\n\
QueryPartsSupported{2}: RF\n\
ScoreRange{7}: 0.0 1.0\n\
RankingAlgorithmID{6}: Acme-1\n\
DefaultMetaAttributeSet{8}: mbasic-1\n\
source-languages{8}: en-US es\n\
source-name{17}: Stanford DB Group\n\
linkage{40}: http://www-db.stanford.edu/cgi-bin/query\n\
content-summary-linkage{38}: ftp://www-db.stanford.edu/cont_sum.txt\n\
date-changed{9}: 1996-03-31\n\
}\n";

/// Example 11 as printed (its term list elided to two words a section).
const EXAMPLE_11_AS_PRINTED: &str = "@SContentSummary{\n\
Version{10}: STARTS 1.0\n\
Stemming{1}: F\n\
StopWords{1}: F\n\
CaseSensitive{1}: F\n\
Fields{1}: T\n\
NumDocs{3}: 892\n\
Field{5}: title\n\
Language{5}: en-US\n\
TermDocFreq{40}: \"algorithm\" 100 53\n\"analysis\" 50 23\n\
Field{5}: title\n\
Language{2}: es\n\
TermDocFreq{38}: \"algoritmo\" 23 11\n\"datos\" 59 12\n\
}\n";

/// The five vendor personalities, built over a few documents.
fn fleet() -> Vec<Source> {
    let docs = [
        (
            "Distributed Databases",
            "Ullman",
            "query processing over distributed databases",
        ),
        (
            "Metasearch",
            "Gravano",
            "merging ranked results from heterogeneous sources",
        ),
        (
            "Algoritmos",
            "García-Molina",
            "análisis de datos y algoritmos de búsqueda",
        ),
    ]
    .iter()
    .enumerate()
    .map(|(i, (title, author, body))| {
        Document::new()
            .field("title", *title)
            .field("author", *author)
            .field("body-of-text", *body)
            .field("linkage", format!("http://x/{i}"))
    })
    .collect::<Vec<_>>();
    vendors::fleet()
        .into_iter()
        .map(|config| Source::build(config, &docs))
        .collect()
}

#[test]
fn the_paper_examples_and_every_mutation_of_them() {
    let metadata = example_10();
    check_metadata(&metadata);
    check_every_mutation(&metadata.to_soif_bytes(), check_decoders_agree);
    let summary = example_11();
    check_summary(&summary);
    check_every_mutation(&summary.to_soif_bytes(), check_decoders_agree);
    let resource = example_12();
    check_resource(&resource);
    check_every_mutation(&resource.to_soif_bytes(), check_decoders_agree);
}

#[test]
fn the_examples_as_printed_are_read_lenient_as_the_oracle_reads_them() {
    for printed in [EXAMPLE_10_AS_PRINTED, EXAMPLE_11_AS_PRINTED] {
        check_decoders_agree(printed.as_bytes());
    }
    let m = SourceMetadata::from_soif_bytes(EXAMPLE_10_AS_PRINTED.as_bytes(), ParseMode::Lenient);
    assert_eq!(m.unwrap().source_id, "Source-1");
    let s = ContentSummary::from_soif_bytes(EXAMPLE_11_AS_PRINTED.as_bytes(), ParseMode::Lenient);
    assert_eq!(s.unwrap(), example_11());
}

/// Every value of `bytes`' object between a space and a space-and-tab:
/// what each decoder trims, and what it keeps, shows.
fn padded(bytes: &[u8]) -> Vec<u8> {
    let mut object = parse_one(bytes, ParseMode::Strict).unwrap();
    for attr in &mut object.attrs {
        attr.value = [&b" "[..], &attr.value, b" \t"].concat();
    }
    write_object(&object)
}

#[test]
fn the_paper_examples_padded_and_every_mutation_of_them() {
    for bytes in [
        example_10().to_soif_bytes(),
        example_11().to_soif_bytes(),
        example_12().to_soif_bytes(),
    ] {
        let padded = padded(&bytes);
        check_decoders_agree(&padded);
        check_every_mutation(&padded, check_decoders_agree);
    }
}

#[test]
fn every_vendor_personality_and_every_mutation_of_it() {
    let fleet = fleet();
    for source in &fleet {
        check_metadata(source.metadata());
        check_every_mutation(&source.metadata().to_soif_bytes(), check_decoders_agree);
        let summary = source.content_summary();
        check_summary(&summary);
        check_every_mutation(&summary.to_soif_bytes(), check_decoders_agree);
    }
    let descriptor = ResourceHost::new(fleet).descriptor();
    check_resource(&descriptor);
    check_every_mutation(&descriptor.to_soif_bytes(), check_decoders_agree);
}

/// Example 10 with attribute `name`'s value replaced by `value`: as
/// bytes, and as the object the oracle reads.
fn example_10_with(name: &str, value: &[u8]) -> (Vec<u8>, SoifObject) {
    let mut object = parse_one(&example_10().to_soif_bytes(), ParseMode::Strict).unwrap();
    let attr = object.attrs.iter_mut().find(|a| a.name == name).unwrap();
    attr.value = value.to_vec();
    (write_object(&object), object)
}

#[test]
fn non_utf8_turn_off_stop_words_is_refused_not_defaulted() {
    let (bytes, object) = example_10_with("TurnOffStopWords", b"\xff");
    assert!(matches!(
        SourceMetadata::from_soif_bytes(&bytes, ParseMode::Strict),
        Err(ProtoError::InvalidValue { attribute, .. }) if attribute == "TurnOffStopWords"
    ));
    // The oracle read it as absent: `true`, whatever the source meant.
    assert!(
        oracle::metadata_from_soif(&object)
            .unwrap()
            .turn_off_stop_words
    );
}

#[test]
fn non_utf8_source_id_is_an_invalid_value_not_a_missing_one() {
    let (bytes, object) = example_10_with("SourceID", b"Source-\xff");
    assert!(matches!(
        SourceMetadata::from_soif_bytes(&bytes, ParseMode::Strict),
        Err(ProtoError::InvalidValue { attribute, .. }) if attribute == "SourceID"
    ));
    assert!(matches!(
        oracle::metadata_from_soif(&object),
        Err(ProtoError::MissingAttribute { .. })
    ));
}

#[test]
fn non_utf8_metadata_attributes_that_are_not_read_are_skipped() {
    // An extension attribute, and a repeated `SourceID` (the first wins).
    let mut object = parse_one(&example_10().to_soif_bytes(), ParseMode::Strict).unwrap();
    object.push_bytes("x-extension", b"\xfe\xff".to_vec());
    object.push_bytes("SourceID", b"\xff".to_vec());
    let m = SourceMetadata::from_soif_bytes(&write_object(&object), ParseMode::Strict);
    assert_eq!(m.unwrap(), example_10());
}

#[test]
fn non_utf8_source_list_is_an_invalid_value_not_a_missing_one() {
    let mut object = SoifObject::new("SResource");
    object.push_bytes("SourceList", b"Source-1 ftp://x/\xff".to_vec());
    assert!(matches!(
        Resource::from_soif_bytes(&write_object(&object), ParseMode::Strict),
        Err(ProtoError::InvalidValue { attribute, .. }) if attribute == "SourceList"
    ));
    assert!(matches!(
        oracle::resource_from_soif(&object),
        Err(ProtoError::MissingAttribute { .. })
    ));
}

#[test]
fn non_utf8_unknown_summary_attribute_is_skipped_not_refused() {
    let mut object = parse_one(&example_11().to_soif_bytes(), ParseMode::Strict).unwrap();
    object.attrs.insert(
        5,
        starts_soif::SoifAttr {
            name: "x-extension".to_string(),
            value: b"\xff".to_vec(),
        },
    );
    let bytes = write_object(&object);
    let s = ContentSummary::from_soif_bytes(&bytes, ParseMode::Strict);
    assert_eq!(s.unwrap(), example_11());
    // The oracle refused the whole summary, though §4.3 ignores unknown
    // attributes.
    assert!(oracle::summary_from_soif(&object).is_err());
    // A value the decoder reads is still refused.
    for name in ["Stemming", "NumDocs", "Field", "Language", "TermDocFreq"] {
        let mut object = parse_one(&example_11().to_soif_bytes(), ParseMode::Strict).unwrap();
        let attr = object.attrs.iter_mut().find(|a| a.name == name).unwrap();
        attr.value = b"\xff".to_vec();
        let decoded = ContentSummary::from_soif_bytes(&write_object(&object), ParseMode::Strict);
        assert!(
            matches!(&decoded, Err(ProtoError::InvalidValue { attribute, .. }) if attribute == name),
            "{name}: {decoded:?}"
        );
    }
}

#[test]
fn a_document_frequency_above_u32_max_is_refused_not_wrapped() {
    let with_line = |line: &[u8]| {
        let mut object = parse_one(&example_11().to_soif_bytes(), ParseMode::Strict).unwrap();
        let attr = object.attrs.iter_mut().find(|a| a.name == "TermDocFreq");
        attr.unwrap().value = line.to_vec();
        object
    };
    let object = with_line(b"\"x\" 1 4294967297");
    let decoded = ContentSummary::from_soif_bytes(&write_object(&object), ParseMode::Strict);
    assert!(
        matches!(&decoded, Err(ProtoError::InvalidValue { attribute, .. }) if attribute == "TermDocFreq"),
        "{decoded:?}"
    );
    // The oracle wrapped it round to 1.
    let wrapped = oracle::summary_from_soif(&object).unwrap();
    assert_eq!(wrapped.sections[0].terms[0].doc_freq, Some(1));
    // The largest of each statistic still reads.
    let object = with_line(b"\"x\" 18446744073709551615 4294967295");
    let decoded = ContentSummary::from_soif_bytes(&write_object(&object), ParseMode::Strict);
    let term = &decoded.unwrap().sections[0].terms[0];
    assert_eq!(
        (term.total_postings, term.doc_freq),
        (Some(u64::MAX), Some(u32::MAX))
    );
}

#[test]
fn a_field_from_another_attribute_set_is_not_read_as_the_basic1_field() {
    let (bytes, object) = example_10_with("FieldsSupported", b"[basic-1 author] [gils author]");
    let m = SourceMetadata::from_soif_bytes(&bytes, ParseMode::Strict).unwrap();
    assert_eq!(
        m.fields_supported,
        [
            (Field::Author, vec![]),
            (Field::Other("gils author".to_string()), vec![])
        ]
    );
    // The oracle read both as the Basic-1 field.
    let read = oracle::metadata_from_soif(&object).unwrap();
    assert_eq!(
        read.fields_supported,
        [(Field::Author, vec![]), (Field::Author, vec![])]
    );
    // The Basic-1 prefix is dropped ignoring case; a bare name is Basic-1.
    let (bytes, _) = example_10_with(
        "ModifiersSupported",
        b"{BASIC-1 stem} {gils Fuzzy} {phonetic}",
    );
    let m = SourceMetadata::from_soif_bytes(&bytes, ParseMode::Strict).unwrap();
    let modifiers: Vec<Modifier> = m.modifiers_supported.into_iter().map(|(m, _)| m).collect();
    assert_eq!(
        modifiers,
        [
            Modifier::Stem,
            Modifier::Other("gils fuzzy".to_string()),
            Modifier::Phonetic
        ]
    );
    let (bytes, _) = example_10_with("FieldModifierCombinations", b"([gils author] {gils fuzzy})");
    let m = SourceMetadata::from_soif_bytes(&bytes, ParseMode::Strict).unwrap();
    assert_eq!(
        m.field_modifier_combinations,
        [FieldModCombo {
            field: Field::Other("gils author".to_string()),
            modifiers: vec![Modifier::Other("gils fuzzy".to_string())],
        }]
    );
    // Such a name is written with its own set, and round-trips.
    let mut m = example_10();
    m.fields_supported = vec![
        (Field::Other("gils author".to_string()), vec![]),
        (Field::Other("abstract".to_string()), vec![]),
    ];
    m.field_modifier_combinations = vec![FieldModCombo {
        field: Field::Other("gils author".to_string()),
        modifiers: vec![Modifier::Stem],
    }];
    let bytes = m.to_soif_bytes();
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.contains("[gils author] [basic-1 abstract]"), "{text}");
    assert!(text.contains("([gils author] {basic-1 stem})"), "{text}");
    assert_eq!(
        SourceMetadata::from_soif_bytes(&bytes, ParseMode::Strict),
        Ok(m)
    );
}

#[test]
fn decode_sample_round_trips_every_personality() {
    for config in vendors::fleet() {
        let samples = starts_source::sample::sample_results(&config);
        assert!(!samples.is_empty());
        let bytes = encode_sample(&samples);
        assert_eq!(decode_sample(&bytes).unwrap(), samples);
        check_every_mutation(&bytes, |m| {
            let _ = decode_sample(m);
        });
    }
}

#[test]
fn decode_sample_template_rules() {
    let samples = starts_source::sample::sample_results(&vendors::fleet()[0]);
    let bytes = String::from_utf8(encode_sample(&samples)).unwrap();
    assert_eq!(decode_sample(b"").unwrap(), vec![]);
    // Templates are compared case-insensitively.
    let lower = bytes
        .replace("@SQuery{", "@squery{")
        .replace("@SQResults{", "@sqresults{")
        .replace("@SQRDocument{", "@SQRDOCUMENT{");
    assert_eq!(decode_sample(lower.as_bytes()).unwrap(), samples);
    // A result stream with no query before it is refused, not dropped.
    let first_query_end = bytes.find("}\n").unwrap() + 2;
    let orphan = &bytes[first_query_end..];
    assert!(matches!(
        decode_sample(orphan.as_bytes()),
        Err(ProtoError::WrongTemplate {
            expected: "SQuery",
            ..
        })
    ));
    // A query with no result stream after it is refused.
    let query_alone = &bytes[..first_query_end];
    assert!(decode_sample(query_alone.as_bytes()).is_err());
    let two_queries = format!("{query_alone}\n{bytes}");
    assert!(decode_sample(two_queries.as_bytes()).is_err());
    // An unknown template is refused, not skipped, wherever it stands.
    let unknown = "@SUnknown{\nVersion{10}: STARTS 1.0\n}\n";
    for payload in [format!("{unknown}\n{bytes}"), format!("{bytes}{unknown}")] {
        assert!(matches!(
            decode_sample(payload.as_bytes()),
            Err(ProtoError::WrongTemplate { found, .. }) if found == "SUnknown"
        ));
    }
}

fn arb_langs() -> impl Strategy<Value = Vec<LangTag>> {
    proptest::collection::vec(arb_lang(), 0..3)
}

/// A field as a decoder gives it back: in its canonical spelling.
fn arb_meta_field() -> impl Strategy<Value = Field> {
    arb_field().prop_map(|f| Field::parse(f.name()))
}

fn arb_meta_modifier() -> impl Strategy<Value = Modifier> {
    prop_oneof![
        arb_modifier(),
        "[a-z]{3,8}".prop_map(|w| Modifier::parse(&w)),
    ]
}

fn arb_bound() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (0u32..=1000).prop_map(|w| f64::from(w) / 1000.0),
        any::<f64>().prop_filter("a bound is a number", |f| f.is_finite()),
    ]
}

fn arb_metadata() -> impl Strategy<Value = SourceMetadata> {
    let combo = (
        arb_meta_field(),
        proptest::collection::vec(arb_meta_modifier(), 0..3),
    )
        .prop_map(|(field, modifiers)| FieldModCombo { field, modifiers });
    let parts = prop_oneof![
        Just(QueryParts::Ranking),
        Just(QueryParts::Filter),
        Just(QueryParts::Both),
    ];
    let capabilities = (
        proptest::collection::vec((arb_meta_field(), arb_langs()), 0..4),
        proptest::collection::vec((arb_meta_modifier(), arb_langs()), 0..4),
        proptest::collection::vec(combo, 0..3),
        parts,
        (arb_bound(), arb_bound()),
        proptest::collection::vec(("[A-Za-z0-9-]{1,8}", arb_lang()), 0..3),
    );
    let words = (
        arb_text(),
        arb_text(),
        arb_text(),
        proptest::collection::vec("[a-z]{1,8}", 0..4),
        any::<bool>(),
        arb_langs(),
    );
    let links = (
        arb_text(),
        arb_text(),
        arb_text(),
        proptest::option::of(arb_text()),
        proptest::option::of(arb_text()),
        (
            proptest::option::of(arb_text()),
            proptest::option::of(arb_text()),
            proptest::option::of(arb_text()),
        ),
    );
    (capabilities, words, links).prop_map(
        |(
            (fields, modifiers, combos, parts, score_range, tokenizers),
            (source_id, ranking_id, sample, stop_words, turn_off, languages),
            (name, linkage, summary_linkage, changed, expires, (abstract_text, access, contact)),
        )| SourceMetadata {
            source_id,
            fields_supported: fields,
            modifiers_supported: modifiers,
            field_modifier_combinations: combos,
            query_parts_supported: parts,
            score_range,
            ranking_algorithm_id: ranking_id,
            tokenizer_id_list: tokenizers,
            sample_database_results: sample,
            stop_word_list: stop_words,
            turn_off_stop_words: turn_off,
            source_languages: languages,
            source_name: name,
            linkage,
            content_summary_linkage: summary_linkage,
            date_changed: changed,
            date_expires: expires,
            abstract_text,
            access_constraints: access,
            contact,
        },
    )
}

fn arb_summary() -> impl Strategy<Value = ContentSummary> {
    // At least one statistic per word.
    let stats = prop_oneof![
        (any::<u64>(), any::<u32>()).prop_map(|(p, d)| (Some(p), Some(d))),
        any::<u64>().prop_map(|p| (Some(p), None)),
        any::<u32>().prop_map(|d| (None, Some(d))),
    ];
    let word =
        ("[ -~é中ñ]{0,10}", stats).prop_map(|(term, (total_postings, doc_freq))| TermSummary {
            term,
            total_postings,
            doc_freq,
        });
    let section = (
        proptest::option::of("[a-z][a-z-]{0,9}"),
        proptest::option::of(arb_lang()),
        proptest::collection::vec(word, 0..6),
    )
        .prop_map(|(field, language, terms)| SummarySection {
            field,
            language,
            terms,
        });
    (
        (any::<bool>(), any::<bool>(), any::<bool>()),
        any::<u32>(),
        proptest::collection::vec(section, 0..4),
    )
        .prop_map(
            |((stemmed, stop_words_included, case_sensitive), num_docs, sections)| ContentSummary {
                stemmed,
                stop_words_included,
                case_sensitive,
                num_docs,
                sections,
            },
        )
}

fn arb_resource() -> impl Strategy<Value = Resource> {
    proptest::collection::vec(("[!-~]{1,12}", "[!-~]{1,24}"), 0..4).prop_map(Resource::new)
}

proptest! {
    /// Same bytes out, same value back, same outcomes on mutations.
    #[test]
    fn metadata_codec_is_the_oracle(m in arb_metadata(), at in any::<usize>()) {
        check_metadata(&m);
        for bytes in mutations(&m.to_soif_bytes(), at) {
            check_decoders_agree(&bytes);
        }
    }

    #[test]
    fn summary_codec_is_the_oracle(s in arb_summary(), at in any::<usize>()) {
        check_summary(&s);
        for bytes in mutations(&s.to_soif_bytes(), at) {
            check_decoders_agree(&bytes);
        }
    }

    #[test]
    fn resource_codec_is_the_oracle(r in arb_resource(), at in any::<usize>()) {
        check_resource(&r);
        for bytes in mutations(&r.to_soif_bytes(), at) {
            check_decoders_agree(&bytes);
        }
    }

    /// Arbitrary bytes, and text shaped like the three templates: the
    /// same outcome both ways, and no panic.
    #[test]
    fn decoders_agree_on_any_input(
        junk in proptest::collection::vec(any::<u8>(), 0..160),
        shaped in "(@S(MetaAttributes|ContentSummary|Resource)\\{\n((SourceID|NumDocs|Field|Language|TermDocFreq|SourceList|ScoreRange|TurnOffStopWords|x)\\{[0-9]{1,2}\\}: [ -~]{0,12}\n){0,5}\\}\n){1,2}",
    ) {
        check_decoders_agree(&junk);
        check_decoders_agree(shaped.as_bytes());
    }
}
