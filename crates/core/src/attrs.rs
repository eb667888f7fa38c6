//! The "Basic-1" attribute set: fields and modifiers (§4.1.1).
//!
//! "To make interoperability easier, we decided to define a 'recommended'
//! set of attributes that sources should try to support. … we decided to
//! pick the GILS attribute set, which in turn inherits all of the
//! Z39.50-1995 Bib-1 use attributes. … We also added a few attributes
//! that were not in the GILS set."
//!
//! The two tables in §4.1.1 are reproduced verbatim by
//! [`BASIC1_FIELDS`] and [`BASIC1_MODIFIERS`] (experiment X2/X3
//! regenerates them). Queries may also use attributes from *other*
//! attribute sets by qualifying them (`[basic-1 author]` in metadata
//! syntax); [`Field::Other`] covers those.

use std::fmt;

/// The attribute-set identifier for documents, as used in queries'
/// `DefaultAttributeSet` and in metadata values like `[basic-1 author]`.
pub const ATTRSET_BASIC1: &str = "basic-1";

/// The attribute-set identifier for source metadata (§4.3.1).
pub const ATTRSET_MBASIC1: &str = "mbasic-1";

/// A document field — a Z39.50/GILS "use attribute".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Field {
    /// `Title` — required.
    Title,
    /// `Author` — optional.
    Author,
    /// `Body-of-text` — optional.
    BodyOfText,
    /// `Document-text` — **new** in STARTS: "provides a way to pass
    /// documents to the sources as part of the queries, which could be
    /// useful to do relevance feedback".
    DocumentText,
    /// `Date/time-last-modified` — required. (The paper's example
    /// queries spell it `date-last-modified`; both parse.)
    DateLastModified,
    /// `Any` — required; the default when a term has no field.
    Any,
    /// `Linkage` — required: "the value of the Linkage field of a
    /// document is its URL, and it is returned with the query results so
    /// that the document can be retrieved outside of our protocol."
    Linkage,
    /// `Linkage-type` — optional: the document's MIME type.
    LinkageType,
    /// `Cross-reference-linkage` — optional: URLs mentioned in the
    /// document.
    CrossReferenceLinkage,
    /// `Languages` — optional.
    Languages,
    /// `Free-form-text` — **new**: "provides a way to pass to the
    /// sources queries that are not expressed in our query language".
    FreeFormText,
    /// A field from another attribute set (qualified in metadata).
    Other(String),
}

impl Field {
    /// Canonical query-syntax name (lowercase; `Date/time-last-modified`
    /// uses the example queries' spelling).
    pub fn name(&self) -> &str {
        match self {
            Field::Title => "title",
            Field::Author => "author",
            Field::BodyOfText => "body-of-text",
            Field::DocumentText => "document-text",
            Field::DateLastModified => "date-last-modified",
            Field::Any => "any",
            Field::Linkage => "linkage",
            Field::LinkageType => "linkage-type",
            Field::CrossReferenceLinkage => "cross-reference-linkage",
            Field::Languages => "languages",
            Field::FreeFormText => "free-form-text",
            Field::Other(s) => s,
        }
    }

    /// The display name used in the paper's table.
    pub fn table_name(&self) -> &str {
        match self {
            Field::Title => "Title",
            Field::Author => "Author",
            Field::BodyOfText => "Body-of-text",
            Field::DocumentText => "Document-text",
            Field::DateLastModified => "Date/time-last-modified",
            Field::Any => "Any",
            Field::Linkage => "Linkage",
            Field::LinkageType => "Linkage-type",
            Field::CrossReferenceLinkage => "Cross-reference-linkage",
            Field::Languages => "Languages",
            Field::FreeFormText => "Free-form-text",
            Field::Other(s) => s,
        }
    }

    /// Parse a field name (case-insensitive; accepts both the table
    /// spelling and the query spelling of the date field). Unknown names
    /// become [`Field::Other`], lowercased — the only case that
    /// allocates.
    pub fn parse(name: &str) -> Field {
        static SPELLINGS: [(&str, Field); 13] = [
            ("title", Field::Title),
            ("author", Field::Author),
            ("body-of-text", Field::BodyOfText),
            ("document-text", Field::DocumentText),
            ("date-last-modified", Field::DateLastModified),
            ("date/time-last-modified", Field::DateLastModified),
            ("date-time-last-modified", Field::DateLastModified),
            ("any", Field::Any),
            ("linkage", Field::Linkage),
            ("linkage-type", Field::LinkageType),
            ("cross-reference-linkage", Field::CrossReferenceLinkage),
            ("languages", Field::Languages),
            ("free-form-text", Field::FreeFormText),
        ];
        SPELLINGS
            .iter()
            .find(|(spelling, _)| spelling.eq_ignore_ascii_case(name))
            .map_or_else(
                || Field::Other(name.to_ascii_lowercase()),
                |(_, field)| field.clone(),
            )
    }

    /// Whether the paper's table marks this field **Required** —
    /// "meaning that the source must recognize these fields. However, the
    /// source may freely interpret them."
    pub fn required(&self) -> bool {
        matches!(
            self,
            Field::Title | Field::DateLastModified | Field::Any | Field::Linkage
        )
    }

    /// Whether the paper's table marks this field **New** (not in GILS).
    pub fn is_new(&self) -> bool {
        matches!(self, Field::DocumentText | Field::FreeFormText)
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The §4.1.1 field table, in the paper's order: (field, required, new).
pub const fn basic1_fields() -> [(Field, bool, bool); 11] {
    [
        (Field::Title, true, false),
        (Field::Author, false, false),
        (Field::BodyOfText, false, false),
        (Field::DocumentText, false, true),
        (Field::DateLastModified, true, false),
        (Field::Any, true, false),
        (Field::Linkage, true, false),
        (Field::LinkageType, false, false),
        (Field::CrossReferenceLinkage, false, false),
        (Field::Languages, false, false),
        (Field::FreeFormText, false, true),
    ]
}

/// The §4.1.1 field table as a slice.
pub static BASIC1_FIELDS: [(Field, bool, bool); 11] = basic1_fields();

/// Comparison operators usable as modifiers ("only make sense for fields
/// like Date/time-last-modified").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=` — the default relation.
    Eq,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Query-syntax spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
            CmpOp::Ne => "!=",
        }
    }

    /// Parse a comparison operator.
    pub fn parse(s: &str) -> Option<CmpOp> {
        Some(match s {
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            "=" => CmpOp::Eq,
            ">=" => CmpOp::Ge,
            ">" => CmpOp::Gt,
            "!=" => CmpOp::Ne,
            _ => return None,
        })
    }
}

/// A term modifier — a Z39.50 "relation attribute". "Zero or more
/// modifiers can be specified for each term. All the modifiers below are
/// optional, i.e., the search engines need not support them."
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Modifier {
    /// One of `<, <=, =, >=, >, !=` (default `=`).
    Cmp(CmpOp),
    /// `Phonetic` (default: no soundex).
    Phonetic,
    /// `Stem` (default: no stemming).
    Stem,
    /// `Thesaurus` (default: no expansion) — **new** in STARTS.
    Thesaurus,
    /// `Right-truncation` (default: none).
    RightTruncation,
    /// `Left-truncation` (default: none).
    LeftTruncation,
    /// `Case-sensitive` (default: case insensitive) — **new** in STARTS.
    CaseSensitive,
    /// A modifier from another attribute set.
    Other(String),
}

impl Modifier {
    /// Canonical query-syntax name.
    pub fn name(&self) -> &str {
        match self {
            Modifier::Cmp(op) => op.as_str(),
            Modifier::Phonetic => "phonetic",
            Modifier::Stem => "stem",
            Modifier::Thesaurus => "thesaurus",
            Modifier::RightTruncation => "right-truncation",
            Modifier::LeftTruncation => "left-truncation",
            Modifier::CaseSensitive => "case-sensitive",
            Modifier::Other(s) => s,
        }
    }

    /// Parse a modifier name or comparison symbol. Names outside the
    /// known set become [`Modifier::Other`], lowercased — the only case
    /// that allocates; the caller decides if the context allows that.
    pub fn parse(s: &str) -> Modifier {
        static SPELLINGS: [(&str, Modifier); 8] = [
            ("phonetic", Modifier::Phonetic),
            ("phonetics", Modifier::Phonetic),
            ("soundex", Modifier::Phonetic),
            ("stem", Modifier::Stem),
            ("thesaurus", Modifier::Thesaurus),
            ("right-truncation", Modifier::RightTruncation),
            ("left-truncation", Modifier::LeftTruncation),
            ("case-sensitive", Modifier::CaseSensitive),
        ];
        if let Some(op) = CmpOp::parse(s) {
            return Modifier::Cmp(op);
        }
        SPELLINGS
            .iter()
            .find(|(spelling, _)| spelling.eq_ignore_ascii_case(s))
            .map_or_else(
                || Modifier::Other(s.to_ascii_lowercase()),
                |(_, modifier)| modifier.clone(),
            )
    }

    /// Whether the §4.1.1 table marks this modifier **New**.
    pub fn is_new(&self) -> bool {
        matches!(self, Modifier::Thesaurus | Modifier::CaseSensitive)
    }

    /// The "Default" column of the §4.1.1 modifier table.
    pub fn default_behaviour(&self) -> &'static str {
        match self {
            Modifier::Cmp(_) => "=",
            Modifier::Phonetic => "No soundex",
            Modifier::Stem => "No stemming",
            Modifier::Thesaurus => "No thesaurus expansion",
            Modifier::RightTruncation => "No right truncation",
            Modifier::LeftTruncation => "No left truncation",
            Modifier::CaseSensitive => "Case insensitive",
            Modifier::Other(_) => "(not in Basic-1)",
        }
    }
}

impl fmt::Display for Modifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The §4.1.1 modifier table rows (the comparison row is collapsed as in
/// the paper): (table label, representative modifier, new).
pub static BASIC1_MODIFIERS: &[(&str, Modifier, bool)] = &[
    ("<, <=, =, >=, >, !=", Modifier::Cmp(CmpOp::Eq), false),
    ("Phonetic", Modifier::Phonetic, false),
    ("Stem", Modifier::Stem, false),
    ("Thesaurus", Modifier::Thesaurus, true),
    ("Right-truncation", Modifier::RightTruncation, false),
    ("Left-truncation", Modifier::LeftTruncation, false),
    ("Case-sensitive", Modifier::CaseSensitive, true),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_table_matches_paper() {
        // 11 fields; required = Title, Date/time-last-modified, Any,
        // Linkage; new = Document-text, Free-form-text.
        assert_eq!(BASIC1_FIELDS.len(), 11);
        let required: Vec<&Field> = BASIC1_FIELDS
            .iter()
            .filter(|(_, req, _)| *req)
            .map(|(f, _, _)| f)
            .collect();
        assert_eq!(
            required,
            vec![
                &Field::Title,
                &Field::DateLastModified,
                &Field::Any,
                &Field::Linkage
            ]
        );
        let new: Vec<&Field> = BASIC1_FIELDS
            .iter()
            .filter(|(_, _, n)| *n)
            .map(|(f, _, _)| f)
            .collect();
        assert_eq!(new, vec![&Field::DocumentText, &Field::FreeFormText]);
        // Table flags agree with the methods.
        for (f, req, new) in &BASIC1_FIELDS {
            assert_eq!(f.required(), *req, "{f}");
            assert_eq!(f.is_new(), *new, "{f}");
        }
    }

    #[test]
    fn field_parse_round_trip() {
        for (f, _, _) in &BASIC1_FIELDS {
            assert_eq!(&Field::parse(f.name()), f);
            assert_eq!(&Field::parse(f.table_name()), f);
        }
        assert_eq!(
            Field::parse("abstract"),
            Field::Other("abstract".to_string())
        );
        assert_eq!(Field::parse("Body-Of-TEXT"), Field::BodyOfText);
        assert_eq!(
            Field::parse("ABSTRACT"),
            Field::Other("abstract".to_string())
        );
    }

    #[test]
    fn date_field_spellings() {
        assert_eq!(Field::parse("date-last-modified"), Field::DateLastModified);
        assert_eq!(
            Field::parse("Date/time-last-modified"),
            Field::DateLastModified
        );
    }

    #[test]
    fn modifier_table_matches_paper() {
        assert_eq!(BASIC1_MODIFIERS.len(), 7);
        let new: Vec<&str> = BASIC1_MODIFIERS
            .iter()
            .filter(|(_, _, n)| *n)
            .map(|(l, _, _)| *l)
            .collect();
        assert_eq!(new, vec!["Thesaurus", "Case-sensitive"]);
    }

    #[test]
    fn modifier_parse() {
        assert_eq!(Modifier::parse("stem"), Modifier::Stem);
        assert_eq!(Modifier::parse("phonetics"), Modifier::Phonetic);
        assert_eq!(Modifier::parse(">="), Modifier::Cmp(CmpOp::Ge));
        assert_eq!(Modifier::parse("!="), Modifier::Cmp(CmpOp::Ne));
        assert_eq!(
            Modifier::parse("fuzzy"),
            Modifier::Other("fuzzy".to_string())
        );
    }

    #[test]
    fn cmp_round_trip() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ge,
            CmpOp::Gt,
            CmpOp::Ne,
        ] {
            assert_eq!(CmpOp::parse(op.as_str()), Some(op));
        }
        assert_eq!(CmpOp::parse("=="), None);
    }

    #[test]
    fn defaults_column() {
        assert_eq!(Modifier::Stem.default_behaviour(), "No stemming");
        assert_eq!(
            Modifier::CaseSensitive.default_behaviour(),
            "Case insensitive"
        );
    }
}
