//! Term match specifications — the engine-level counterpart of the STARTS
//! modifiers (§4.1.1).
//!
//! A query term like `(title stem "databases")` resolves, inside an
//! engine, to a *set of vocabulary terms* to look up: the stem class of
//! "databases" in the title field. This module defines the specification
//! and the expansion rules; [`crate::engine::Engine`] executes them
//! against an index.

use std::borrow::Cow;

use starts_text::{porter_stem, soundex, CaseMode, Thesaurus};

/// Comparison operators — the `<, <=, =, >=, >, !=` modifiers, which
/// "only make sense for fields like Date/time-last-modified".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=` (the default relation)
    Eq,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Apply the comparison to an ordering of stored value vs. query value.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ge => ord != Less,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ne => ord != Equal,
        }
    }

    /// The STARTS spelling of the operator.
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
}

/// Value-matching modifiers (the non-comparison STARTS modifiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermMatch {
    /// `Stem`: match any word sharing the query term's Porter stem.
    Stem,
    /// `Phonetic`: match any word with the same Soundex code.
    Phonetic,
    /// `Thesaurus`: match any synonym (per the engine's thesaurus).
    Thesaurus,
    /// `Right-truncation`: the term is a prefix ("data" matches
    /// "databases").
    RightTrunc,
    /// `Left-truncation`: the term is a suffix ("bases" matches
    /// "databases").
    LeftTrunc,
    /// `Case-sensitive`: exact-case match (default is insensitive).
    CaseSensitive,
}

/// A fully specified term to match: a field (None = `Any`), the term
/// text, value-matching modifiers, and an optional comparison operator.
#[derive(Debug, Clone, PartialEq)]
pub struct TermSpec {
    /// Field name; `None` means the `Any` pseudo-field.
    pub field: Option<String>,
    /// The query term text (a single word, or a raw value for
    /// comparisons).
    pub term: String,
    /// Value-matching modifiers, applied together.
    pub matches: Vec<TermMatch>,
    /// Comparison operator; when set (and not `Eq`), matching is done on
    /// stored field values, not on the inverted index.
    pub cmp: Option<CmpOp>,
}

impl TermSpec {
    /// A plain term with no field and no modifiers.
    pub fn any(term: impl Into<String>) -> Self {
        TermSpec {
            field: None,
            term: term.into(),
            matches: Vec::new(),
            cmp: None,
        }
    }

    /// A plain fielded term.
    pub fn fielded(field: impl Into<String>, term: impl Into<String>) -> Self {
        TermSpec {
            field: Some(field.into()),
            term: term.into(),
            matches: Vec::new(),
            cmp: None,
        }
    }

    /// Builder-style: add a modifier.
    pub fn with(mut self, m: TermMatch) -> Self {
        self.matches.push(m);
        self
    }

    /// Builder-style: set a comparison.
    pub fn with_cmp(mut self, op: CmpOp) -> Self {
        self.cmp = Some(op);
        self
    }

    /// Whether this spec carries the given modifier.
    pub fn has(&self, m: TermMatch) -> bool {
        self.matches.contains(&m)
    }

    /// Whether matching needs more than a direct lookup of the
    /// engine-normalized term: any modifier the engine does not apply at
    /// index time, or a plain (case-insensitive) term on a case-sensitive
    /// index. The engine walks the vocabulary for the first kind only; a
    /// plain term on a case-sensitive index is exact case folding, which
    /// it answers from a fold table instead.
    pub fn needs_scan(&self, engine_stems: bool, engine_case: CaseMode) -> bool {
        for m in &self.matches {
            match m {
                // If the engine stems its index, a stem query is a direct
                // lookup of the stemmed term.
                TermMatch::Stem if engine_stems => {}
                // Case-sensitive on a case-sensitive index is a direct
                // lookup.
                TermMatch::CaseSensitive if engine_case == CaseMode::Sensitive => {}
                // Thesaurus expands to a bounded set of direct lookups.
                TermMatch::Thesaurus => {}
                _ => return true,
            }
        }
        // Default matching is case-INsensitive; on a case-sensitive index
        // that requires a scan unless the CaseSensitive modifier is given.
        engine_case == CaseMode::Sensitive && !self.has(TermMatch::CaseSensitive)
    }

    /// The predicate this spec induces over *vocabulary terms* (already in
    /// the engine's index-normalized form). `query_norm` is the query term
    /// normalized the same way the engine normalizes index terms, except
    /// case-folding is controlled by the modifiers.
    pub fn vocab_predicate<'a>(
        &'a self,
        thesaurus: &'a Thesaurus,
    ) -> impl Fn(&str, &str) -> bool + 'a {
        // (query_term, vocab_term) -> matches?
        move |query: &str, vocab: &str| {
            let case = if self.has(TermMatch::CaseSensitive) {
                CaseMode::Sensitive
            } else {
                CaseMode::Insensitive
            };
            let mut any_special = false;
            for m in &self.matches {
                match m {
                    TermMatch::Stem => {
                        any_special = true;
                        if case.eq(&porter_stem(query), &porter_stem(vocab)) {
                            return true;
                        }
                    }
                    TermMatch::Phonetic => {
                        any_special = true;
                        if soundex(query).is_some() && soundex(query) == soundex(vocab) {
                            return true;
                        }
                    }
                    TermMatch::Thesaurus => {
                        any_special = true;
                        if thesaurus.synonyms(query, vocab) {
                            return true;
                        }
                    }
                    TermMatch::RightTrunc => {
                        any_special = true;
                        let ok = match case {
                            CaseMode::Sensitive => vocab.starts_with(query),
                            CaseMode::Insensitive => {
                                vocab.len() >= query.len()
                                    && vocab.is_char_boundary(query.len())
                                    && case.eq(&vocab[..query.len()], query)
                            }
                        };
                        if ok {
                            return true;
                        }
                    }
                    TermMatch::LeftTrunc => {
                        any_special = true;
                        let ok = vocab.len() >= query.len()
                            && vocab.is_char_boundary(vocab.len() - query.len())
                            && case.eq(&vocab[vocab.len() - query.len()..], query);
                        if ok {
                            return true;
                        }
                    }
                    TermMatch::CaseSensitive => {}
                }
            }
            if any_special {
                false
            } else {
                case.eq(query, vocab)
            }
        }
    }
}

/// Case-insensitive lookup on a case-sensitive vocabulary: every term
/// whose Unicode simple fold differs from itself, keyed by that fold.
///
/// `CaseMode::Insensitive.eq(a, b)` is `fold_case(a) == fold_case(b)`
/// on both of its branches, and folding is idempotent, so the
/// vocabulary terms a plain query term `q` matches are `fold_case(q)`
/// itself, when the vocabulary holds it, plus this table's entries for
/// `fold_case(q)`. Most indexed terms are already folded and are not
/// stored.
#[derive(Debug)]
pub(crate) struct FoldTable {
    /// `(fold, term)`, sorted by fold.
    entries: Box<[(Box<str>, Box<str>)]>,
}

impl FoldTable {
    /// Index the terms of a vocabulary that are not their own fold.
    pub(crate) fn new<'a>(terms: impl IntoIterator<Item = &'a str>) -> Self {
        let mut entries: Vec<(Box<str>, Box<str>)> = terms
            .into_iter()
            .filter_map(|term| match CaseMode::Insensitive.apply_cow(term) {
                Cow::Owned(fold) if fold != term => Some((fold.into(), term.into())),
                _ => None,
            })
            .collect();
        entries.sort_unstable();
        FoldTable {
            entries: entries.into_boxed_slice(),
        }
    }

    /// The stored terms whose fold is `fold`.
    pub(crate) fn get<'a>(&'a self, fold: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let start = self.entries.partition_point(|(f, _)| &**f < fold);
        self.entries[start..]
            .iter()
            .take_while(move |(f, _)| &**f == fold)
            .map(|(_, term)| &**term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_ops() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Lt.test(Less));
        assert!(!CmpOp::Lt.test(Equal));
        assert!(CmpOp::Le.test(Equal));
        assert!(CmpOp::Eq.test(Equal));
        assert!(CmpOp::Ne.test(Greater));
        assert!(CmpOp::Ge.test(Greater));
        assert!(CmpOp::Gt.test(Greater));
        assert!(!CmpOp::Gt.test(Equal));
        assert_eq!(CmpOp::Ge.as_str(), ">=");
    }

    #[test]
    fn date_comparison_use_case() {
        // (date-last-modified > "1996-08-01") from §4.1.1: ISO dates
        // compare correctly as strings.
        let stored = "1996-09-15";
        let query = "1996-08-01";
        assert!(CmpOp::Gt.test(stored.cmp(query)));
        assert!(!CmpOp::Gt.test("1996-07-01".cmp(query)));
    }

    #[test]
    fn stem_predicate() {
        let spec = TermSpec::fielded("title", "databases").with(TermMatch::Stem);
        let th = Thesaurus::empty();
        let p = spec.vocab_predicate(&th);
        assert!(p("databases", "database"));
        assert!(p("databases", "databases"));
        assert!(!p("databases", "datum"));
    }

    #[test]
    fn phonetic_predicate() {
        let spec = TermSpec::fielded("author", "ullman").with(TermMatch::Phonetic);
        let th = Thesaurus::empty();
        let p = spec.vocab_predicate(&th);
        assert!(p("ullman", "ulman"));
        assert!(!p("ullman", "garcia"));
    }

    #[test]
    fn truncation_predicates() {
        let th = Thesaurus::empty();
        let right = TermSpec::any("data").with(TermMatch::RightTrunc);
        let p = right.vocab_predicate(&th);
        assert!(p("data", "databases"));
        assert!(p("data", "data"));
        assert!(!p("data", "metadata"));

        let left = TermSpec::any("bases").with(TermMatch::LeftTrunc);
        let p = left.vocab_predicate(&th);
        assert!(p("bases", "databases"));
        assert!(!p("bases", "basement"));
    }

    #[test]
    fn case_sensitivity_interacts_with_truncation() {
        let th = Thesaurus::empty();
        let spec = TermSpec::any("Data")
            .with(TermMatch::RightTrunc)
            .with(TermMatch::CaseSensitive);
        let p = spec.vocab_predicate(&th);
        assert!(p("Data", "Databases"));
        assert!(!p("Data", "databases"));
    }

    #[test]
    fn plain_match_is_case_insensitive_by_default() {
        let th = Thesaurus::empty();
        let spec = TermSpec::any("The");
        let p = spec.vocab_predicate(&th);
        assert!(p("The", "the"));
        let strict = TermSpec::any("The").with(TermMatch::CaseSensitive);
        let p = strict.vocab_predicate(&th);
        assert!(!p("The", "the"));
        assert!(p("The", "The"));
    }

    #[test]
    fn thesaurus_predicate() {
        let th = Thesaurus::computer_science();
        let spec = TermSpec::any("database").with(TermMatch::Thesaurus);
        let p = spec.vocab_predicate(&th);
        assert!(p("database", "dbms"));
        assert!(!p("database", "systems"));
    }

    #[test]
    fn multiple_modifiers_are_a_union() {
        // Stem OR Phonetic: either route matches.
        let th = Thesaurus::empty();
        let spec = TermSpec::any("databases")
            .with(TermMatch::Stem)
            .with(TermMatch::Phonetic);
        let p = spec.vocab_predicate(&th);
        assert!(p("databases", "database")); // via stem
    }

    #[test]
    fn needs_scan_logic() {
        let plain = TermSpec::any("x");
        assert!(!plain.needs_scan(false, CaseMode::Insensitive));
        // Case-sensitive index + default (insensitive) query → not a
        // direct lookup; the engine resolves it through its fold table,
        // not a vocabulary walk.
        assert!(plain.needs_scan(false, CaseMode::Sensitive));
        let strict = TermSpec::any("x").with(TermMatch::CaseSensitive);
        assert!(!strict.needs_scan(false, CaseMode::Sensitive));
        // Stem query on a stemming engine → direct lookup.
        let stem = TermSpec::any("x").with(TermMatch::Stem);
        assert!(!stem.needs_scan(true, CaseMode::Insensitive));
        assert!(stem.needs_scan(false, CaseMode::Insensitive));
        // Thesaurus is bounded lookups, never a scan.
        let th = TermSpec::any("x").with(TermMatch::Thesaurus);
        assert!(!th.needs_scan(false, CaseMode::Insensitive));
    }

    #[test]
    fn fold_table_keeps_only_unfolded_terms() {
        let table = FoldTable::new(["data", "Data", "DATA", "\u{212A}elvin", "kelvin", "Σ"]);
        let get = |fold| table.get(fold).collect::<Vec<_>>();
        assert_eq!(get("data"), ["DATA", "Data"]);
        // U+212A KELVIN SIGN folds to ASCII `k`.
        assert_eq!(get("kelvin"), ["\u{212A}elvin"]);
        assert_eq!(get("σ"), ["Σ"]);
        assert!(get("missing").is_empty());
    }
}
