//! Case folding, behind the STARTS `Case-sensitive` modifier.
//!
//! Section 4.1.1 lists `Case-sensitive` among the optional modifiers, with
//! default "Case insensitive": unless a query term carries the modifier,
//! sources match it regardless of case. Content summaries likewise declare
//! whether their word lists are case sensitive (`CaseSensitive` in
//! Example 11). We fold with Unicode simple lowercasing, which handles the
//! paper's bilingual (English/Spanish) sources — `Título` folds to
//! `título` — without attempting full locale tailoring.

use std::borrow::Cow;

/// How a source treats character case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CaseMode {
    /// Fold case at index and query time (the STARTS default).
    #[default]
    Insensitive,
    /// Preserve case exactly.
    Sensitive,
}

impl CaseMode {
    /// Apply this mode to a term: identity when sensitive, lowercase fold
    /// when insensitive.
    pub fn apply(self, term: &str) -> String {
        self.apply_cow(term).into_owned()
    }

    /// Like [`CaseMode::apply`], but borrows when the term is already in
    /// folded form — the indexing hot path, where most tokens are
    /// lowercase ASCII and need no copy at all.
    pub fn apply_cow(self, term: &str) -> Cow<'_, str> {
        match self {
            CaseMode::Sensitive => Cow::Borrowed(term),
            CaseMode::Insensitive => fold_case_cow(term),
        }
    }

    /// Whether two terms are equal under this mode.
    pub fn eq(self, a: &str, b: &str) -> bool {
        match self {
            CaseMode::Sensitive => a == b,
            CaseMode::Insensitive => {
                // Avoid allocating when both are ASCII.
                if a.is_ascii() && b.is_ascii() {
                    a.eq_ignore_ascii_case(b)
                } else {
                    fold_case(a) == fold_case(b)
                }
            }
        }
    }
}

/// Unicode simple lowercase fold.
pub fn fold_case(s: &str) -> String {
    fold_case_cow(s).into_owned()
}

/// Unicode simple lowercase fold that borrows the input when it is
/// already folded (all-ASCII with no uppercase), which is the common
/// case for indexed text.
pub fn fold_case_cow(s: &str) -> Cow<'_, str> {
    if s.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
        return Cow::Borrowed(s);
    }
    Cow::Owned(s.chars().flat_map(char::to_lowercase).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_ascii() {
        assert_eq!(fold_case("Databases"), "databases");
        assert_eq!(fold_case("ULLMAN"), "ullman");
        assert_eq!(fold_case("already-lower"), "already-lower");
    }

    #[test]
    fn folds_spanish() {
        assert_eq!(fold_case("Título"), "título");
        assert_eq!(fold_case("ALGORITMO"), "algoritmo");
    }

    #[test]
    fn modes() {
        assert!(CaseMode::Insensitive.eq("The", "the"));
        assert!(!CaseMode::Sensitive.eq("The", "the"));
        assert!(CaseMode::Sensitive.eq("the", "the"));
        assert_eq!(CaseMode::Insensitive.apply("Who"), "who");
        assert_eq!(CaseMode::Sensitive.apply("Who"), "Who");
    }

    #[test]
    fn non_ascii_insensitive_eq() {
        assert!(CaseMode::Insensitive.eq("Título", "título"));
        assert!(!CaseMode::Sensitive.eq("Título", "título"));
    }

    #[test]
    fn folding_is_idempotent_for_every_char() {
        // An engine resolves a case-insensitive term on a case-sensitive
        // index by looking its fold up, which finds exactly the terms
        // that fold to it only because a fold folds to itself.
        for c in (0..=0x10FFFF).filter_map(char::from_u32) {
            let fold = fold_case(c.encode_utf8(&mut [0; 4]));
            assert_eq!(fold_case(&fold), fold, "U+{:04X}", c as u32);
        }
    }

    #[test]
    fn default_is_insensitive() {
        // The STARTS default per Section 4.1.1's modifier table.
        assert_eq!(CaseMode::default(), CaseMode::Insensitive);
    }
}
