//! Field schema: interning of field names.
//!
//! The engine is agnostic about field semantics; STARTS' Basic-1 field set
//! (Title, Author, Body-of-text, …) is applied by `starts-source`. Field
//! names are case-insensitive, matching the protocol's attribute
//! conventions. Field id 0 is reserved for the pseudo-field **Any**
//! (§4.1.1: "If no field is specified, `Any` is assumed"). No token is
//! indexed under `Any`: an unfielded term expands to its keys in the
//! concrete fields at query time (see `index.rs`).

use std::collections::HashMap;

/// Interned field identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u16);

/// The pseudo-field an unfielded term resolves to: a view over every
/// concrete field, with no lists of its own.
pub const ANY_FIELD: FieldId = FieldId(0);

/// A field-name interner. Names are folded to lowercase for identity.
#[derive(Debug, Clone)]
pub struct Schema {
    names: Vec<String>,
    by_name: HashMap<String, FieldId>,
}

impl Default for Schema {
    fn default() -> Self {
        let mut s = Schema {
            names: Vec::new(),
            by_name: HashMap::new(),
        };
        let any = s.intern("any");
        debug_assert_eq!(any, ANY_FIELD);
        s
    }
}

impl Schema {
    /// A fresh schema containing only `Any`.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Intern a field name, returning its id (existing or new).
    pub fn intern(&mut self, name: &str) -> FieldId {
        let key = name.to_ascii_lowercase();
        if let Some(&id) = self.by_name.get(&key) {
            return id;
        }
        let id = FieldId(
            u16::try_from(self.names.len()).expect("more than 65k fields is not a text schema"),
        );
        self.names.push(key.clone());
        self.by_name.insert(key, id);
        id
    }

    /// Look up an existing field by name.
    pub fn get(&self, name: &str) -> Option<FieldId> {
        if let Some(&id) = self.by_name.get(name) {
            return Some(id);
        }
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// The canonical (lowercase) name of a field.
    pub fn name(&self, id: FieldId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of interned fields (including `Any`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Always false: `Any` is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All field ids except `Any`.
    pub fn concrete_fields(&self) -> impl Iterator<Item = FieldId> + '_ {
        (1..self.names.len()).map(|i| FieldId(i as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_is_field_zero() {
        let s = Schema::new();
        assert_eq!(s.get("any"), Some(ANY_FIELD));
        assert_eq!(s.get("Any"), Some(ANY_FIELD));
        assert_eq!(s.name(ANY_FIELD), "any");
    }

    #[test]
    fn interning_is_idempotent_and_case_insensitive() {
        let mut s = Schema::new();
        let a = s.intern("Title");
        let b = s.intern("title");
        let c = s.intern("TITLE");
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn distinct_fields_get_distinct_ids() {
        let mut s = Schema::new();
        let t = s.intern("title");
        let a = s.intern("author");
        assert_ne!(t, a);
        assert_eq!(s.get("author"), Some(a));
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn concrete_fields_excludes_any() {
        let mut s = Schema::new();
        s.intern("title");
        s.intern("author");
        let ids: Vec<_> = s.concrete_fields().collect();
        assert_eq!(ids.len(), 2);
        assert!(!ids.contains(&ANY_FIELD));
    }
}
