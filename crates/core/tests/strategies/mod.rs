//! Generators shared by the property suites: query expressions in the
//! canonical grammar, and the two timing attributes; and, in
//! [`mutations`], the mutations of a valid encoding that the decoder
//! suites feed their decoders.

#![allow(dead_code)] // each suite uses its own subset

pub mod mutations;

use proptest::prelude::*;
use starts_proto::attrs::CmpOp;
use starts_proto::query::{FilterExpr, ProxSpec, QTerm, RankExpr, WeightedTerm};
use starts_proto::{Field, LString, Modifier, QueryProfile, StageCost, TraceContext};
use starts_text::LangTag;

pub fn arb_word() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,11}"
}

pub fn arb_lang() -> impl Strategy<Value = LangTag> {
    prop_oneof![
        Just(LangTag::en_us()),
        Just(LangTag::es()),
        Just(LangTag::parse("en-GB").unwrap()),
    ]
}

pub fn arb_lstring() -> impl Strategy<Value = LString> {
    (arb_word(), proptest::option::of(arb_lang())).prop_map(|(text, lang)| LString { lang, text })
}

/// Free text: plain, printable with tabs, newlines and non-ASCII, or
/// empty.
pub fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9 ./:-]{0,24}",
        "[ -~\t\né中ñ]{0,24}",
        Just(String::new()),
    ]
}

pub fn arb_field() -> impl Strategy<Value = Field> {
    prop_oneof![
        Just(Field::Title),
        Just(Field::Author),
        Just(Field::BodyOfText),
        Just(Field::DateLastModified),
        Just(Field::Linkage),
        Just(Field::Any),
        "[a-z]{3,8}"
            .prop_filter("field names must not collide with reserved words", |w| {
                // A field name that parses as a modifier or operator would
                // legitimately re-parse differently.
                matches!(Modifier::parse(w), Modifier::Other(_))
                    && !matches!(
                        w.as_str(),
                        "and" | "or" | "and-not" | "prox" | "list" | "not"
                    )
            })
            .prop_map(Field::Other),
    ]
}

pub fn arb_modifier() -> impl Strategy<Value = Modifier> {
    prop_oneof![
        Just(Modifier::Stem),
        Just(Modifier::Phonetic),
        Just(Modifier::Thesaurus),
        Just(Modifier::RightTruncation),
        Just(Modifier::LeftTruncation),
        Just(Modifier::CaseSensitive),
        Just(Modifier::Cmp(CmpOp::Gt)),
        Just(Modifier::Cmp(CmpOp::Le)),
        Just(Modifier::Cmp(CmpOp::Ne)),
    ]
}

pub fn arb_term() -> impl Strategy<Value = QTerm> {
    (
        proptest::option::of(arb_field()),
        proptest::collection::vec(arb_modifier(), 0..3),
        arb_lstring(),
    )
        .prop_map(|(field, modifiers, value)| QTerm {
            field,
            modifiers,
            value,
        })
}

pub fn arb_prox() -> impl Strategy<Value = ProxSpec> {
    (0u32..20, any::<bool>()).prop_map(|(distance, ordered)| ProxSpec { distance, ordered })
}

pub fn arb_filter() -> impl Strategy<Value = FilterExpr> {
    let leaf = arb_term().prop_map(FilterExpr::Term);
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FilterExpr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FilterExpr::or(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| FilterExpr::and_not(a, b)),
            (arb_term(), arb_prox(), arb_term()).prop_map(|(l, p, r)| FilterExpr::Prox(l, p, r)),
        ]
    })
}

pub fn arb_weight() -> impl Strategy<Value = Option<f64>> {
    proptest::option::of((0u32..=100).prop_map(|w| f64::from(w) / 100.0))
}

pub fn arb_wterm() -> impl Strategy<Value = WeightedTerm> {
    (arb_term(), arb_weight()).prop_map(|(term, weight)| WeightedTerm { term, weight })
}

pub fn arb_ranking() -> impl Strategy<Value = RankExpr> {
    let leaf = arb_wterm().prop_map(RankExpr::Term);
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(RankExpr::List),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RankExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RankExpr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| RankExpr::AndNot(Box::new(a), Box::new(b))),
            (arb_wterm(), arb_prox(), arb_wterm()).prop_map(|(l, p, r)| RankExpr::Prox(l, p, r)),
        ]
    })
}

/// A stage name or meta key: no whitespace, no `=`.
pub fn arb_profile_token() -> impl Strategy<Value = String> {
    "[!-<>-~é中]{1,10}"
}

pub fn arb_stage_leaf() -> impl Strategy<Value = StageCost> {
    let meta = (arb_profile_token(), "[!-~é]{0,8}");
    (
        arb_profile_token(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(meta, 0..3),
    )
        .prop_map(|(name, start_us, duration_us, meta)| StageCost {
            name,
            start_us,
            duration_us,
            meta,
            children: Vec::new(),
        })
}

/// Profiles in the documented grammar: depth ≤ 6, fan-out ≤ 4, any
/// offsets (consistent or not — the codec does not care).
pub fn arb_profile() -> impl Strategy<Value = QueryProfile> {
    let tree = arb_stage_leaf().prop_recursive(6, 48, 4, |inner| {
        (arb_stage_leaf(), proptest::collection::vec(inner, 0..=4)).prop_map(
            |(mut stage, children)| {
                stage.children = children;
                stage
            },
        )
    });
    ("[!-~]{0,10}", tree).prop_map(|(query_id, root)| QueryProfile { query_id, root })
}

/// Contexts in the documented grammar: a query id without whitespace,
/// any span id, and a non-empty path that may hold anything.
pub fn arb_trace_context() -> impl Strategy<Value = TraceContext> {
    ("[!-~é]{1,12}", any::<u64>(), "[ -~\t\né]{1,30}").prop_map(
        |(query_id, parent_span_id, parent_path)| TraceContext {
            query_id,
            parent_path,
            parent_span_id,
        },
    )
}
