//! Property-based tests: arbitrary query ASTs round-trip through the
//! canonical printer and the parser, all protocol objects round-trip
//! through SOIF, the indexed content-summary lookup answers exactly as
//! the linear definition does, and the two timing attributes
//! (`XQueryProfile`, `XTraceContext`) round-trip and never panic on
//! what a host may send instead.

mod strategies;

use proptest::prelude::*;
use starts_proto::query::{parse_filter, parse_ranking, print_filter, print_ranking};
use starts_proto::summary::{ContentSummary, IndexedSummary, SummarySection, TermSummary};
use starts_proto::{Query, QueryProfile, TraceContext};
use strategies::{arb_filter, arb_profile, arb_ranking, arb_trace_context};

/// Words over a tiny two-case alphabet: spellings that differ only in
/// case, and outright repeats, turn up inside one section and across
/// sections.
fn arb_summary_word() -> impl Strategy<Value = String> {
    "[abAB]{1,3}"
}

fn arb_section_field() -> impl Strategy<Value = Option<String>> {
    proptest::option::of(prop_oneof![
        Just("title".to_string()),
        Just("TITLE".to_string()),
        Just("body-of-text".to_string()),
    ])
}

fn arb_summary() -> impl Strategy<Value = ContentSummary> {
    let section = (
        arb_section_field(),
        proptest::collection::vec((arb_summary_word(), proptest::option::of(0u32..50)), 0..24),
    )
        .prop_map(|(field, words)| SummarySection {
            field,
            language: None,
            terms: words
                .into_iter()
                .map(|(term, doc_freq)| TermSummary {
                    term,
                    total_postings: Some(1),
                    doc_freq,
                })
                .collect(),
        });
    (any::<bool>(), proptest::collection::vec(section, 0..6)).prop_map(
        |(case_sensitive, sections)| ContentSummary {
            case_sensitive,
            num_docs: 50,
            sections,
            ..ContentSummary::default()
        },
    )
}

/// One line or token of `encoded` dropped, duplicated or cut short:
/// what a host that mangles a valid attribute sends.
fn mutations(encoded: &str, at: usize) -> Vec<String> {
    let mut out = Vec::new();
    for sep in ['\n', ' '] {
        let parts: Vec<&str> = encoded.split(sep).collect();
        let i = at % parts.len();
        let mut dropped = parts.clone();
        dropped.remove(i);
        out.push(dropped.join(&sep.to_string()));
        let mut doubled = parts.clone();
        doubled.insert(i, parts[i]);
        out.push(doubled.join(&sep.to_string()));
    }
    let chars: Vec<char> = encoded.chars().collect();
    out.push(chars[..at % (chars.len() + 1)].iter().collect());
    out
}

/// What decodes must re-encode to itself: decoding is a projection.
fn check_decoders(value: &str) {
    if let Some(p) = QueryProfile::decode(value) {
        assert_eq!(QueryProfile::decode(&p.encode()), Some(p), "{value:?}");
    }
    if let Some(ctx) = TraceContext::decode(value) {
        assert_eq!(TraceContext::decode(&ctx.encode()), Some(ctx), "{value:?}");
    }
}

/// Cases the properties found. Trailing whitespace used to be trimmed
/// off a context's path.
#[test]
fn timing_attribute_examples() {
    for parent_path in ["meta.search/dispatch/source ", "K2s@lu,&V]gC$\n"] {
        let ctx = TraceContext {
            query_id: "q-1".to_string(),
            parent_path: parent_path.to_string(),
            parent_span_id: 3,
        };
        assert_eq!(TraceContext::decode(&ctx.encode()), Some(ctx));
    }
}

proptest! {
    /// decode ∘ encode = identity on profiles.
    #[test]
    fn query_profile_round_trip(p in arb_profile()) {
        prop_assert_eq!(QueryProfile::decode(&p.encode()), Some(p));
    }

    /// decode ∘ encode = identity on trace contexts.
    #[test]
    fn trace_context_round_trip(ctx in arb_trace_context()) {
        prop_assert_eq!(TraceContext::decode(&ctx.encode()), Some(ctx));
    }

    /// Neither decoder panics on a valid encoding with one line or
    /// token dropped, duplicated or truncated.
    #[test]
    fn timing_decoders_survive_mangled_encodings(
        p in arb_profile(),
        ctx in arb_trace_context(),
        at in any::<usize>(),
    ) {
        for value in mutations(&p.encode(), at).iter().chain(&mutations(&ctx.encode(), at)) {
            check_decoders(value);
        }
    }

    /// Neither decoder panics on arbitrary text, printable or not.
    #[test]
    fn timing_decoders_are_total(
        junk in any::<String>(),
        shaped in "[0-9 \n=a-z-]{0,120}",
    ) {
        check_decoders(&junk);
        check_decoders(&shaped);
    }

    /// `IndexedSummary::lookup` returns the very entry the linear
    /// `ContentSummary::lookup` returns — first admissible section, first
    /// matching word in it — for listed words in either case, absent
    /// words, and fields the summary has, lacks, or spells differently.
    #[test]
    fn indexed_summary_lookup_is_the_linear_lookup(
        summary in arb_summary(),
        strangers in proptest::collection::vec(arb_summary_word(), 0..6),
    ) {
        let indexed = IndexedSummary::new(summary);
        let linear: &ContentSummary = &indexed;
        let mut probes: Vec<String> = strangers;
        probes.push("absent".to_string());
        for section in &linear.sections {
            for word in &section.terms {
                probes.push(word.term.clone());
                probes.push(word.term.to_ascii_uppercase());
                probes.push(word.term.to_ascii_lowercase());
            }
        }
        for field in [None, Some("title"), Some("Body-Of-Text"), Some("author")] {
            for probe in &probes {
                let (fast, slow) = (indexed.lookup(field, probe), linear.lookup(field, probe));
                prop_assert!(
                    match (fast, slow) {
                        (Some(a), Some(b)) => std::ptr::eq(a, b),
                        (None, None) => true,
                        _ => false,
                    },
                    "lookup({:?}, {:?}): indexed {:?}, linear {:?}", field, probe, fast, slow
                );
                prop_assert_eq!(indexed.df(field, probe), linear.df(field, probe));
            }
        }
    }

    /// print ∘ parse = identity on filter expressions.
    #[test]
    fn filter_print_parse_round_trip(f in arb_filter()) {
        let printed = print_filter(&f);
        let parsed = parse_filter(&printed)
            .unwrap_or_else(|e| panic!("reparse failed on {printed:?}: {e}"));
        prop_assert_eq!(parsed, f);
    }

    /// print ∘ parse = identity on ranking expressions.
    #[test]
    fn ranking_print_parse_round_trip(r in arb_ranking()) {
        let printed = print_ranking(&r);
        let parsed = parse_ranking(&printed)
            .unwrap_or_else(|e| panic!("reparse failed on {printed:?}: {e}"));
        prop_assert_eq!(parsed, r);
    }

    /// Whole queries round-trip through SOIF.
    #[test]
    fn query_soif_round_trip(
        filter in proptest::option::of(arb_filter()),
        ranking in proptest::option::of(arb_ranking()),
        drop_stop_words in any::<bool>(),
        max_docs in proptest::option::of(1usize..1000),
        min_score in proptest::option::of((0u32..=100).prop_map(|w| f64::from(w) / 100.0)),
    ) {
        let q = Query {
            filter,
            ranking,
            drop_stop_words,
            answer: starts_proto::AnswerSpec {
                max_documents: max_docs.unwrap_or(usize::MAX),
                min_doc_score: min_score.unwrap_or(f64::NEG_INFINITY),
                ..Default::default()
            },
            ..Query::default()
        };
        let bytes = starts_soif::write_object(&q.to_soif());
        let parsed = starts_soif::parse_one(&bytes, starts_soif::ParseMode::Strict).unwrap();
        let back = Query::from_soif(&parsed).unwrap();
        prop_assert_eq!(back, q);
    }

    /// The parser never panics on arbitrary printable input.
    #[test]
    fn parser_total(junk in "[ -~]{0,80}") {
        let _ = parse_filter(&junk);
        let _ = parse_ranking(&junk);
    }
}
