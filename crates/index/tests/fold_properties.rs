//! Property tests for term resolution on a case-sensitive index. A
//! plain term is case-insensitive by default (STARTS §4.1.1), so on an
//! index that keeps case it matches every vocabulary term equal to it
//! under case folding. The engine finds those keys in a fold table
//! instead of walking the vocabulary; these properties hold the lookup
//! to the walk it replaced — [`Engine::scanned_keys`], the reference the
//! naive evaluators resolve with — key for key and hit for hit, at shard
//! counts {1, 2, 3}, over vocabularies whose folds leave ASCII (U+212A
//! KELVIN SIGN folds to `k`, `İ` to `i` plus a combining dot) or do not
//! fold at all (`ß`, final `ς`).

use std::collections::BTreeSet;

use proptest::prelude::*;
use starts_index::{
    BoolNode, Document, Engine, EngineConfig, RankNode, ShardPolicy, ShardedEngine, TermSpec,
};
use starts_text::{fold_case, AnalyzerConfig, CaseMode, StopWordList, TokenizerKind};

/// Letters whose case folds collide often: ASCII pairs, the Kelvin sign
/// beside `k`/`K`, dotted and dotless `i`, a lone combining dot, sharp
/// `s` in both cases, and all three sigmas.
const LETTERS: &[char] = &[
    'a', 'A', 'k', 'K', '\u{212A}', 'i', 'I', 'İ', 'ı', '\u{307}', 's', 'S', 'ß', 'ẞ', 'σ', 'Σ',
    'ς', 'é', 'É',
];

const SHARD_COUNTS: &[usize] = &[1, 2, 3];

/// Fields a spec names: `Any`, both indexed fields, and one no
/// document has.
const FIELDS: &[Option<&str>] = &[None, Some("title"), Some("body-of-text"), Some("abstract")];

fn arb_word() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..LETTERS.len(), 1..4)
        .prop_map(|letters| letters.into_iter().map(|i| LETTERS[i]).collect())
}

/// Two-field documents over [`arb_word`]s.
fn arb_corpus() -> impl Strategy<Value = Vec<Document>> {
    let text = |n| proptest::collection::vec(arb_word(), 1..n).prop_map(|ws| ws.join(" "));
    proptest::collection::vec((text(4), text(12)), 1..16).prop_map(|docs| {
        docs.into_iter()
            .map(|(title, body)| {
                Document::new()
                    .field("title", title)
                    .field("body-of-text", body)
            })
            .collect()
    })
}

fn arb_ranking_id() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("Acme-1"),
        Just("Vendor-K"),
        Just("Okapi-1"),
        Just("Plain-1"),
    ]
}

/// A case-sensitive engine that keeps every letter of a word: split on
/// whitespace only, no stop words, no stemming.
fn config(ranking_id: &str, shards: usize) -> EngineConfig {
    EngineConfig {
        analyzer: AnalyzerConfig {
            tokenizer: TokenizerKind::Whitespace,
            case: CaseMode::Sensitive,
            stem: false,
            stop_words: StopWordList::none(),
            can_disable_stop_words: true,
        },
        ranking_id: ranking_id.to_string(),
        shards,
        shard_policy: ShardPolicy::Exact,
        ..EngineConfig::default()
    }
}

/// Query terms: every word of the corpus as written, folded and
/// upper-cased, plus words no document need hold.
fn query_terms(docs: &[Document], extra: &[String]) -> Vec<String> {
    let mut terms = BTreeSet::new();
    for doc in docs {
        for field in doc.fields() {
            for word in field.text.split_whitespace() {
                terms.insert(word.to_string());
                terms.insert(fold_case(word));
                terms.insert(word.to_uppercase());
            }
        }
    }
    terms.extend(extra.iter().cloned());
    terms.into_iter().collect()
}

fn spec(field: Option<&str>, term: &str) -> TermSpec {
    match field {
        None => TermSpec::any(term),
        Some(name) => TermSpec::fielded(name, term),
    }
}

proptest! {
    /// Every plain term, in every field and `Any`, resolves to the keys
    /// the vocabulary walk finds — on the monolithic engine and on every
    /// shard, which resolve against the collection-wide vocabulary.
    #[test]
    fn fold_lookup_resolves_the_scanned_keys(
        docs in arb_corpus(),
        extra in proptest::collection::vec(arb_word(), 0..6),
    ) {
        let terms = query_terms(&docs, &extra);
        // At most ~80 of them, spread over the sorted list.
        let terms: Vec<&String> = terms.iter().step_by(terms.len().div_ceil(80)).collect();
        for &shards in SHARD_COUNTS {
            let engine = ShardedEngine::build(&docs, config("Acme-1", shards));
            for shard in engine.shards() {
                for field in FIELDS {
                    for term in &terms {
                        let spec = spec(*field, term);
                        prop_assert_eq!(
                            shard.resolved_keys(&spec), shard.scanned_keys(&spec),
                            "shards={} field={:?} term={:?}", shards, field, term
                        );
                    }
                }
            }
        }
    }

    /// Filters and rankings over plain terms return the scanning
    /// engine's hits: the filter cursor equals the set algebra, and the
    /// top-k paths, monolithic and sharded, equal the naive oracle's
    /// prefix.
    #[test]
    fn fold_lookup_returns_the_scanning_engines_hits(
        docs in arb_corpus(),
        picks in proptest::collection::vec((0usize..64, 0..FIELDS.len(), 1u32..=4), 1..4),
        ranking_id in arb_ranking_id(),
        k in 1usize..8,
    ) {
        let terms = query_terms(&docs, &[]);
        let specs: Vec<(TermSpec, f64)> = picks
            .iter()
            .map(|&(t, f, w)| (spec(FIELDS[f], &terms[t % terms.len()]), f64::from(w) * 0.25))
            .collect();
        let filter = specs
            .iter()
            .map(|(s, _)| BoolNode::Term(s.clone()))
            .reduce(|a, b| BoolNode::Or(Box::new(a), Box::new(b)))
            .expect("at least one term");
        let ranking = RankNode::List(
            specs.iter().map(|(s, w)| RankNode::weighted(s.clone(), *w)).collect(),
        );

        let mono = Engine::build(&docs, config(ranking_id, 1));
        prop_assert_eq!(mono.eval_filter(&filter), mono.eval_filter_sets(&filter));
        let engines: Vec<(usize, ShardedEngine)> = SHARD_COUNTS
            .iter()
            .map(|&shards| (shards, ShardedEngine::build(&docs, config(ranking_id, shards))))
            .collect();
        for (f, r) in [
            (Some(&filter), None),
            (None, Some(&ranking)),
            (Some(&filter), Some(&ranking)),
        ] {
            let full = mono.search_naive(f, r);
            prop_assert_eq!(&mono.search(f, r), &full);
            for (shards, engine) in &engines {
                prop_assert_eq!(
                    &engine.search_top_k(f, r, Some(k))[..], &full[..k.min(full.len())],
                    "shards={} filter={} ranked={}",
                    shards, f.is_some(), r.is_some()
                );
            }
        }
    }
}

/// The letters whose folds leave ASCII or do not fold, pinned.
#[test]
fn non_ascii_folds_resolve_like_the_scan() {
    let docs = vec![
        Document::new().field("body-of-text", "\u{212A}elvin kelvin KELVIN"),
        Document::new().field("body-of-text", "İstanbul i\u{307}stanbul ISTANBUL"),
        Document::new().field("body-of-text", "straße STRASSE Straße ẞ ß"),
        Document::new().field("body-of-text", "ΣΟΦΙΑ σοφια ς σ Σ"),
    ];
    for shards in SHARD_COUNTS {
        let engine = ShardedEngine::build(&docs, config("Acme-1", *shards));
        for shard in engine.shards() {
            let keys = |term: &str| shard.resolved_keys(&TermSpec::any(term)).unwrap();
            for term in ["kelvin", "i\u{307}stanbul", "istanbul", "straße", "σ", "ς"] {
                let spec = TermSpec::any(term);
                assert_eq!(shard.resolved_keys(&spec), shard.scanned_keys(&spec));
            }
            assert_eq!(keys("kelvin"), ["KELVIN", "kelvin", "\u{212A}elvin"]);
            assert_eq!(keys("i\u{307}stanbul"), ["i\u{307}stanbul", "İstanbul"]);
            assert_eq!(keys("istanbul"), ["ISTANBUL"]);
            assert_eq!(keys("STRASSE"), ["STRASSE"]);
            assert_eq!(keys("ß"), ["ß", "ẞ"]);
            assert_eq!(keys("σ"), ["Σ", "σ"]);
            assert_eq!(keys("ς"), ["ς"]);
        }
    }
}
