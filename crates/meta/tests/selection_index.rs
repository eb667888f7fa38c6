//! Selection reads word statistics through the catalog's indexed
//! summaries. These tests hold it to the linear definition
//! (`ContentSummary::lookup`): the same df for every word, and therefore
//! bit-identical selector scores.

use proptest::prelude::*;
use starts_corpus::{generate_corpus, CorpusConfig};
use starts_meta::catalog::{Catalog, CatalogEntry};
use starts_meta::select::{summary_df, BGloss, Cori, GGlossSum, Selector};
use starts_net::host::wire_source;
use starts_net::{LinkProfile, SimNet, StartsClient};
use starts_proto::summary::{ContentSummary, IndexedSummary, SummarySection, TermSummary};
use starts_source::{Source, SourceConfig};

/// `summary_df` as it was defined over the plain summary: a linear
/// lookup of the word, or of its stem when the summary lists stems.
fn linear_df(summary: &ContentSummary, field: Option<&str>, term: &str) -> u32 {
    if summary.stemmed {
        summary.df(field, &starts_text::porter_stem(term))
    } else {
        summary.df(field, term)
    }
}

/// Surface forms, their Porter stems, and case variants of both.
const WORDS: [&str; 10] = [
    "databases",
    "databas",
    "Databas",
    "running",
    "run",
    "RUN",
    "queries",
    "queri",
    "computing",
    "comput",
];

fn arb_summary() -> impl Strategy<Value = ContentSummary> {
    let word = (0..WORDS.len(), 1u32..40).prop_map(|(w, df)| TermSummary {
        term: WORDS[w].to_string(),
        total_postings: None,
        doc_freq: Some(df),
    });
    let section = (
        proptest::option::of(prop_oneof![Just("title"), Just("body-of-text")]),
        proptest::collection::vec(word, 0..12),
    )
        .prop_map(|(field, terms)| SummarySection {
            field: field.map(str::to_string),
            language: None,
            terms,
        });
    (
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(section, 0..4),
    )
        .prop_map(|(stemmed, case_sensitive, sections)| ContentSummary {
            stemmed,
            case_sensitive,
            num_docs: 40,
            sections,
            ..ContentSummary::default()
        })
}

proptest! {
    /// Stemmed or not, case-sensitive or not: the df selection sees is
    /// the df the linear definition gives.
    #[test]
    fn summary_df_is_the_linear_df(summary in arb_summary()) {
        let indexed = IndexedSummary::new(summary);
        for field in [None, Some("title"), Some("Body-Of-Text"), Some("author")] {
            for word in WORDS.iter().copied().chain(["absent"]) {
                prop_assert_eq!(
                    summary_df(&indexed, field, word),
                    linear_df(&indexed, field, word),
                    "df({:?}, {:?})", field, word
                );
            }
        }
    }
}

fn reference_bgloss(entry: &CatalogEntry, terms: &[(Option<&str>, &str)]) -> f64 {
    let n = f64::from(entry.summary.num_docs);
    if n == 0.0 || terms.is_empty() {
        return 0.0;
    }
    let mut est = n;
    for (field, term) in terms {
        est *= f64::from(linear_df(&entry.summary, *field, term)) / n;
    }
    est
}

fn reference_ggloss(entry: &CatalogEntry, terms: &[(Option<&str>, &str)]) -> f64 {
    let n = f64::from(entry.summary.num_docs);
    if n == 0.0 {
        return 0.0;
    }
    terms
        .iter()
        .map(|(field, term)| {
            let df = f64::from(linear_df(&entry.summary, *field, term));
            if df == 0.0 {
                0.0
            } else {
                df * (1.0 + n / df).ln()
            }
        })
        .sum()
}

fn reference_cori(
    b: f64,
    entry: &CatalogEntry,
    catalog: &Catalog,
    terms: &[(Option<&str>, &str)],
) -> f64 {
    if terms.is_empty() {
        return 0.0;
    }
    let n_collections = catalog.len() as f64;
    let avg_cw = (catalog.total_docs() as f64 / n_collections.max(1.0)).max(1.0);
    let cw = f64::from(entry.summary.num_docs);
    let mut belief = 0.0;
    for (field, term) in terms {
        let df = f64::from(linear_df(&entry.summary, *field, term));
        let cf = catalog
            .entries
            .iter()
            .filter(|e| linear_df(&e.summary, *field, term) > 0)
            .count() as f64;
        let t = df / (df + 50.0 + 150.0 * cw / avg_cw);
        let i = if cf > 0.0 {
            ((n_collections + 0.5) / cf).ln() / (n_collections + 1.0).ln()
        } else {
            0.0
        };
        belief += b + (1.0 - b) * t * i;
    }
    belief / terms.len() as f64
}

/// The X14 federation: 12 sources × 400 documents, discovered over the
/// wire the way every deployment builds its catalog.
fn x14_catalog() -> (Catalog, Vec<String>) {
    let corpus = generate_corpus(&CorpusConfig {
        n_sources: 12,
        docs_per_source: 400,
        n_topics: 4,
        background_vocab: 1500,
        topic_vocab: 100,
        doc_len: (25, 90),
        topic_skew: 0.35,
        bilingual_fraction: 0.0,
        seed: 19970526,
    });
    let net = SimNet::new();
    for s in &corpus.sources {
        wire_source(
            &net,
            Source::build(SourceConfig::new(&s.id), &s.docs),
            LinkProfile::default(),
        );
    }
    let client = StartsClient::new(&net);
    let mut catalog = Catalog::default();
    for s in &corpus.sources {
        let url = format!("starts://{}/metadata", s.id.to_lowercase());
        catalog
            .discover_source(&client, &url, LinkProfile::default(), false)
            .unwrap();
    }
    // Every 9th background word (common through rare), every 7th topic
    // word, a word in the wrong case, and one no source lists.
    let mut words: Vec<String> = corpus.background.iter().step_by(9).cloned().collect();
    for topic in &corpus.topics {
        words.extend(topic.iter().step_by(7).cloned());
    }
    words.push(corpus.background[3].to_ascii_uppercase());
    words.push("nowhere".to_string());
    (catalog, words)
}

#[test]
fn selector_scores_on_the_x14_catalog_are_bit_equal_to_the_linear_lookup() {
    let (catalog, words) = x14_catalog();
    assert_eq!(catalog.len(), 12);
    let cori = Cori::default();
    let mut nonzero = 0usize;
    for (i, word) in words.iter().enumerate() {
        // One-, two- and three-word queries, with and without a field.
        let second = &words[(i * 7 + 1) % words.len()];
        let third = &words[(i * 13 + 5) % words.len()];
        let queries: [Vec<(Option<&str>, &str)>; 4] = [
            vec![(None, word)],
            vec![(Some("body-of-text"), word)],
            vec![(None, word), (Some("title"), second)],
            vec![(Some("body-of-text"), word), (None, second), (None, third)],
        ];
        for terms in &queries {
            for entry in &catalog.entries {
                let pairs = [
                    (
                        BGloss.score_source(entry, &catalog, terms),
                        reference_bgloss(entry, terms),
                    ),
                    (
                        GGlossSum.score_source(entry, &catalog, terms),
                        reference_ggloss(entry, terms),
                    ),
                    (
                        cori.score_source(entry, &catalog, terms),
                        reference_cori(cori.b, entry, &catalog, terms),
                    ),
                ];
                for (indexed, linear) in pairs {
                    assert_eq!(
                        indexed.to_bits(),
                        linear.to_bits(),
                        "{} on {terms:?}: {indexed} vs {linear}",
                        entry.id
                    );
                    nonzero += usize::from(indexed > 0.0);
                }
            }
            assert_eq!(
                catalog.global_df(terms[0].0, terms[0].1),
                catalog
                    .entries
                    .iter()
                    .map(|e| u64::from(ContentSummary::df(&e.summary, terms[0].0, terms[0].1)))
                    .sum::<u64>()
            );
        }
    }
    assert!(
        nonzero > 1_000,
        "the workload must exercise real statistics"
    );
}
