//! What the `Any` pseudo-field feeds, pinned: the exported
//! `@SContentSummary` of every vendor, the `TermStats` of unfielded
//! terms, and the answers of unfielded ranked queries and `prox`
//! filters.
//!
//! An index stores each token once, under its own field, and reads
//! `Any` as a view over a term's field lists (df and total tf from
//! per-term columns, document-global positions through each stored
//! value's position base). Every constant below was computed by the
//! index that still stored a second, `Any`-keyed copy of every posting;
//! the view must answer exactly as that copy did — summary bytes, df,
//! tf, weight bits, scores and match sets — at one shard and at three.

use starts_corpus::{generate_corpus, CorpusConfig, GeneratedCorpus};
use starts_index::{BoolNode, DocId, RankNode, ShardPolicy, TermMatch, TermSpec};
use starts_source::{vendors, Source, SourceConfig};

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn corpus() -> GeneratedCorpus {
    generate_corpus(&CorpusConfig {
        n_sources: 1,
        docs_per_source: 300,
        n_topics: 2,
        background_vocab: 400,
        topic_vocab: 60,
        doc_len: (10, 40),
        topic_skew: 0.35,
        bilingual_fraction: 1.0,
        seed: 19_970_526,
    })
}

/// A vendor personality's configuration constructor.
type Vendor = fn(&str) -> SourceConfig;

const VENDORS: [(&str, Vendor); 5] = [
    ("acme", vendors::acme),
    ("bolt", vendors::bolt),
    ("okapi", vendors::okapi),
    ("glimpse", vendors::glimpse),
    ("rankonly", vendors::rankonly),
];

fn build(vendor: Vendor, shards: usize, qualified: bool) -> Source {
    let corpus = corpus();
    let mut config = vendor("pin");
    config.engine.shards = shards;
    config.engine.shard_policy = ShardPolicy::Exact;
    config.summary_fields_qualified = qualified;
    let source = Source::build(config, &corpus.sources[0].docs);
    assert_eq!(source.engine().shard_count(), shards);
    source
}

/// The unfielded words the pins ask about: common and rare background
/// words, topic words, and words only one field holds (`author`'s
/// "author", `linkage`'s "gen" and "doc").
fn words(corpus: &GeneratedCorpus) -> Vec<String> {
    let mut out: Vec<String> = corpus.background[..10].to_vec();
    out.extend(corpus.background[200..204].iter().cloned());
    out.extend(corpus.topics[0][..4].iter().cloned());
    out.extend(corpus.topics[1][..2].iter().cloned());
    out.extend(["author", "gen", "doc", "1996", "nosuchword"].map(String::from));
    out
}

/// FNV of the SOIF bytes of the source's content summary.
fn summary_digest(source: &Source) -> u64 {
    let bytes = source.content_summary().to_soif_bytes();
    let mut h = Fnv::new();
    h.bytes(&bytes);
    h.0
}

/// `(digest, Σ tf, Σ df)` over the `TermStats` of every pinned word,
/// plain and under `Stem`, in every document: tf, df and weight bits.
fn term_stats_digest(source: &Source) -> (u64, u64, u64) {
    let engine = source.engine();
    let corpus = corpus();
    let mut h = Fnv::new();
    let (mut tf_sum, mut df_sum) = (0u64, 0u64);
    for word in words(&corpus) {
        for spec in [
            TermSpec::any(word.as_str()),
            TermSpec::any(word.as_str()).with(TermMatch::Stem),
        ] {
            let resolved = engine.resolve_term(&spec);
            for doc in (0..engine.n_docs()).map(DocId) {
                let st = resolved.stats(doc);
                h.u64(u64::from(st.tf));
                h.u64(u64::from(st.df));
                h.u64(st.weight.to_bits());
                tf_sum += u64::from(st.tf);
                df_sum += u64::from(st.df);
            }
        }
    }
    (h.0, tf_sum, df_sum)
}

/// FNV over the answers of unfielded queries: top-10 ranked lists
/// (doc ids and raw score bits) and `prox` filter match sets, at
/// distances inside one field value and across the gap between two.
fn answers_digest(source: &Source) -> u64 {
    let engine = source.engine();
    let corpus = corpus();
    let words = words(&corpus);
    let mut h = Fnv::new();
    let any = |w: &str| RankNode::term(TermSpec::any(w));
    for i in 0..words.len() {
        let (a, b, c) = (
            &words[i],
            &words[(i + 3) % words.len()],
            &words[(i + 7) % words.len()],
        );
        let rankings = [
            any(a),
            RankNode::List(vec![any(a), any(b), any(c)]),
            RankNode::Or(vec![any(a), RankNode::And(vec![any(b), any(c)])]),
            RankNode::Prox {
                left: Box::new(any(a)),
                right: Box::new(any(b)),
                distance: 5,
                ordered: false,
            },
            RankNode::term(TermSpec::any(a.as_str()).with(TermMatch::Stem)),
        ];
        for ranking in &rankings {
            for hit in engine.search_top_k(None, Some(ranking), Some(10)) {
                h.u64(u64::from(hit.doc.0));
                h.u64(hit.score.map_or(u64::MAX, f64::to_bits));
            }
            h.u64(u64::MAX - 1);
        }
        for (distance, ordered) in [
            (0, true),
            (5, false),
            (99, false),
            (150, false),
            (400, true),
        ] {
            let prox = BoolNode::Prox {
                left: TermSpec::any(a.as_str()),
                right: TermSpec::any(b.as_str()),
                distance,
                ordered,
            };
            for hit in engine.search(Some(&prox), None) {
                h.u64(u64::from(hit.doc.0));
            }
            h.u64(u64::MAX - 2);
        }
    }
    h.0
}

/// Content-summary digests: vendor × field-qualified × shards.
const SUMMARY_PINS: &[(&str, bool, usize, u64)] = &[
    ("acme", true, 1, 5219338833753747050),
    ("acme", true, 3, 5219338833753747050),
    ("acme", false, 1, 3699274562277652475),
    ("acme", false, 3, 3699274562277652475),
    ("bolt", true, 1, 11045614403315525249),
    ("bolt", true, 3, 11045614403315525249),
    ("bolt", false, 1, 3330701175543096604),
    ("bolt", false, 3, 3330701175543096604),
    ("okapi", true, 1, 16090495806018279253),
    ("okapi", true, 3, 16090495806018279253),
    ("okapi", false, 1, 8166236936731017529),
    ("okapi", false, 3, 8166236936731017529),
    ("glimpse", true, 1, 664747605095847778),
    ("glimpse", true, 3, 664747605095847778),
    ("glimpse", false, 1, 8617480954404665283),
    ("glimpse", false, 3, 8617480954404665283),
    ("rankonly", true, 1, 5219338833753747050),
    ("rankonly", true, 3, 5219338833753747050),
    ("rankonly", false, 1, 3699274562277652475),
    ("rankonly", false, 3, 3699274562277652475),
];

/// `TermStats` pins: vendor × shards → (digest, Σ tf, Σ df).
const TERM_STATS_PINS: &[(&str, usize, u64, u64, u64)] = &[
    ("acme", 1, 4077879925419475249, 5566, 1213800),
    ("acme", 3, 4077879925419475249, 5566, 1213800),
    ("bolt", 1, 6719612711512392857, 4782, 978600),
    ("bolt", 3, 6719612711512392857, 4782, 978600),
    ("okapi", 1, 6303020884998151985, 4182, 798600),
    ("okapi", 3, 6303020884998151985, 4182, 798600),
    ("glimpse", 1, 18439620395710597517, 5566, 1213800),
    ("glimpse", 3, 18439620395710597517, 5566, 1213800),
    ("rankonly", 1, 18439620395710597517, 5566, 1213800),
    ("rankonly", 3, 18439620395710597517, 5566, 1213800),
];

/// Unfielded answers: vendor × shards → digest.
const ANSWER_PINS: &[(&str, usize, u64)] = &[
    ("acme", 1, 4557865488611425163),
    ("acme", 3, 4557865488611425163),
    ("bolt", 1, 12225182671809799818),
    ("bolt", 3, 12225182671809799818),
    ("okapi", 1, 11955396668865622953),
    ("okapi", 3, 11955396668865622953),
    ("glimpse", 1, 5619843125248977473),
    ("glimpse", 3, 5619843125248977473),
    ("rankonly", 1, 859434531431714053),
    ("rankonly", 3, 859434531431714053),
];

#[test]
fn content_summaries_equal_the_pinned_bytes() {
    let mut got = Vec::new();
    for (name, vendor) in VENDORS {
        for qualified in [true, false] {
            for shards in [1, 3] {
                let digest = summary_digest(&build(vendor, shards, qualified));
                got.push((name, qualified, shards, digest));
            }
        }
    }
    for g in &got {
        println!("    {g:?},");
    }
    assert_eq!(got, SUMMARY_PINS);
}

#[test]
fn unfielded_term_stats_equal_the_pins() {
    let mut got = Vec::new();
    for (name, vendor) in VENDORS {
        for shards in [1, 3] {
            let (digest, tf, df) = term_stats_digest(&build(vendor, shards, true));
            got.push((name, shards, digest, tf, df));
        }
    }
    for g in &got {
        println!("    {g:?},");
    }
    assert_eq!(got, TERM_STATS_PINS);
}

#[test]
fn unfielded_answers_equal_the_pins() {
    let mut got = Vec::new();
    for (name, vendor) in VENDORS {
        for shards in [1, 3] {
            got.push((name, shards, answers_digest(&build(vendor, shards, true))));
        }
    }
    for g in &got {
        println!("    {g:?},");
    }
    assert_eq!(got, ANSWER_PINS);
}
