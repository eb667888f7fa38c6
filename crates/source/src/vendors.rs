//! A fleet of deliberately heterogeneous vendor personalities.
//!
//! The STARTS effort involved Fulcrum, Infoseek, PLS, Verity, WAIS,
//! Microsoft Network, Excite, and others — engines with different query
//! models, tokenizers, stop lists and secret rankers. These constructors
//! simulate that diversity: each returns a [`SourceConfig`] whose every
//! capability axis differs from the others, so that metasearch
//! experiments face the real interoperability problem of §3.
//!
//! | vendor       | ranking    | query parts | tokenizer | stems | stops          | case | fuzzy ops |
//! |--------------|------------|-------------|-----------|-------|----------------|------|-----------|
//! | `acme`       | Acme-1     | RF          | Acme-1    | no    | minimal (off ok)| fold | yes      |
//! | `bolt`       | Vendor-K   | RF          | Acme-2    | no    | aggressive (forced) | fold | no  |
//! | `okapi`      | Okapi-1    | RF          | Plain-1   | yes   | none           | fold | yes       |
//! | `glimpse`    | —          | F only      | Acme-1    | no    | none           | keep | —         |
//! | `rankonly`   | Plain-1    | R only      | Acme-1    | no    | minimal        | fold | no        |

use starts_index::{EngineConfig, PositionsMode, ShardPolicy};
use starts_proto::attrs::CmpOp;
use starts_proto::metadata::QueryParts;
use starts_proto::{Field, Modifier};
use starts_text::{AnalyzerConfig, CaseMode, StopWordList, Thesaurus, TokenizerKind};

use crate::config::SourceConfig;

fn all_optional_fields() -> Vec<Field> {
    vec![
        Field::Author,
        Field::BodyOfText,
        Field::Languages,
        Field::LinkageType,
        Field::CrossReferenceLinkage,
    ]
}

/// `Acme`: the well-behaved reference vendor. Cosine tf–idf in `[0,1]`,
/// standard tokenizer, minimal stop list that can be turned off, full
/// Basic-1 modifier support, fuzzy ranking operators.
pub fn acme(id: &str) -> SourceConfig {
    let mut c = SourceConfig::new(id);
    c.engine = EngineConfig {
        analyzer: AnalyzerConfig {
            tokenizer: TokenizerKind::AlnumRuns,
            case: CaseMode::Insensitive,
            stem: false,
            stop_words: StopWordList::english_minimal(),
            can_disable_stop_words: true,
        },
        ranking_id: "Acme-1".to_string(),
        fuzzy_ranking_ops: true,
        thesaurus: Thesaurus::empty(),
        shards: 0,
        positions: PositionsMode::All,
        shard_policy: ShardPolicy::Adaptive,
    };
    c.supported_fields = all_optional_fields();
    c.supported_modifiers = vec![
        Modifier::Cmp(CmpOp::Eq),
        Modifier::Stem,
        Modifier::Phonetic,
        Modifier::RightTruncation,
        Modifier::LeftTruncation,
    ];
    c
}

/// `Bolt`: the web-scale vendor whose "top document always has a score
/// of 1,000" (§3.2). Aggressive stop list it cannot disable, joiner
/// tokenizer ("Z39.50" is one token), ignores Boolean-like ranking
/// operators (flattens to `list`), supports almost no modifiers.
pub fn bolt(id: &str) -> SourceConfig {
    let mut c = SourceConfig::new(id);
    c.engine = EngineConfig {
        analyzer: AnalyzerConfig {
            tokenizer: TokenizerKind::WordJoiners,
            case: CaseMode::Insensitive,
            stem: false,
            stop_words: StopWordList::english_aggressive(),
            can_disable_stop_words: false,
        },
        ranking_id: "Vendor-K".to_string(),
        fuzzy_ranking_ops: false,
        thesaurus: Thesaurus::empty(),
        shards: 0,
        positions: PositionsMode::All,
        shard_policy: ShardPolicy::Adaptive,
    };
    c.supported_fields = vec![Field::Author, Field::BodyOfText];
    c.supported_modifiers = vec![Modifier::RightTruncation];
    c
}

/// `Okapi`: the research-grade vendor. BM25 (unbounded scores), stems
/// its whole index, whitespace tokenizer, no stop words, ships a CS
/// thesaurus, supports every Basic-1 modifier.
pub fn okapi(id: &str) -> SourceConfig {
    let mut c = SourceConfig::new(id);
    c.engine = EngineConfig {
        analyzer: AnalyzerConfig {
            tokenizer: TokenizerKind::Whitespace,
            case: CaseMode::Insensitive,
            stem: true,
            stop_words: StopWordList::none(),
            can_disable_stop_words: true,
        },
        ranking_id: "Okapi-1".to_string(),
        fuzzy_ranking_ops: true,
        thesaurus: Thesaurus::computer_science(),
        shards: 0,
        positions: PositionsMode::All,
        shard_policy: ShardPolicy::Adaptive,
    };
    c.supported_fields = all_optional_fields();
    // Okapi is the research engine: it also honours the two STARTS-new
    // fields — relevance feedback (Document-text) and native-query
    // pass-through (Free-form-text, in PQF).
    c.supported_fields.push(Field::DocumentText);
    c.supported_fields.push(Field::FreeFormText);
    c.supported_modifiers = vec![
        Modifier::Cmp(CmpOp::Eq),
        Modifier::Stem,
        Modifier::Phonetic,
        Modifier::Thesaurus,
        Modifier::RightTruncation,
        Modifier::LeftTruncation,
        Modifier::CaseSensitive,
    ];
    c
}

/// `Glimpse`: the paper's example of a pure Boolean engine ("Glimpse
/// only supports filter expressions"). Case-preserving index, supports
/// comparisons and truncation, no ranking at all.
pub fn glimpse(id: &str) -> SourceConfig {
    let mut c = SourceConfig::new(id);
    c.engine = EngineConfig {
        analyzer: AnalyzerConfig {
            tokenizer: TokenizerKind::AlnumRuns,
            case: CaseMode::Sensitive,
            stem: false,
            stop_words: StopWordList::none(),
            can_disable_stop_words: true,
        },
        // Never used (filter-only), but the engine requires one.
        ranking_id: "Plain-1".to_string(),
        fuzzy_ranking_ops: false,
        thesaurus: Thesaurus::empty(),
        shards: 0,
        positions: PositionsMode::All,
        shard_policy: ShardPolicy::Adaptive,
    };
    c.query_parts = QueryParts::Filter;
    c.supported_fields = all_optional_fields();
    c.supported_modifiers = vec![
        Modifier::Cmp(CmpOp::Eq),
        Modifier::CaseSensitive,
        Modifier::RightTruncation,
        Modifier::LeftTruncation,
    ];
    c
}

/// `RankOnly`: a consumer search site that accepts only flat ranked
/// queries and scores by raw term frequency (unbounded integers).
pub fn rankonly(id: &str) -> SourceConfig {
    let mut c = SourceConfig::new(id);
    c.engine = EngineConfig {
        analyzer: AnalyzerConfig {
            tokenizer: TokenizerKind::AlnumRuns,
            case: CaseMode::Insensitive,
            stem: false,
            stop_words: StopWordList::english_minimal(),
            can_disable_stop_words: true,
        },
        ranking_id: "Plain-1".to_string(),
        fuzzy_ranking_ops: false,
        thesaurus: Thesaurus::empty(),
        shards: 0,
        // Ranking-only and flattens operators to `list`: no `prox` ever
        // consults positions, so the positional store is dropped and
        // search runs entirely off the block postings.
        positions: PositionsMode::None,
        shard_policy: ShardPolicy::Adaptive,
    };
    c.query_parts = QueryParts::Ranking;
    c.supported_fields = vec![Field::BodyOfText];
    c.supported_modifiers = vec![];
    c
}

/// The whole fleet, ids `Acme-Src`, `Bolt-Src`, `Okapi-Src`,
/// `Glimpse-Src`, `RankOnly-Src`.
pub fn fleet() -> Vec<SourceConfig> {
    vec![
        acme("Acme-Src"),
        bolt("Bolt-Src"),
        okapi("Okapi-Src"),
        glimpse("Glimpse-Src"),
        rankonly("RankOnly-Src"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;
    use starts_index::Document;
    use starts_proto::query::{parse_filter, parse_ranking};
    use starts_proto::Query;

    fn docs() -> Vec<Document> {
        vec![
            Document::new()
                .field("title", "Distributed Databases")
                .field("author", "Ullman")
                .field("body-of-text", "distributed databases and Z39.50 systems")
                .field("linkage", "http://x/1"),
            Document::new()
                .field("title", "The Who Anthology")
                .field("author", "Townshend")
                .field("body-of-text", "the who rock band history")
                .field("linkage", "http://x/2"),
        ]
    }

    #[test]
    fn fleet_is_heterogeneous() {
        let fleet = fleet();
        assert_eq!(fleet.len(), 5);
        let sources: Vec<Source> = fleet
            .into_iter()
            .map(|c| Source::build(c, &docs()))
            .collect();
        // All distinct ranking ids among ranking-capable sources.
        let mut ids: Vec<&str> = sources
            .iter()
            .filter(|s| s.metadata().query_parts_supported.supports_ranking())
            .map(|s| s.metadata().ranking_algorithm_id.as_str())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() >= 3, "rankers not diverse: {ids:?}");
        // Score ranges genuinely differ (the §3.2 problem).
        let ranges: Vec<(f64, f64)> = sources.iter().map(|s| s.metadata().score_range).collect();
        assert!(ranges.contains(&(0.0, 1.0)));
        assert!(ranges.contains(&(0.0, 1000.0)));
        assert!(ranges.iter().any(|(_, max)| max.is_infinite()));
    }

    #[test]
    fn glimpse_ignores_ranking() {
        let s = Source::build(glimpse("G"), &docs());
        let q = Query {
            filter: Some(parse_filter(r#"(author "Ullman")"#).unwrap()),
            ranking: Some(parse_ranking(r#"list("databases")"#).unwrap()),
            ..Query::default()
        };
        let r = s.execute(&q);
        assert!(r.actual_ranking.is_none(), "Glimpse must drop ranking");
        assert!(r.actual_filter.is_some());
        assert_eq!(r.documents.len(), 1);
        assert_eq!(r.documents[0].raw_score, None);
    }

    #[test]
    fn bolt_cannot_keep_stop_words() {
        let s = Source::build(bolt("B"), &docs());
        let q = Query {
            ranking: Some(parse_ranking(r#"list("the" "who")"#).unwrap()),
            drop_stop_words: false, // client asks to keep them
            ..Query::default()
        };
        let r = s.execute(&q);
        // Bolt's aggressive list can't be disabled: both words vanish,
        // and the actual query says so.
        assert!(r.actual_ranking.is_none());
        assert!(r.documents.is_empty());
    }

    #[test]
    fn acme_can_keep_stop_words() {
        let s = Source::build(acme("A"), &docs());
        let q = Query {
            ranking: Some(parse_ranking(r#"list("the" "who")"#).unwrap()),
            drop_stop_words: false,
            ..Query::default()
        };
        let r = s.execute(&q);
        // Acme honours TurnOffStopWords: the query keeps both terms and
        // the actual query reports them…
        let kept = r.actual_ranking.as_ref().unwrap().terms();
        assert_eq!(kept.len(), 2);
        // …but both words were stop words at INDEX time too, so no
        // document can match. Exactly the §3.1 "The Who" trap: knowing
        // the source's stop-word behaviour is what saves the
        // metasearcher from misreading this empty result.
        assert!(r.documents.is_empty());
    }

    #[test]
    fn tokenizer_disagreement_on_z3950() {
        // The §4.3.1 example: is "Z39.50" one token?
        let acme_src = Source::build(acme("A"), &docs());
        let bolt_src = Source::build(bolt("B"), &docs());
        let q = Query {
            ranking: Some(parse_ranking(r#"list((body-of-text "Z39.50"))"#).unwrap()),
            ..Query::default()
        };
        // Bolt (WordJoiners) keeps "Z39.50" whole and finds it.
        let r = bolt_src.execute(&q);
        assert_eq!(r.documents.len(), 1);
        // Acme (AlnumRuns) split it at index time into "z39"/"50"; the
        // query term "Z39.50" normalizes to "z39.50" and misses.
        let r = acme_src.execute(&q);
        assert!(r.documents.is_empty());
    }

    #[test]
    fn okapi_stems_transparently() {
        let s = Source::build(okapi("O"), &docs());
        let q = Query {
            ranking: Some(parse_ranking(r#"list((body-of-text "database"))"#).unwrap()),
            ..Query::default()
        };
        let r = s.execute(&q);
        assert_eq!(r.documents.len(), 1, "stemming engine matches plural");
    }

    #[test]
    fn rankonly_drops_filters() {
        let s = Source::build(rankonly("R"), &docs());
        let q = Query {
            filter: Some(parse_filter(r#"(author "Ullman")"#).unwrap()),
            ranking: Some(parse_ranking(r#"list("databases")"#).unwrap()),
            ..Query::default()
        };
        let r = s.execute(&q);
        assert!(r.actual_filter.is_none());
        assert!(r.actual_ranking.is_some());
        // Plain-1 scores are raw term frequencies: "databases" appears
        // twice in doc 1 (title + body, the unfielded term searches Any).
        assert_eq!(r.documents[0].raw_score, Some(2.0));
    }
}
