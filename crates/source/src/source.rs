//! The [`Source`] type: one STARTS-conformant document source.

use starts_index::{Document, ShardedEngine};
use starts_proto::metadata::SourceMetadata;
use starts_proto::summary::ContentSummary;
use starts_proto::{Query, QueryResults};

use crate::config::SourceConfig;
use crate::execute::SourceInstruments;

/// A queryable STARTS source: an engine plus its declared capabilities.
///
/// ```
/// use starts_index::Document;
/// use starts_proto::{query::parse_ranking, Query};
/// use starts_source::{Source, SourceConfig};
///
/// let docs = vec![Document::new()
///     .field("title", "Distributed Databases")
///     .field("body-of-text", "replication of databases across sites")
///     .field("linkage", "http://example.org/1")];
/// let source = Source::build(SourceConfig::new("Demo"), &docs);
///
/// // The source exports metadata (§4.3.1)…
/// assert_eq!(source.metadata().ranking_algorithm_id, "Acme-1");
/// // …a content summary (§4.3.2)…
/// assert_eq!(source.content_summary().df(Some("body-of-text"), "databases"), 1);
/// // …and executes STARTS queries, reporting the actual query (§4.2).
/// let query = Query {
///     ranking: Some(parse_ranking(r#"list((body-of-text "databases"))"#).unwrap()),
///     ..Query::default()
/// };
/// let results = source.execute(&query);
/// assert_eq!(results.documents.len(), 1);
/// assert!(results.actual_ranking.is_some());
/// ```
pub struct Source {
    config: SourceConfig,
    engine: ShardedEngine,
    /// Metadata is immutable once built; assemble it eagerly.
    metadata: SourceMetadata,
}

impl std::fmt::Debug for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Source")
            .field("id", &self.config.id)
            .field("n_docs", &self.engine.n_docs())
            .finish()
    }
}

impl Source {
    /// Index `docs` under the configured engine personality. The index
    /// is built in parallel across `config.engine.shards` shards
    /// (default: available parallelism); results are bit-identical at
    /// any shard count.
    pub fn build(config: SourceConfig, docs: &[Document]) -> Self {
        let engine = ShardedEngine::build(docs, config.engine.clone());
        let metadata = assemble_metadata(&config, &engine);
        Source {
            config,
            engine,
            metadata,
        }
    }

    /// The source id.
    pub fn id(&self) -> &str {
        &self.config.id
    }

    /// The configuration.
    pub fn config(&self) -> &SourceConfig {
        &self.config
    }

    /// The engine (test and experiment access; a protocol client never
    /// touches this).
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Number of documents.
    pub fn num_docs(&self) -> u32 {
        self.engine.n_docs()
    }

    /// The exported `@SMetaAttributes` metadata (§4.3.1).
    pub fn metadata(&self) -> &SourceMetadata {
        &self.metadata
    }

    /// The exported `@SContentSummary` (§4.3.2).
    pub fn content_summary(&self) -> ContentSummary {
        crate::summary_gen::generate(self)
    }

    /// Execute a query, returning results with the *actual query*
    /// executed (§4.2).
    pub fn execute(&self, query: &Query) -> QueryResults {
        crate::execute::execute(self, query)
    }

    /// [`Source::execute`] with observability: phase timings and
    /// rewrite-downgrade counters go into `obs` when given.
    pub fn execute_traced(
        &self,
        query: &Query,
        obs: Option<&starts_obs::Registry>,
    ) -> QueryResults {
        crate::execute::execute_traced(self, query, obs)
    }

    /// Resolve this source's per-query instruments in `obs` once, for
    /// [`Source::execute_instrumented`].
    pub fn instruments(&self, obs: &starts_obs::Registry) -> SourceInstruments {
        SourceInstruments::resolve(self, obs)
    }

    /// [`Source::execute_traced`] through instruments resolved ahead of
    /// time, so the query path builds no metric ids. A host serving one
    /// source resolves them at wiring time and again whenever
    /// [`SourceInstruments::is_current`] turns false.
    pub fn execute_instrumented(
        &self,
        query: &Query,
        obs: &starts_obs::Registry,
        instruments: &SourceInstruments,
    ) -> QueryResults {
        crate::execute::execute_instrumented(self, query, obs, instruments)
    }

    /// The source's `SampleDatabaseResults`: results of the standard
    /// sample queries over the standard sample collection, as *this
    /// source's engine personality* would produce them (§4.2).
    pub fn sample_results(&self) -> Vec<(Query, QueryResults)> {
        crate::sample::sample_results(&self.config)
    }
}

/// The source's whole-index facts, exported when a registry it was
/// registered with is sampled: resident bytes of the bit-packed block
/// postings every evaluator runs on, of the positional frames kept only
/// where `prox` needs them (zero for positions-free vendors), and of
/// the stored field values results are assembled from.
impl starts_obs::Collector for Source {
    fn collect(&self, obs: &starts_obs::Registry) {
        let footprint = self.engine.postings_footprint();
        let labels = [("source", self.id())];
        obs.gauge_with("engine.postings.positional_bytes", &labels)
            .set(footprint.positional_bytes as f64);
        obs.gauge_with("engine.stored.bytes", &labels)
            .set(footprint.stored_bytes as f64);
        obs.gauge_with("engine.postings.block_bytes", &labels)
            .set(footprint.block_bytes as f64);
    }
}

fn assemble_metadata(config: &SourceConfig, engine: &ShardedEngine) -> SourceMetadata {
    let analyzer_cfg = engine.analyzer().config();
    let fields_supported = config
        .supported_fields
        .iter()
        .map(|f| {
            let langs = engine
                .schema()
                .get(f.name())
                .map(|fid| engine.field_languages(fid))
                .unwrap_or_default();
            (f.clone(), langs)
        })
        .collect();
    let range = engine.ranking().score_range();
    SourceMetadata {
        source_id: config.id.clone(),
        fields_supported,
        modifiers_supported: config
            .supported_modifiers
            .iter()
            .map(|m| (m.clone(), Vec::new()))
            .collect(),
        field_modifier_combinations: config.field_modifier_combinations.clone(),
        query_parts_supported: config.query_parts,
        score_range: (range.min, range.max),
        ranking_algorithm_id: engine.ranking().id().to_string(),
        tokenizer_id_list: config
            .languages
            .iter()
            .map(|lang| (analyzer_cfg.tokenizer.id().to_string(), lang.clone()))
            .collect(),
        sample_database_results: config.sample_url(),
        stop_word_list: analyzer_cfg.stop_words.export(),
        turn_off_stop_words: analyzer_cfg.can_disable_stop_words,
        source_languages: config.languages.clone(),
        source_name: config.name.clone(),
        linkage: config.query_url(),
        content_summary_linkage: config.summary_url(),
        date_changed: None,
        date_expires: None,
        abstract_text: None,
        access_constraints: None,
        contact: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_proto::conformance::is_conformant;

    fn docs() -> Vec<Document> {
        vec![
            Document::new()
                .field("title", "Distributed Database Systems")
                .field("author", "Jeffrey Ullman")
                .field("body-of-text", "distributed databases and query processing")
                .field("linkage", "http://example.org/1"),
            Document::new()
                .field("title", "Operating Systems")
                .field("author", "Andrew Tanenbaum")
                .field("body-of-text", "processes scheduling and memory paging")
                .field("linkage", "http://example.org/2"),
        ]
    }

    #[test]
    fn metadata_reflects_engine_truthfully() {
        let s = Source::build(SourceConfig::new("Source-1"), &docs());
        let m = s.metadata();
        assert_eq!(m.source_id, "Source-1");
        assert_eq!(m.ranking_algorithm_id, "Acme-1");
        assert_eq!(m.score_range, (0.0, 1.0));
        assert_eq!(m.tokenizer_id_list[0].0, "Acme-1");
        assert!(m.turn_off_stop_words);
        // The exported stop list is the engine's actual list.
        assert!(m.stop_word_list.contains(&"the".to_string()));
        assert_eq!(m.linkage, "starts://source-1/query");
    }

    #[test]
    fn default_source_is_protocol_conformant() {
        let s = Source::build(SourceConfig::new("Source-1"), &docs());
        assert!(is_conformant(s.metadata()));
    }

    #[test]
    fn empty_source_builds() {
        let s = Source::build(SourceConfig::new("Empty"), &[]);
        assert_eq!(s.num_docs(), 0);
        assert!(is_conformant(s.metadata()));
    }
}
