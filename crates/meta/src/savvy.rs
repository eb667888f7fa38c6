//! A SavvySearch-style learned selector (§5).
//!
//! "SavvySearch ranks its accessible sources for a given query based on
//! information from past searches and estimated network traffic." This
//! selector keeps a per-(source, term) success memory: every completed
//! search records how many results each source returned for each query
//! term; future queries score sources by their historical yield for the
//! query's terms, discounted by the link's latency (the "estimated
//! network traffic" half).
//!
//! Unlike GlOSS it needs no content summaries — but it needs traffic to
//! learn, and it is blind for unseen terms (it falls back to a neutral
//! prior). The X6-style comparison shows both properties.

use std::collections::HashMap;

use parking_lot::RwLock;

use crate::catalog::{Catalog, CatalogEntry};
use crate::select::Selector;

/// Accumulated experience for one (source, term) pair.
#[derive(Debug, Clone, Copy, Default)]
struct TermHistory {
    /// Number of searches that sent this term to the source.
    searches: u32,
    /// Total results the source returned across those searches.
    results: u64,
}

/// The learned selector. Its ranking moves with every search it
/// observes, so it keeps [`Selector::ranks_from_catalog`]'s `false`.
#[derive(Debug, Default)]
pub struct PastPerformance {
    /// (source id, term) → history.
    history: RwLock<HashMap<(String, String), TermHistory>>,
    /// Weight of the latency discount (per second of link latency).
    pub latency_weight: f64,
}

impl PastPerformance {
    /// A fresh, memoryless selector.
    pub fn new() -> Self {
        PastPerformance {
            history: RwLock::new(HashMap::new()),
            latency_weight: 0.5,
        }
    }

    /// Record the outcome of one search: `source` returned
    /// `result_count` documents for a query containing `terms`.
    pub fn record(&self, source_id: &str, terms: &[String], result_count: usize) {
        let mut history = self.history.write();
        for term in terms {
            let entry = history
                .entry((source_id.to_string(), term.clone()))
                .or_default();
            entry.searches += 1;
            entry.results += result_count as u64;
        }
    }

    /// Number of (source, term) pairs with history.
    pub fn memory_size(&self) -> usize {
        self.history.read().len()
    }

    /// Learn from a completed metasearch: record, for every source that
    /// answered, how many documents it contributed. Call after each
    /// [`crate::metasearcher::Metasearcher::search`] to close the loop.
    pub fn observe_response(&self, terms: &[String], response: &crate::MetaResponse) {
        for sr in &response.per_source {
            self.record(&sr.metadata.source_id, terms, sr.results.documents.len());
        }
    }

    /// Mean historical yield of `source_id` for `term` (None if unseen).
    fn yield_for(&self, source_id: &str, term: &str) -> Option<f64> {
        let history = self.history.read();
        let h = history.get(&(source_id.to_string(), term.to_string()))?;
        if h.searches == 0 {
            None
        } else {
            Some(h.results as f64 / f64::from(h.searches))
        }
    }
}

/// Neutral prior for unseen (source, term) pairs: mildly optimistic so
/// new sources still get explored.
const UNSEEN_PRIOR: f64 = 0.5;

impl Selector for PastPerformance {
    fn name(&self) -> &'static str {
        "past-performance"
    }

    fn score_source(
        &self,
        entry: &CatalogEntry,
        _catalog: &Catalog,
        terms: &[(Option<&str>, &str)],
    ) -> f64 {
        if terms.is_empty() {
            return 0.0;
        }
        let mean_yield: f64 = terms
            .iter()
            .map(|(_, term)| self.yield_for(&entry.id, term).unwrap_or(UNSEEN_PRIOR))
            .sum::<f64>()
            / terms.len() as f64;
        // "Estimated network traffic": discount slow links.
        let latency_s = f64::from(entry.link.latency_ms) / 1000.0;
        mean_yield / (1.0 + self.latency_weight * latency_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_net::LinkProfile;
    use starts_proto::summary::{ContentSummary, IndexedSummary};
    use starts_proto::SourceMetadata;

    fn entry(id: &str, latency_ms: u32) -> CatalogEntry {
        CatalogEntry {
            id: id.to_string(),
            metadata_url: String::new(),
            metadata: SourceMetadata {
                source_id: id.to_string(),
                ..SourceMetadata::default()
            }
            .into(),
            summary: IndexedSummary::new(ContentSummary {
                num_docs: 100,
                ..ContentSummary::default()
            })
            .into(),
            sample_results: Vec::new(),
            link: LinkProfile {
                latency_ms,
                cost_per_query: 0.0,
            },
        }
    }

    fn catalog() -> Catalog {
        Catalog {
            entries: vec![entry("A", 50), entry("B", 50), entry("Slow", 2000)],
        }
    }

    #[test]
    fn learns_from_recorded_searches() {
        let s = PastPerformance::new();
        let c = catalog();
        let terms = [(None, "databases")];
        // Initially neutral: ties broken by index, latency discounts Slow.
        let before = s.rank(&c, &terms);
        assert_eq!(before[0].0, 0);
        assert!(before[2].0 == 2, "slow source last on the prior");
        // A keeps striking out; B delivers.
        for _ in 0..5 {
            s.record("A", &["databases".to_string()], 0);
            s.record("B", &["databases".to_string()], 12);
        }
        // Same catalog, same terms, a different ranking: the selector
        // must not claim to rank from the catalog alone.
        let after = s.rank(&c, &terms);
        assert_eq!(after[0].0, 1, "B must rank first after learning");
        assert!(!s.ranks_from_catalog());
        assert!(after[0].1 > after[1].1);
        assert_eq!(s.memory_size(), 2);
    }

    #[test]
    fn unseen_terms_fall_back_to_prior() {
        let s = PastPerformance::new();
        s.record("A", &["databases".to_string()], 100);
        let c = catalog();
        // A query about something never seen: history is useless, all
        // equal-latency sources tie at the prior.
        let ranked = s.rank(&c, &[(None, "astronomy")]);
        assert!((ranked[0].1 - ranked[1].1).abs() < 1e-12);
    }

    #[test]
    fn latency_discount_applies() {
        let s = PastPerformance::new();
        // Identical perfect history for fast B and Slow.
        for _ in 0..3 {
            s.record("B", &["x".to_string()], 10);
            s.record("Slow", &["x".to_string()], 10);
        }
        let c = catalog();
        let ranked = s.rank(&c, &[(None, "x")]);
        let pos_b = ranked.iter().position(|(i, _)| *i == 1).unwrap();
        let pos_slow = ranked.iter().position(|(i, _)| *i == 2).unwrap();
        assert!(
            pos_b < pos_slow,
            "network traffic estimate must discount Slow"
        );
    }

    #[test]
    fn observe_response_learns_from_live_searches() {
        use starts_index::Document;
        use starts_net::host::wire_source;
        use starts_net::{SimNet, StartsClient};
        use starts_proto::query::parse_ranking;
        use starts_proto::Query;
        use starts_source::{Source, SourceConfig};

        let net = SimNet::new();
        for (id, body) in [("Rich", "topic topic topic words"), ("Poor", "other words")] {
            let docs = vec![Document::new()
                .field("body-of-text", body)
                .field("linkage", format!("http://{id}/1"))];
            wire_source(
                &net,
                Source::build(SourceConfig::new(id), &docs),
                LinkProfile::default(),
            );
        }
        let client = StartsClient::new(&net);
        let mut catalog = Catalog::default();
        for id in ["rich", "poor"] {
            catalog
                .discover_source(
                    &client,
                    &format!("starts://{id}/metadata"),
                    LinkProfile::default(),
                    false,
                )
                .unwrap();
        }
        let savvy = PastPerformance::new();
        let meta = crate::Metasearcher::new(
            &net,
            catalog,
            crate::MetaConfig {
                max_sources: 2,
                ..crate::MetaConfig::default()
            },
        );
        let q = Query {
            ranking: Some(parse_ranking(r#"list((body-of-text "topic"))"#).unwrap()),
            ..Query::default()
        };
        let resp = meta.search(&q);
        savvy.observe_response(&["topic".to_string()], &resp);
        // Rich answered, Poor did not: the learned scores reflect it.
        let rich = savvy.score_source(&meta.catalog.entries[0], &meta.catalog, &[(None, "topic")]);
        let poor = savvy.score_source(&meta.catalog.entries[1], &meta.catalog, &[(None, "topic")]);
        assert!(rich > poor, "rich {rich} vs poor {poor}");
    }

    #[test]
    fn multi_term_scores_average() {
        let s = PastPerformance::new();
        s.record("A", &["good".to_string()], 10);
        s.record("A", &["bad".to_string()], 0);
        let c = catalog();
        let single_good = s.score_source(&c.entries[0], &c, &[(None, "good")]);
        let mixed = s.score_source(&c.entries[0], &c, &[(None, "good"), (None, "bad")]);
        assert!(single_good > mixed);
        assert!(mixed > 0.0);
    }
}
