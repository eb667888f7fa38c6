//! The end-to-end metasearcher: select → adapt → dispatch (parallel) →
//! merge, with latency and cost accounting.
//!
//! This is the component the paper's §1 describes and §3.4 specifies:
//! it gives "users the illusion of a single combined document source"
//! over heterogeneous STARTS sources.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use starts_net::{Exchange, SimNet, StartsClient};
use starts_obs::{FlightRecorder, HealthBoard};
use starts_proto::{Field, QTerm, Query, QueryProfile, StageCost};

use crate::catalog::Catalog;
use crate::merge::{MergedDoc, Merger, SourceResult};
use crate::pipeline;
use crate::select::Selector;
use crate::wave;

/// How queries are adjusted before dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptMode {
    /// Send the query verbatim; sources rewrite per the protocol.
    Verbatim,
    /// Adapt per source capability (fold query parts, expand stems).
    #[default]
    PerSource,
    /// Strip to the least common denominator of all selected sources —
    /// the baseline §5 attributes to early metasearchers.
    Lcd,
}

/// Metasearcher configuration.
pub struct MetaConfig {
    /// Source-selection strategy.
    pub selector: Box<dyn Selector>,
    /// Rank-merging strategy.
    pub merger: Box<dyn Merger>,
    /// How many sources to contact per query.
    pub max_sources: usize,
    /// Query adjustment mode.
    pub adapt: AdaptMode,
    /// Final result-list cap.
    pub max_results: usize,
    /// Rolling per-source health, updated on every exchange. Shared
    /// (`Arc`) so a `HealthAware` selector can consult the same board
    /// the dispatcher feeds.
    pub health: Arc<HealthBoard>,
    /// Latency budget per exchange: a source whose simulated round-trip
    /// reaches this counts as timed out on the health board.
    pub timeout_ms: u64,
    /// The always-on flight recorder: every search's [`QueryProfile`]
    /// lands here, and slow queries (rolling p99 or absolute budget) are
    /// captured for the slow-log. Shared (`Arc`) so callers can drain it
    /// while the metasearcher keeps recording.
    pub recorder: Arc<FlightRecorder>,
    /// Absolute slow-query budget in microseconds: a search whose total
    /// duration exceeds this is captured in the recorder's slow-log
    /// regardless of the rolling p99. `None` (the default) keeps the
    /// recorder's own default (p99-relative only). Applied to
    /// [`MetaConfig::recorder`] when the metasearcher is built.
    pub slow_budget_us: Option<u64>,
}

impl Default for MetaConfig {
    fn default() -> Self {
        MetaConfig {
            selector: Box::new(crate::select::GGlossSum),
            merger: Box::new(crate::merge::NormalizedMerge),
            max_sources: 3,
            adapt: AdaptMode::PerSource,
            max_results: 20,
            health: Arc::new(HealthBoard::default()),
            timeout_ms: 30_000,
            recorder: Arc::new(FlightRecorder::default()),
            slow_budget_us: None,
        }
    }
}

impl MetaConfig {
    /// What every owner of a config does once at construction: apply
    /// the slow budget to the recorder, and register the health board
    /// and the recorder as snapshot-time collectors on `obs` — their
    /// `health.*` / `recorder.*` gauges are refreshed whenever the
    /// registry is sampled (`Monitor::tick`, `/stats`, any exporter),
    /// not on the query path. Registration is weak and idempotent: a
    /// `Metasearcher` and a serving layer sharing one board export it
    /// once, and a board dropped with its owner stops being collected.
    pub fn install(&self, obs: &starts_obs::Registry) {
        if let Some(budget) = self.slow_budget_us {
            self.recorder.set_budget_us(budget);
        }
        obs.register_collector(&self.health);
        obs.register_collector(&self.recorder);
    }
}

// Box<dyn Selector> / Box<dyn Merger> block `#[derive(Debug)]`; print
// the strategies by their registered names instead.
impl fmt::Debug for MetaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetaConfig")
            .field("selector", &self.selector.name())
            .field("merger", &self.merger.name())
            .field("max_sources", &self.max_sources)
            .field("adapt", &self.adapt)
            .field("max_results", &self.max_results)
            .field("timeout_ms", &self.timeout_ms)
            .field("slow_budget_us", &self.slow_budget_us)
            .finish_non_exhaustive()
    }
}

/// Aggregate accounting for one metasearch, from the actual exchanges
/// (unlike `wave_latency_ms`/`total_cost`, which are quoted from the
/// catalog's link profiles, these reflect what really happened —
/// failed dispatches charge nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Query requests that completed.
    pub requests: u64,
    /// Sum of per-source simulated latencies (the serialized view).
    pub total_latency_ms: u64,
    /// Max per-source simulated latency (the parallel wall-clock view).
    pub max_latency_ms: u32,
    /// Total monetary cost charged.
    pub total_cost: f64,
    /// Request bytes sent to sources.
    pub bytes_sent: u64,
    /// Response bytes received from sources.
    pub bytes_received: u64,
}

impl QueryStats {
    /// Fold one exchange's accounting into the totals.
    pub fn absorb(&mut self, e: &Exchange) {
        self.requests += 1;
        self.total_latency_ms += u64::from(e.latency_ms);
        self.max_latency_ms = self.max_latency_ms.max(e.latency_ms);
        self.total_cost += e.cost;
        self.bytes_sent += e.bytes_sent;
        self.bytes_received += e.bytes_received;
    }
}

/// The outcome of one metasearch.
#[derive(Debug)]
pub struct MetaResponse {
    /// The merged rank.
    pub merged: Vec<MergedDoc>,
    /// Ids of the sources contacted, in selection order.
    pub selected: Vec<String>,
    /// Raw per-source results (for analysis).
    pub per_source: Vec<SourceResult>,
    /// Simulated wall-clock latency of the parallel fan-out: the *max*
    /// per-source latency (queries run concurrently).
    pub wave_latency_ms: u32,
    /// Total monetary cost of the wave.
    pub total_cost: f64,
    /// Aggregate accounting from the exchanges that actually happened.
    pub stats: QueryStats,
    /// The id minted for this search: `profile.query_id`, and the id
    /// every source saw in the query's `XTraceContext`.
    pub query_id: String,
    /// The hierarchical cost breakdown of this search: client-side
    /// select/adapt/dispatch/merge stages, one `source` stage per
    /// completed exchange, and each host's `XQueryProfile` breakdown
    /// grafted under its dispatching stage. Also recorded on
    /// [`MetaConfig::recorder`].
    pub profile: QueryProfile,
}

/// The metasearcher.
pub struct Metasearcher<'n> {
    net: &'n SimNet,
    /// The discovered catalog.
    pub catalog: Catalog,
    /// Strategy configuration.
    pub config: MetaConfig,
}

impl<'n> Metasearcher<'n> {
    /// Build over a network and a discovered catalog.
    pub fn new(net: &'n SimNet, catalog: Catalog, config: MetaConfig) -> Self {
        config.install(net.registry());
        Metasearcher {
            net,
            catalog,
            config,
        }
    }

    /// Extract `(field, word)` pairs for source selection from a query.
    pub fn selection_terms(query: &Query) -> Vec<(Option<String>, String)> {
        query.all_terms().into_iter().map(term_key).collect()
    }

    /// Run the full pipeline for one query.
    ///
    /// Plans on the calling thread, then leads one [`wave`]. On an
    /// unpaced net ([`wave::runs_on_leader`]) the attempts run one after
    /// the other on the calling thread; on a paced one each runs on a
    /// scoped thread of its own, joined before this returns. A panicking
    /// exchange does **not** poison the query — it is a failed source
    /// (health board, `meta.dispatch.failures`, `meta.dispatch.panics`)
    /// and the merge proceeds with the sources that answered.
    /// `starts-serve` leads the same wave by the same rule, with a shared
    /// pool in place of the scoped threads.
    pub fn search(&self, query: &Query) -> MetaResponse {
        let obs = self.net.registry();
        let query_id = starts_obs::next_query_id();
        // Spans record on drop; the wire-visible QueryProfile keeps its
        // own explicit clock, all offsets relative to `t0`.
        let t0 = Instant::now();
        let _root = obs.span("meta.search");
        obs.counter("meta.searches").inc();

        let plan = Arc::new(pipeline::plan(&self.catalog, &self.config, query, obs, t0));
        let (client, config) = (StartsClient::new(self.net), &self.config);
        let here = wave::runs_on_leader(self.net, None);
        let wave = std::thread::scope(|scope| {
            let mut submit = |attempts: Vec<wave::Attempt>| {
                for attempt in attempts {
                    if here {
                        attempt.run(&client, &config.health);
                    } else {
                        scope.spawn(|| attempt.run(&client, &config.health));
                    }
                }
            };
            wave::lead(&plan, config, obs, &query_id, t0, None, None, &mut submit)
        });
        let mut root = StageCost::new("meta.search", 0, pipeline::elapsed_us(t0))
            .with_meta("results", wave.merged.len());
        root.children = vec![
            plan.select_stage.clone(),
            plan.adapt_stage.clone(),
            wave.dispatch_stage,
            wave.merge_stage,
        ];
        let profile = QueryProfile {
            query_id: query_id.clone(),
            root,
        };
        // The recorder keeps it if it was slow; the monitor samples the
        // registry when a step is due (else a tick is a clock read).
        self.config.recorder.record(&profile);
        self.net.monitor().tick(obs);

        MetaResponse {
            merged: wave.merged,
            selected: plan.selected.clone(),
            per_source: wave.per_source,
            wave_latency_ms: plan.wave_latency_ms,
            total_cost: plan.total_cost,
            stats: wave.stats,
            query_id,
            profile,
        }
    }
}

fn term_key(t: &QTerm) -> (Option<String>, String) {
    let field = match t.effective_field() {
        Field::Any => None,
        f => Some(f.name().to_string()),
    };
    (field, t.value.text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_index::Document;
    use starts_net::host::wire_source;
    use starts_net::LinkProfile;
    use starts_proto::query::parse_ranking;
    use starts_source::{vendors, Source, SourceConfig};

    /// Three topical sources: databases, cooking, astronomy.
    fn wire_topical_net(net: &SimNet) {
        let mk_docs = |words: &[&str], n: usize, tag: &str| -> Vec<Document> {
            (0..n)
                .map(|i| {
                    let body = format!(
                        "{} {} {} filler{} text",
                        words[i % words.len()],
                        words[(i + 1) % words.len()],
                        words[0],
                        i
                    );
                    Document::new()
                        .field("title", format!("{tag} doc {i}"))
                        .field("body-of-text", body)
                        .field("linkage", format!("http://{tag}/{i}"))
                })
                .collect()
        };
        let db = Source::build(
            SourceConfig::new("DB"),
            &mk_docs(&["databases", "queries", "transactions"], 12, "db"),
        );
        let food = Source::build(
            SourceConfig::new("Food"),
            &mk_docs(&["cooking", "recipes", "baking"], 12, "food"),
        );
        let stars = Source::build(
            SourceConfig::new("Stars"),
            &mk_docs(&["galaxies", "telescopes", "orbits"], 12, "stars"),
        );
        for s in [db, food, stars] {
            wire_source(net, s, LinkProfile::default());
        }
    }

    fn catalog_for(net: &SimNet, ids: &[&str]) -> Catalog {
        let client = StartsClient::new(net);
        let mut catalog = Catalog::default();
        for id in ids {
            catalog
                .discover_source(
                    &client,
                    &format!("starts://{}/metadata", id.to_lowercase()),
                    LinkProfile::default(),
                    false,
                )
                .unwrap();
        }
        catalog
    }

    fn ranked_query(terms: &str) -> Query {
        Query {
            ranking: Some(parse_ranking(terms).unwrap()),
            ..Query::default()
        }
    }

    #[test]
    fn end_to_end_selects_the_right_source() {
        let net = SimNet::new();
        wire_topical_net(&net);
        let catalog = catalog_for(&net, &["DB", "Food", "Stars"]);
        let meta = Metasearcher::new(
            &net,
            catalog,
            MetaConfig {
                max_sources: 1,
                ..MetaConfig::default()
            },
        );
        let resp = meta.search(&ranked_query(r#"list((body-of-text "databases"))"#));
        assert_eq!(resp.selected, vec!["DB".to_string()]);
        assert!(!resp.merged.is_empty());
        assert!(resp.merged[0].linkage.starts_with("http://db/"));

        let resp = meta.search(&ranked_query(r#"list((body-of-text "recipes"))"#));
        assert_eq!(resp.selected, vec!["Food".to_string()]);
    }

    #[test]
    fn fan_out_merges_multiple_sources() {
        let net = SimNet::new();
        wire_topical_net(&net);
        let catalog = catalog_for(&net, &["DB", "Food", "Stars"]);
        let meta = Metasearcher::new(
            &net,
            catalog,
            MetaConfig {
                max_sources: 3,
                ..MetaConfig::default()
            },
        );
        // "text" appears everywhere: all three sources contribute.
        let resp = meta.search(&ranked_query(r#"list((body-of-text "text"))"#));
        assert_eq!(resp.per_source.len(), 3);
        let origins: std::collections::HashSet<&str> = resp
            .merged
            .iter()
            .flat_map(|d| d.sources.iter().map(String::as_str))
            .collect();
        assert_eq!(origins.len(), 3);
        assert!(resp.merged.len() <= 20);
    }

    #[test]
    fn meta_config_debug_names_the_strategies() {
        let printed = format!("{:?}", MetaConfig::default());
        assert!(printed.contains("gGlOSS-Sum"), "{printed}");
        assert!(printed.contains("range-normalized"), "{printed}");
        assert!(printed.contains("max_sources: 3"), "{printed}");
        let printed = format!(
            "{:?}",
            MetaConfig {
                selector: Box::new(crate::select::CostAware {
                    inner: crate::select::BySize,
                    lambda: 1.0,
                    mu: 1.0,
                }),
                merger: Box::new(crate::merge::RoundRobinMerge),
                ..MetaConfig::default()
            }
        );
        assert!(printed.contains("cost-aware"), "{printed}");
        assert!(printed.contains("round-robin"), "{printed}");
    }

    #[test]
    fn query_stats_reflect_actual_exchanges() {
        let net = SimNet::new();
        wire_topical_net(&net);
        let mut catalog = catalog_for(&net, &["DB", "Food"]);
        catalog.entries[0].link = LinkProfile {
            latency_ms: 100,
            cost_per_query: 1.0,
        };
        catalog.entries[1].link = LinkProfile {
            latency_ms: 700,
            cost_per_query: 2.0,
        };
        let meta = Metasearcher::new(
            &net,
            catalog,
            MetaConfig {
                max_sources: 2,
                ..MetaConfig::default()
            },
        );
        let resp = meta.search(&ranked_query(r#"list((body-of-text "text"))"#));
        // The catalog profiles say 100/700 ms and 1+2 cost, but the wire
        // was registered with the default profile (50 ms, free): the
        // exchange-derived stats report what actually happened.
        assert_eq!(resp.stats.requests, 2);
        assert_eq!(resp.stats.total_latency_ms, 100);
        assert_eq!(resp.stats.max_latency_ms, 50);
        assert!(resp.stats.total_cost.abs() < 1e-9);
        assert!(resp.stats.bytes_sent > 0);
        assert!(resp.stats.bytes_received > 0);
        // The quoted view is still the catalog's.
        assert_eq!(resp.wave_latency_ms, 700);
        assert!((resp.total_cost - 3.0).abs() < 1e-9);
    }

    #[test]
    fn search_records_phase_spans_and_metrics() {
        let net = SimNet::new();
        wire_topical_net(&net);
        let catalog = catalog_for(&net, &["DB", "Food", "Stars"]);
        net.registry().reset(); // drop discovery-time traffic
        let meta = Metasearcher::new(&net, catalog, MetaConfig::default());
        let resp = meta.search(&ranked_query(r#"list((body-of-text "text"))"#));
        assert!(!resp.merged.is_empty());
        let snap = net.registry().snapshot();
        assert_eq!(snap.counter("meta.searches", &[]), 1);
        for phase in ["select", "adapt", "dispatch", "merge"] {
            let h = snap
                .histogram(
                    "span.duration_us",
                    &[("span", &format!("meta.search/{phase}"))],
                )
                .unwrap_or_else(|| panic!("missing {phase} span"));
            assert_eq!(h.count, 1, "{phase}");
        }
        // Per-source fan-out spans parent under dispatch, and each
        // source's simulated latency lands in its own histogram.
        for source in ["DB", "Food", "Stars"] {
            let h = snap
                .histogram("meta.source_latency_ms", &[("source", source)])
                .unwrap_or_else(|| panic!("missing latency histogram for {source}"));
            assert_eq!((h.count, h.max), (1, 50), "{source}");
        }
        let events = net.registry().recent_spans();
        let workers: Vec<_> = events
            .iter()
            .filter(|e| e.path == "meta.search/dispatch/source")
            .collect();
        assert_eq!(workers.len(), 3);
        assert!(workers.iter().all(|e| e.parent == "meta.search/dispatch"));
        // Merge accounting: all candidates were distinct linkages.
        let candidates = snap.counter("meta.merge.candidates", &[]);
        assert!(candidates >= resp.merged.len() as u64);
        assert_eq!(snap.counter("meta.merge.duplicates", &[]), 0);
    }

    #[test]
    fn search_feeds_the_health_board_and_query_profile() {
        let net = SimNet::new();
        wire_topical_net(&net);
        let catalog = catalog_for(&net, &["DB", "Food", "Stars"]);
        net.registry().reset();
        let meta = Metasearcher::new(&net, catalog, MetaConfig::default());
        let resp = meta.search(&ranked_query(r#"list((body-of-text "text"))"#));

        // Health: one successful 50ms exchange per source, exported as
        // gauges into the shared registry.
        for source in ["DB", "Food", "Stars"] {
            let h = meta.config.health.health(source).expect("health recorded");
            assert_eq!((h.samples, h.timeouts), (1, 0));
            assert_eq!(h.availability, 1.0);
            assert_eq!(h.latency_p50_ms, 50);
            assert!(h.score > 0.9, "{source} score {}", h.score);
        }
        let snap = net.registry().snapshot();
        assert_eq!(snap.gauge("health.availability", &[("source", "DB")]), 1.0);
        assert!(snap.gauge("health.score", &[("source", "Food")]) > 0.9);

        // Profile: one tree rooted at meta.search, holding the client
        // phases and, grafted from each answer, the host-side execution.
        let profile = &resp.profile;
        assert!(resp.query_id.starts_with("q-"));
        assert_eq!(profile.query_id, resp.query_id);
        assert_eq!(profile.root.name, "meta.search");
        let host = profile.find("source.execute").expect("host stage grafted");
        let source = host.meta_value("source").expect("the host names itself");
        assert!(["DB", "Food", "Stars"].contains(&source), "{source}");
        assert!(host.children.iter().any(|c| c.name == "rewrite"));
        assert!(!profile.critical_path_summary().is_empty());
        // The host's span still parents under the worker across the wire.
        let spans = net.registry().recent_spans();
        let host_span = spans.iter().find(|e| e.name == "source.execute");
        let host_span = host_span.expect("host span recorded");
        assert_eq!(host_span.parent, "meta.search/dispatch/source");
    }

    #[test]
    fn latency_is_max_cost_is_sum() {
        let net = SimNet::new();
        wire_topical_net(&net);
        let mut catalog = catalog_for(&net, &["DB", "Food"]);
        catalog.entries[0].link = LinkProfile {
            latency_ms: 100,
            cost_per_query: 1.0,
        };
        catalog.entries[1].link = LinkProfile {
            latency_ms: 700,
            cost_per_query: 2.0,
        };
        let meta = Metasearcher::new(
            &net,
            catalog,
            MetaConfig {
                max_sources: 2,
                ..MetaConfig::default()
            },
        );
        let resp = meta.search(&ranked_query(r#"list((body-of-text "text"))"#));
        assert_eq!(resp.wave_latency_ms, 700);
        assert!((resp.total_cost - 3.0).abs() < 1e-9);
    }

    #[test]
    fn panicking_source_worker_becomes_a_failed_source_not_a_poisoned_query() {
        let net = SimNet::new();
        wire_topical_net(&net);
        let catalog = catalog_for(&net, &["DB", "Food", "Stars"]);
        // Replace one source's query endpoint with a handler that
        // panics mid-request: its attempt unwinds on the calling thread,
        // becomes a failed source, and the other two keep going.
        let url = catalog.entry("Food").unwrap().query_url().to_string();
        net.register(
            url,
            LinkProfile::default(),
            Arc::new(|_req: &[u8]| -> Vec<u8> { panic!("endpoint blew up") }),
        );
        net.registry().reset();
        let meta = Metasearcher::new(&net, catalog, MetaConfig::default());
        let resp = meta.search(&ranked_query(r#"list((body-of-text "text"))"#));
        // The query survived with the two healthy sources merged…
        assert_eq!(resp.per_source.len(), 2);
        assert!(!resp.merged.is_empty());
        assert_eq!(resp.stats.requests, 2);
        // …and the panic is accounted as a failed source.
        let snap = net.registry().snapshot();
        assert_eq!(
            snap.counter("meta.dispatch.failures", &[("source", "Food")]),
            1
        );
        assert_eq!(
            snap.counter("meta.dispatch.panics", &[("source", "Food")]),
            1
        );
        let h = meta.config.health.health("Food").expect("health recorded");
        assert_eq!(h.availability, 0.0);
        // A healthy source is untouched.
        assert_eq!(snap.counter("meta.dispatch.panics", &[("source", "DB")]), 0);
        assert_eq!(meta.config.health.health("DB").unwrap().availability, 1.0);
    }

    #[test]
    fn heterogeneous_fleet_end_to_end() {
        // The full vendor fleet — Boolean-only, rank-only, 1000-scale —
        // behind one metasearcher.
        let net = SimNet::new();
        let docs: Vec<Document> = (0..10)
            .map(|i| {
                Document::new()
                    .field("title", format!("doc {i}"))
                    .field(
                        "body-of-text",
                        format!("databases distributed systems item{i}"),
                    )
                    .field("linkage", format!("http://fleet/{i}"))
            })
            .collect();
        for cfg in vendors::fleet() {
            wire_source(&net, Source::build(cfg, &docs), LinkProfile::default());
        }
        let client = StartsClient::new(&net);
        let mut catalog = Catalog::default();
        for id in [
            "acme-src",
            "bolt-src",
            "okapi-src",
            "glimpse-src",
            "rankonly-src",
        ] {
            catalog
                .discover_source(
                    &client,
                    &format!("starts://{id}/metadata"),
                    LinkProfile::default(),
                    false,
                )
                .unwrap();
        }
        let meta = Metasearcher::new(
            &net,
            catalog,
            MetaConfig {
                max_sources: 5,
                ..MetaConfig::default()
            },
        );
        let resp = meta.search(&ranked_query(
            r#"list((body-of-text "databases") (body-of-text "distributed"))"#,
        ));
        // Every vendor answered (even the Boolean-only one, via
        // adaptation), and normalization kept the 1000-scale vendor from
        // flooding the top ranks with garbage scores.
        assert_eq!(resp.per_source.len(), 5);
        assert!(!resp.merged.is_empty());
        for d in &resp.merged {
            assert!(
                d.score <= 1.0 + 1e-9,
                "unnormalized score leaked: {}",
                d.score
            );
        }
    }

    #[test]
    fn lcd_mode_loses_capability() {
        let net = SimNet::new();
        wire_topical_net(&net);
        // Glimpse (filter-only) joins the catalog: LCD drops ranking for
        // everyone.
        let g = Source::build(
            vendors::glimpse("Glim"),
            &[Document::new()
                .field("body-of-text", "databases here")
                .field("linkage", "http://glim/0")],
        );
        wire_source(&net, g, LinkProfile::default());
        let client = StartsClient::new(&net);
        let mut catalog = catalog_for(&net, &["DB"]);
        catalog
            .discover_source(
                &client,
                "starts://glim/metadata",
                LinkProfile::default(),
                false,
            )
            .unwrap();
        let meta = Metasearcher::new(
            &net,
            catalog,
            MetaConfig {
                max_sources: 2,
                adapt: AdaptMode::Lcd,
                ..MetaConfig::default()
            },
        );
        let resp = meta.search(&ranked_query(r#"list((body-of-text "databases"))"#));
        // LCD stripped the ranking part; with no filter either, sources
        // got an empty query.
        assert!(resp.merged.is_empty());
        // Per-source adaptation instead converts for Glimpse and keeps
        // ranking at DB.
        let meta = Metasearcher::new(
            &net,
            meta.catalog,
            MetaConfig {
                max_sources: 2,
                adapt: AdaptMode::PerSource,
                ..MetaConfig::default()
            },
        );
        let resp = meta.search(&ranked_query(r#"list((body-of-text "databases"))"#));
        assert!(!resp.merged.is_empty());
    }
}
