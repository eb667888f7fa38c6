//! What the result cache is keyed by, checked against planning.
//!
//! A `Server` keys an answer by the normalized query alone when its
//! selector ranks from the catalog alone, and plans only on a miss; a
//! selector that reads state of its own (a health board, learned
//! history) is planned first and keyed by the sources it picks. Over a
//! seeded stream of repeated queries with source invalidations mixed in
//! — and, for the stateful selectors, health outcomes and learned
//! history changing mid-stream — this test checks, per selector:
//!
//! * a request is a cache hit exactly when a model of the cache (keyed
//!   by query, or by query and the planned sources) holds its key;
//! * every hit's `selected` is what `pipeline::plan` selects at that
//!   moment;
//! * under a catalog-only selector, every answer's `merged` and
//!   `completeness` equal those of an uncached server asked the same.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use starts::index::Document;
use starts::meta::catalog::{Catalog, CatalogEntry};
use starts::meta::metasearcher::{MetaConfig, MetaResponse, Metasearcher};
use starts::meta::pipeline;
use starts::meta::savvy::PastPerformance;
use starts::meta::select::{BGloss, BySize, Cori, CostAware, GGlossSum, HealthAware, Selector};
use starts::net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts::obs::monitor::ManualClock;
use starts::obs::{HealthBoard, SourceOutcome};
use starts::proto::query::{parse_filter, parse_ranking};
use starts::proto::Query;
use starts::serve::{HedgeConfig, ServeConfig, ServeOutcome, Served, Server};
use starts::source::{vendors, Source};

const WORDS: [&str; 6] = [
    "databases",
    "queries",
    "cooking",
    "recipes",
    "galaxies",
    "orbits",
];

/// One source per vendor personality, each holding three of the six
/// words, and the catalog a metasearcher discovers over them.
fn fleet(net: &SimNet) -> Catalog {
    let client = StartsClient::new(net);
    let mut catalog = Catalog::default();
    for (v, config) in vendors::fleet().into_iter().enumerate() {
        let words = [WORDS[v], WORDS[(v + 1) % 6], WORDS[(v + 3) % 6]];
        let tag = format!("v{v}");
        let docs: Vec<Document> = (0..8 + 3 * v)
            .map(|i| {
                let body = format!("{} {} text", words[i % 3], words[(i + v) % 3]);
                Document::new()
                    .field("title", format!("{tag} doc {i}"))
                    .field("body-of-text", body)
                    .field("linkage", format!("http://{tag}/{i}"))
            })
            .collect();
        let url = format!("starts://{}/metadata", config.id.to_lowercase());
        wire_source(
            net,
            Source::build(config, &docs),
            LinkProfile {
                latency_ms: 10 * v as u32,
                cost_per_query: 0.0,
            },
        );
        catalog
            .discover_source(&client, &url, LinkProfile::default(), false)
            .unwrap();
    }
    catalog
}

/// Ranked, filtered and mixed queries over the six words.
fn query_pool() -> Vec<Query> {
    let term = |w: &str| format!(r#"(body-of-text "{w}")"#);
    let mut queries = Vec::new();
    for (i, a) in WORDS.iter().enumerate() {
        let (b, c) = (WORDS[(i + 2) % 6], WORDS[(i + 3) % 6]);
        let ranking = parse_ranking(&format!("list({} {})", term(a), term(b))).unwrap();
        queries.push(Query {
            ranking: Some(ranking.clone()),
            ..Query::default()
        });
        queries.push(Query {
            filter: Some(parse_filter(&format!("({} or {})", term(a), term(c))).unwrap()),
            ranking: Some(ranking),
            ..Query::default()
        });
    }
    queries
}

/// One selector behind two configs — the server's and the oracle's —
/// so a stateful selector's state is the same one both read.
struct Shared(Arc<dyn Selector>);

impl Selector for Shared {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn score_source(
        &self,
        entry: &CatalogEntry,
        catalog: &Catalog,
        terms: &[(Option<&str>, &str)],
    ) -> f64 {
        self.0.score_source(entry, catalog, terms)
    }

    fn rank(&self, catalog: &Catalog, terms: &[(Option<&str>, &str)]) -> Vec<(usize, f64)> {
        self.0.rank(catalog, terms)
    }

    fn ranks_from_catalog(&self) -> bool {
        self.0.ranks_from_catalog()
    }
}

/// A selector under test, with the state the stream moves under it.
struct Case {
    selector: Arc<dyn Selector>,
    /// The board every config of the case records exchanges on; a
    /// `HealthAware` selector reads it too.
    board: Arc<HealthBoard>,
    /// Inject failure bursts and recoveries into `board` mid-stream.
    disturb_health: bool,
    /// A learned selector, fed every wave's answer.
    learner: Option<Arc<PastPerformance>>,
}

impl Case {
    fn new(selector: Arc<dyn Selector>, board: Arc<HealthBoard>) -> Self {
        Case {
            selector,
            board,
            disturb_health: false,
            learner: None,
        }
    }

    fn config(&self) -> MetaConfig {
        MetaConfig {
            selector: Box::new(Shared(Arc::clone(&self.selector))),
            max_sources: 3,
            health: Arc::clone(&self.board),
            ..MetaConfig::default()
        }
    }
}

fn board() -> Arc<HealthBoard> {
    Arc::new(HealthBoard::with_clock(
        6,
        60_000,
        Arc::new(ManualClock::new(0)),
    ))
}

fn cases() -> Vec<Case> {
    let health = board();
    let savvy = Arc::new(PastPerformance::new());
    vec![
        Case::new(Arc::new(BGloss), board()),
        Case::new(Arc::new(GGlossSum), board()),
        Case::new(Arc::new(Cori::default()), board()),
        Case::new(Arc::new(BySize), board()),
        Case::new(
            Arc::new(CostAware {
                inner: GGlossSum,
                lambda: 5.0,
                mu: 0.0,
            }),
            board(),
        ),
        Case {
            disturb_health: true,
            ..Case::new(
                Arc::new(HealthAware::new(GGlossSum, Arc::clone(&health))),
                health,
            )
        },
        Case {
            learner: Some(Arc::clone(&savvy)),
            ..Case::new(savvy, board())
        },
    ]
}

fn hedge_off() -> HedgeConfig {
    HedgeConfig {
        enabled: false,
        ..HedgeConfig::default()
    }
}

fn server(net: &Arc<SimNet>, catalog: &Catalog, case: &Case, cache_ttl: Duration) -> Server {
    Server::new(
        Arc::clone(net),
        catalog.clone(),
        case.config(),
        ServeConfig {
            query_workers: 1,
            hedge: hedge_off(),
            cache_ttl,
            ..ServeConfig::default()
        },
    )
}

/// What `observe_response` learns from, rebuilt from a served wave.
fn as_meta_response(outcome: &ServeOutcome) -> MetaResponse {
    let wave = outcome.wave.as_ref().expect("a wave ran");
    MetaResponse {
        merged: outcome.response.merged.clone(),
        selected: outcome.response.selected.clone(),
        per_source: wave.per_source.clone(),
        wave_latency_ms: 0,
        total_cost: 0.0,
        stats: wave.stats,
        query_id: outcome.response.query_id.clone(),
        profile: wave.profile.clone(),
    }
}

#[test]
fn a_cache_hit_answers_what_planning_would_select_now() {
    const STEPS: usize = 240;
    let net = Arc::new(SimNet::new());
    let catalog = fleet(&net);
    let ids: Vec<String> = catalog.entries.iter().map(|e| e.id.clone()).collect();
    let queries = query_pool();
    let obs = net.registry();

    for case in cases() {
        let name = case.selector.name();
        let pure = case.selector.ranks_from_catalog();
        let cached = server(&net, &catalog, &case, Duration::from_secs(600));
        let uncached = pure.then(|| server(&net, &catalog, &case, Duration::ZERO));
        let oracle = case.config();

        // The cache as it should be: key → the sources its answer
        // consulted.
        let mut model: HashMap<String, Vec<String>> = HashMap::new();
        let mut selections: HashMap<usize, HashSet<Vec<String>>> = HashMap::new();
        let (mut hits, mut invalidations) = (0, 0);
        let mut rng = StdRng::seed_from_u64(36);
        for step in 0..STEPS {
            if rng.gen_range(0..12) == 0 {
                let source = &ids[rng.gen_range(0..ids.len())];
                cached.invalidate_source(source);
                model.retain(|_, selected| !selected.contains(source));
                invalidations += 1;
            }
            if case.disturb_health && rng.gen_range(0..5) == 0 {
                let source = &ids[rng.gen_range(0..ids.len())];
                let outcome = if rng.gen_bool(0.5) {
                    SourceOutcome::failed()
                } else {
                    SourceOutcome::ok(5)
                };
                for _ in 0..3 {
                    case.board.record(source, outcome);
                }
            }

            // Zipf-ish: low indices repeat most.
            let q = rng
                .gen_range(0..queries.len())
                .min(rng.gen_range(0..queries.len()));
            let query = &queries[q];
            let plan = pipeline::plan(cached.catalog(), &oracle, query, obs, Instant::now());
            selections
                .entry(q)
                .or_default()
                .insert(plan.selected.clone());
            let mut key = pipeline::normalized_query_key(query);
            if !pure {
                key = format!("{key}|{}", plan.selected.join(","));
            }

            let outcome = cached.search(query).unwrap();
            let expected = if model.contains_key(&key) {
                Served::CacheHit
            } else {
                Served::Executed
            };
            assert_eq!(outcome.via, expected, "{name}, step {step}");
            assert_eq!(
                outcome.response.selected, plan.selected,
                "{name}, step {step}: the answer's sources are not today's plan"
            );
            if let Some(uncached) = &uncached {
                let fresh = uncached.search(query).unwrap();
                assert_eq!(fresh.via, Served::Executed);
                assert_eq!(fresh.response.selected, outcome.response.selected, "{name}");
                assert_eq!(fresh.response.merged, outcome.response.merged, "{name}");
                assert_eq!(
                    fresh.response.completeness, outcome.response.completeness,
                    "{name}, step {step}"
                );
            }
            // Learn only once every check of this step has read the
            // selector's state.
            match outcome.via {
                Served::CacheHit => hits += 1,
                _ => {
                    model.insert(key, outcome.response.selected.clone());
                    if let Some(learner) = &case.learner {
                        let terms: Vec<String> = Metasearcher::selection_terms(query)
                            .into_iter()
                            .map(|(_, word)| word)
                            .collect();
                        learner.observe_response(&terms, &as_meta_response(&outcome));
                    }
                }
            }
        }

        // The stream exercised what it is for: repeats that hit, and
        // invalidations that forced waves.
        assert!(hits > STEPS / 3, "{name}: only {hits} hits");
        assert!(invalidations > 5, "{name}");
        // A stateful selector's choice moved under some query mid-stream
        // — the case a query-only key would answer wrongly.
        let moved = selections.values().any(|seen| seen.len() > 1);
        assert_eq!(moved, !pure, "{name}: selection moved = {moved}");
    }
}
