//! Acceptance tests for the concurrent serving layer (`starts-serve`):
//! singleflight dedup of identical concurrent queries, bit-identical
//! cached responses with per-source generation invalidation,
//! deadline-bounded partial results that are a prefix-consistent merge
//! of the finished sources, hedged dispatch racing a replica against a
//! slow primary, LIFO load shedding under overload, who leads a miss
//! (always its caller: at once while a running slot is free, once one
//! frees otherwise) and which waiter takes a freed slot (the newest),
//! where a wave's exchanges run (the leader, or the shared
//! dispatch pool once pacing or a deadline can end the wait early),
//! panic isolation on either thread and on the leader, and the cached
//! path:
//! hits answered on the caller's thread past a full executor, an
//! invalidation that overtakes a wave in flight, and a cache that keeps
//! the answer but never the wave's report.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use starts::index::Document;
use starts::meta::catalog::Catalog;
use starts::meta::merge::{MergedDoc, Merger, NormalizedMerge, SourceResult};
use starts::meta::metasearcher::{MetaConfig, Metasearcher, QueryStats};
use starts::net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts::proto::query::{parse_filter, parse_ranking};
use starts::proto::{Query, QueryProfile, StageCost};
use starts::serve::{
    HedgeConfig, ServeConfig, ServeError, ServeOutcome, Served, Server, SourceStatus,
};
use starts::source::{vendors, Source, SourceConfig};

fn docs(words: &[&str], n: usize, tag: &str) -> Vec<Document> {
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
}

fn wire(net: &SimNet, id: &str, words: &[&str], latency_ms: u32) {
    wire_source(
        net,
        Source::build(SourceConfig::new(id), &docs(words, 12, &id.to_lowercase())),
        LinkProfile {
            latency_ms,
            cost_per_query: 0.0,
        },
    );
}

fn discover(net: &SimNet, ids: &[&str]) -> Catalog {
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

/// Wire a source whose query endpoint stops every exchange at a gate:
/// it reports on the first channel that a wave has reached it, then
/// answers (for real) only once it is sent a pass on the second.
fn wire_gated(net: &SimNet, id: &str, words: &[&str]) -> (Receiver<()>, Sender<()>) {
    wire(net, id, words, 10);
    let source = Source::build(SourceConfig::new(id), &docs(words, 12, &id.to_lowercase()));
    let (entered_tx, entered) = channel();
    let (pass, pass_rx) = channel::<()>();
    let (entered_tx, pass_rx) = (Mutex::new(entered_tx), Mutex::new(pass_rx));
    net.register(
        format!("starts://{}/query", id.to_lowercase()),
        LinkProfile::default(),
        Arc::new(move |request: &[u8]| -> Vec<u8> {
            entered_tx.lock().unwrap().send(()).unwrap();
            pass_rx.lock().unwrap().recv().unwrap();
            let object =
                starts::soif::parse_one(request, starts::soif::ParseMode::Lenient).unwrap();
            source
                .execute(&Query::from_soif(&object).unwrap())
                .to_soif_stream()
        }),
    );
    (entered, pass)
}

fn ranked(terms: &str) -> Query {
    Query {
        ranking: Some(parse_ranking(terms).unwrap()),
        ..Query::default()
    }
}

fn hedge_off() -> HedgeConfig {
    HedgeConfig {
        enabled: false,
        ..HedgeConfig::default()
    }
}

#[test]
fn singleflight_collapses_identical_concurrent_queries_into_one_wave() {
    const CLIENTS: usize = 8;
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 100);
    wire(&net, "Food", &["cooking", "recipes"], 100);
    let catalog = discover(&net, &["DB", "Food"]);
    net.registry().reset();
    // Pace the simulation so the wave takes real time (~50ms): every
    // client misses while the leader's dispatch is in flight.
    net.set_pacing(500);
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig::default(),
        ServeConfig {
            query_workers: CLIENTS,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );

    let query = ranked(r#"list((body-of-text "text"))"#);
    let barrier = Barrier::new(CLIENTS);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (server, query, barrier) = (&server, &query, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    server.search(query).expect("served")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    net.set_pacing(0);

    // Exactly one wave executed; everyone else coalesced onto it.
    let executed = outcomes
        .iter()
        .filter(|o| o.via == Served::Executed)
        .count();
    let coalesced = outcomes
        .iter()
        .filter(|o| o.via == Served::Coalesced)
        .count();
    assert_eq!((executed, coalesced), (1, CLIENTS - 1));
    // All M responses share the leader's response verbatim.
    let leader = &outcomes[0].response;
    for o in &outcomes {
        assert!(Arc::ptr_eq(&o.response, leader));
        assert!(!o.response.merged.is_empty());
        assert!(!o.response.partial);
    }
    // One dispatch per source total — not one per client.
    let snap = net.registry().snapshot();
    for source in ["DB", "Food"] {
        let h = snap
            .histogram("meta.source_latency_ms", &[("source", source)])
            .expect("source latency histogram");
        assert_eq!(h.count, 1, "{source} dispatched more than once");
    }
    assert_eq!(snap.counter("serve.singleflight.leader", &[]), 1);
    assert_eq!(
        snap.counter("serve.singleflight.coalesced", &[]),
        (CLIENTS - 1) as u64
    );
    assert_eq!(snap.counter("serve.requests", &[]), CLIENTS as u64);
}

#[test]
fn cached_responses_are_shared_verbatim_and_stale_per_source() {
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 10);
    wire(&net, "Food", &["cooking", "recipes"], 10);
    wire(&net, "Stars", &["galaxies", "orbits"], 10);
    let catalog = discover(&net, &["DB", "Food", "Stars"]);
    net.registry().reset();
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig {
            max_sources: 2,
            ..MetaConfig::default()
        },
        ServeConfig {
            query_workers: 1,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );

    let query = ranked(r#"list((body-of-text "databases"))"#);
    let first = server.search(&query).unwrap();
    assert_eq!(first.via, Served::Executed);
    assert!(!first.response.selected.contains(&"Stars".to_string()));

    // Bit-identical: the cache hands back the very same response.
    let second = server.search(&query).unwrap();
    assert_eq!(second.via, Served::CacheHit);
    assert!(Arc::ptr_eq(&first.response, &second.response));

    // Staling a source the response never consulted keeps it servable…
    server.invalidate_source("Stars");
    assert_eq!(server.search(&query).unwrap().via, Served::CacheHit);
    // …staling a consulted source forces a fresh wave.
    server.invalidate_source(&first.response.selected[0]);
    let refreshed = server.search(&query).unwrap();
    assert_eq!(refreshed.via, Served::Executed);
    assert!(!Arc::ptr_eq(&first.response, &refreshed.response));

    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("serve.cache.hits", &[]), 2);
    assert_eq!(snap.counter("serve.cache.misses", &[]), 2);
}

/// One key, three ways in: the request that leads the wave, one that
/// joins it in flight, and one the cache answers after it. All three get
/// the one answer the cache holds; the two that were there for the wave
/// share its report, the hit — which ran no wave — gets none, and the
/// report is gone once they let go of it while the answer stays cached.
#[test]
fn the_cache_holds_the_answer_and_only_the_wave_gets_the_report() {
    const PATIENCE: Duration = Duration::from_secs(10);
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 10);
    let (entered, pass) = wire_gated(&net, "Food", &["cooking", "recipes"]);
    let catalog = discover(&net, &["DB", "Food"]);
    net.registry().reset();
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig::default(),
        ServeConfig {
            query_workers: 2,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );
    let query = ranked(r#"list((body-of-text "cooking"))"#);
    let coalesced = || {
        net.registry()
            .snapshot()
            .counter("serve.singleflight.coalesced", &[])
    };

    let (leader, follower) = std::thread::scope(|scope| {
        let leader = scope.spawn(|| server.search(&query).unwrap());
        entered.recv_timeout(PATIENCE).expect("a wave at the gate");
        let follower = scope.spawn(|| server.search(&query).unwrap());
        let waiting = Instant::now();
        while coalesced() == 0 {
            assert!(waiting.elapsed() < PATIENCE, "the follower never joined");
            std::thread::yield_now();
        }
        pass.send(()).unwrap();
        (leader.join().unwrap(), follower.join().unwrap())
    });
    assert_eq!(
        (leader.via, follower.via),
        (Served::Executed, Served::Coalesced)
    );
    let report = leader.wave.as_ref().expect("the leader ran the wave");
    assert!(Arc::ptr_eq(&follower.response, &leader.response));
    let joined = follower
        .wave
        .as_ref()
        .expect("the follower joined the wave");
    assert!(Arc::ptr_eq(joined, report));
    assert!(report.profile.is_consistent());
    assert_eq!(report.per_source.len(), leader.response.selected.len());

    let hit = server.search(&query).unwrap();
    assert_eq!(hit.via, Served::CacheHit);
    assert!(Arc::ptr_eq(&hit.response, &leader.response));
    assert!(hit.wave.is_none());
    // Outcomes are equal by pointer, the report included.
    let as_follower = ServeOutcome {
        via: Served::Coalesced,
        ..leader.clone()
    };
    assert_eq!(as_follower, follower);
    let as_hit = ServeOutcome {
        via: Served::CacheHit,
        ..leader.clone()
    };
    assert_ne!(as_hit, hit);

    // The cache keeps the answer; the report lives as long as the last
    // outcome that carries it (the leader lets go of its own copy just
    // after answering its followers).
    let (answer, report) = (Arc::downgrade(&leader.response), Arc::downgrade(report));
    drop((leader, follower, hit, as_follower, as_hit));
    let waiting = Instant::now();
    while report.upgrade().is_some() {
        assert!(
            waiting.elapsed() < PATIENCE,
            "the wave report outlived its callers"
        );
        std::thread::yield_now();
    }
    assert!(answer.upgrade().is_some());
    assert_eq!(server.cached_responses(), 1);
}

/// The generation a response is stamped with is the one its wave saw
/// *before dispatch*: an invalidation that lands while the wave is in
/// flight must not be papered over by the store that follows it.
#[test]
fn an_invalidation_that_overtakes_a_wave_stales_its_response() {
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 10);
    let (entered, pass) = wire_gated(&net, "Food", &["cooking", "recipes"]);
    let catalog = discover(&net, &["DB", "Food"]);
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig::default(),
        ServeConfig {
            query_workers: 1,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );
    let query = ranked(r#"list((body-of-text "cooking"))"#);

    let first = std::thread::scope(|scope| {
        let wave = scope.spawn(|| server.search(&query).unwrap());
        // The wave is planned, stamped and dispatched; Food changes now.
        entered.recv().unwrap();
        server.invalidate_source("Food");
        pass.send(()).unwrap();
        wave.join().unwrap()
    });
    assert_eq!(first.via, Served::Executed);
    assert!(first.response.selected.contains(&"Food".to_string()));
    assert_eq!(server.cached_responses(), 0, "a stale response was kept");

    // What that wave fetched predates the change: it must not be served.
    pass.send(()).unwrap();
    let second = server.search(&query).unwrap();
    assert_eq!(second.via, Served::Executed);
    assert!(!Arc::ptr_eq(&first.response, &second.response));
    // Nothing overtook the second wave: it is cached as usual.
    assert_eq!(server.search(&query).unwrap().via, Served::CacheHit);
}

/// Admission bounds waves, not lookups: with every running slot taken
/// by a wave parked at a gate, a request the cache can answer is
/// answered on its caller's thread — never queued, never shed.
#[test]
fn cache_hits_bypass_admission_while_every_running_slot_is_taken() {
    const WORKERS: usize = 2;
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 10);
    let (entered, pass) = wire_gated(&net, "Food", &["cooking", "recipes"]);
    let catalog = discover(&net, &["DB", "Food"]);
    net.registry().reset();
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig {
            max_sources: 1,
            ..MetaConfig::default()
        },
        ServeConfig {
            query_workers: WORKERS,
            queue_capacity: 1,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );
    let cached = ranked(r#"list((body-of-text "databases"))"#);
    let warm = server.search(&cached).unwrap();
    assert_eq!(warm.via, Served::Executed);
    assert_eq!(warm.response.selected, ["DB"]);

    std::thread::scope(|scope| {
        // One at a time: each miss finds a running slot free and leads
        // its wave on its own thread as far as the gate.
        let waves: Vec<_> = ["cooking", "recipes"]
            .into_iter()
            .map(|word| {
                let server = &server;
                let wave = scope.spawn(move || {
                    server
                        .search(&ranked(&format!(r#"list((body-of-text "{word}"))"#)))
                        .unwrap()
                });
                entered.recv().unwrap();
                wave
            })
            .collect();
        // Both running slots are taken, nothing waits behind them.
        let snap = net.registry().snapshot();
        assert_eq!(snap.gauge("serve.inflight", &[]), WORKERS as f64);
        assert_eq!(snap.gauge("serve.queue_depth", &[]), 0.0);

        for _ in 0..5 {
            let hit = server.search(&cached).unwrap();
            assert_eq!(hit.via, Served::CacheHit);
            assert!(Arc::ptr_eq(&hit.response, &warm.response));
        }
        assert_eq!(
            net.registry().snapshot().gauge("serve.queue_depth", &[]),
            0.0
        );

        for _ in 0..WORKERS {
            pass.send(()).unwrap();
        }
        for wave in waves {
            assert_eq!(wave.join().unwrap().via, Served::Executed);
        }
    });

    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("serve.shed", &[]), 0);
    assert_eq!(snap.counter("serve.cache.hits", &[]), 5);
    assert_eq!(snap.counter("serve.cache.misses", &[]), 3);
    assert_eq!(snap.counter("serve.requests", &[]), 8);
}

/// Every request to a caching server counts exactly one of
/// `serve.cache.{hits,misses}`, however it was served, and the
/// executor's gauges come back to rest.
#[test]
fn mixed_traffic_counts_one_cache_outcome_per_request_and_gauges_settle() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 40;
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 10);
    wire(&net, "Food", &["cooking", "recipes"], 10);
    wire(&net, "Stars", &["galaxies", "orbits"], 10);
    let catalog = discover(&net, &["DB", "Food", "Stars"]);
    net.registry().reset();
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig::default(),
        ServeConfig {
            query_workers: 2,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );
    let words = [
        "databases",
        "queries",
        "cooking",
        "recipes",
        "galaxies",
        "text",
    ];
    let barrier = Barrier::new(CLIENTS);
    let served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (server, barrier, words) = (&server, &barrier, &words);
                scope.spawn(move || {
                    barrier.wait();
                    (0..ROUNDS)
                        .map(|round| {
                            if client == 0 && round % 10 == 9 {
                                server.invalidate_source(["DB", "Food", "Stars"][round % 3]);
                            }
                            let word = words[(client + round * (client + 1)) % words.len()];
                            let query = ranked(&format!(r#"list((body-of-text "{word}"))"#));
                            let outcome = server.search(&query).expect("64 slots never fill");
                            // A hit ran no wave and reports none; every
                            // other request carries its wave's profile.
                            assert_eq!(outcome.wave.is_none(), outcome.via == Served::CacheHit);
                            if let Some(wave) = &outcome.wave {
                                assert!(wave.profile.is_consistent());
                            }
                            outcome.via
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // Every leader frees its running slot before its `search` returns:
    // the gauges are at rest without joining anything.
    let count = |via: Served| served.iter().filter(|v| **v == via).count() as u64;
    assert_eq!(served.len(), CLIENTS * ROUNDS);
    assert!(count(Served::CacheHit) > 0 && count(Served::Executed) > 0);
    let snap = net.registry().snapshot();
    let (hits, misses) = (
        snap.counter("serve.cache.hits", &[]),
        snap.counter("serve.cache.misses", &[]),
    );
    assert_eq!(
        snap.counter("serve.requests", &[]),
        (CLIENTS * ROUNDS) as u64
    );
    assert_eq!(hits + misses, snap.counter("serve.requests", &[]));
    assert_eq!(hits, count(Served::CacheHit));
    assert_eq!(misses, count(Served::Executed) + count(Served::Coalesced));
    assert_eq!(
        snap.counter("serve.singleflight.leader", &[]),
        count(Served::Executed)
    );
    assert_eq!(snap.gauge("serve.inflight", &[]), 0.0);
    assert_eq!(snap.gauge("serve.queue_depth", &[]), 0.0);
}

#[test]
fn deadline_expiry_returns_prefix_consistent_partial_results() {
    let net = Arc::new(SimNet::new());
    wire(&net, "Fast", &["databases", "queries"], 10);
    wire(&net, "Slow", &["cooking", "recipes"], 400);
    let catalog = discover(&net, &["Fast", "Slow"]);
    net.registry().reset();
    // 400 simulated ms at 500µs/ms = 200ms wall for the slow source;
    // the 60ms deadline expires long before it answers.
    net.set_pacing(500);
    let config = MetaConfig::default();
    let health = Arc::clone(&config.health);
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        config,
        ServeConfig {
            query_workers: 1,
            deadline_ms: 60,
            cache_ttl: Duration::ZERO,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );

    let outcome = server
        .search(&ranked(r#"list((body-of-text "text"))"#))
        .unwrap();
    net.set_pacing(0);
    let (resp, wave) = (
        &outcome.response,
        outcome.wave.as_ref().expect("led a wave"),
    );
    assert!(resp.partial, "deadline should have expired");
    let status: HashMap<&str, SourceStatus> = resp
        .completeness
        .iter()
        .map(|c| (c.source.as_str(), c.status))
        .collect();
    assert_eq!(status["Fast"], SourceStatus::Complete);
    assert_eq!(status["Slow"], SourceStatus::TimedOut);

    // Prefix-consistent: the partial merge is exactly the merge of the
    // finished sources — nothing from the straggler leaked in.
    assert_eq!(wave.per_source.len(), 1);
    assert!(resp.merged.iter().all(|d| d.sources == ["Fast"]));
    let (direct, _) = NormalizedMerge.merge_top_k(&wave.per_source, 20);
    assert_eq!(
        resp.merged.iter().map(|d| &d.linkage).collect::<Vec<_>>(),
        direct.iter().map(|d| &d.linkage).collect::<Vec<_>>()
    );

    // The straggler was cancelled, not failed: its health is untouched
    // and the cancellation is accounted separately (by its dispatch
    // worker, once it notices — joining the pool orders that first).
    drop(server);
    assert!(health.health("Slow").is_none());
    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("serve.partial", &[]), 1);
    assert_eq!(
        snap.counter("meta.dispatch.cancelled", &[("source", "Slow")]),
        1
    );
    assert_eq!(
        snap.counter("meta.dispatch.failures", &[("source", "Slow")]),
        0
    );
}

#[test]
fn hedged_dispatch_races_a_replica_and_cancels_the_loser() {
    let net = Arc::new(SimNet::new());
    // Primary endpoint is pathologically slow; a replica of the same
    // corpus sits behind a fast link.
    wire(&net, "DB", &["databases", "queries"], 2_000);
    wire(&net, "DB2", &["databases", "queries"], 5);
    let catalog = discover(&net, &["DB"]);
    net.registry().reset();
    net.set_pacing(200); // primary: 400ms wall, replica: 1ms wall
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig {
            max_sources: 1,
            ..MetaConfig::default()
        },
        ServeConfig {
            query_workers: 1,
            hedge: HedgeConfig {
                enabled: true,
                factor: 3.0,
                min_delay_ms: 10, // 2ms wall at this pacing
            },
            replicas: HashMap::from([("DB".to_string(), "starts://db2/query".to_string())]),
            ..ServeConfig::default()
        },
    );

    let outcome = server
        .search(&ranked(r#"list((body-of-text "databases"))"#))
        .unwrap();
    net.set_pacing(0);
    let resp = &outcome.response;
    // The replica's answer arrived long before the primary: the query
    // is complete, served by the hedge.
    assert!(!resp.partial);
    assert!(!resp.merged.is_empty());
    assert_eq!(resp.completeness[0].status, SourceStatus::Complete);
    // The profile says which attempt decided the source: the winning
    // `DB` stage, and no other, is marked as the hedge.
    fn hedged(stage: &StageCost, out: &mut Vec<String>) {
        if let Some(flag) = stage.meta_value("hedge") {
            let source = stage.meta_value("source").unwrap_or("");
            out.push(format!("{}:{source}:{flag}", stage.name));
        }
        stage.children.iter().for_each(|c| hedged(c, out));
    }
    let mut marked = Vec::new();
    let wave = outcome.wave.as_ref().expect("led a wave");
    hedged(&wave.profile.root, &mut marked);
    assert_eq!(marked, ["source:DB:1"], "{}", wave.profile.render());

    // The cancelled primary is counted by its dispatch worker, once it
    // notices: joining the pool orders that before the reading.
    drop(server);
    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("serve.hedge.launched", &[("source", "DB")]), 1);
    assert_eq!(snap.counter("serve.hedge.wins", &[("source", "DB")]), 1);
    // The losing primary was cancelled — no health penalty for DB.
    assert_eq!(
        snap.counter("meta.dispatch.cancelled", &[("source", "DB")]),
        1
    );
    assert_eq!(
        snap.counter("meta.dispatch.failures", &[("source", "DB")]),
        0
    );
    // The hedge attempt is visible as a span under the dispatch stage.
    let hedge_spans = snap
        .histogram(
            "span.duration_us",
            &[("span", "serve.query/dispatch/hedge")],
        )
        .expect("hedge span recorded");
    assert_eq!(hedge_spans.count, 1);
}

#[test]
fn overload_sheds_the_oldest_waiter_and_answers_the_rest() {
    const CLIENTS: usize = 6;
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 100);
    let catalog = discover(&net, &["DB"]);
    net.registry().reset();
    net.set_pacing(400); // each wave ~40ms wall
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig {
            max_sources: 1,
            ..MetaConfig::default()
        },
        ServeConfig {
            query_workers: 1,
            queue_capacity: 2,
            cache_ttl: Duration::ZERO,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );

    // Six *distinct* queries at once (no singleflight): one executes,
    // two wait, the overflow sheds the oldest waiters.
    let barrier = Barrier::new(CLIENTS);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (server, barrier) = (&server, &barrier);
                scope.spawn(move || {
                    let query = ranked(&format!(r#"list((body-of-text "filler{i}"))"#));
                    barrier.wait();
                    server.search(&query)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    net.set_pacing(0);

    let served = results.iter().filter(|r| r.is_ok()).count();
    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Shed)))
        .count();
    assert_eq!(served + shed, CLIENTS, "every caller got an answer");
    assert!(served >= 1, "at least the running query completes");
    assert!(shed >= 1, "overload must shed");
    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("serve.shed", &[]), shed as u64);
}

/// The name of the thread each exchange with a source ran on, in order.
type ThreadLog = Arc<Mutex<Vec<String>>>;

fn thread_name() -> String {
    std::thread::current().name().unwrap_or("").to_string()
}

/// Where a wave's exchanges run: on the thread that leads it — the
/// caller, when a running slot is free — while nothing can end its wait
/// early — the net does not pace and the query has no deadline — and on
/// the dispatch pool otherwise. A `Metasearcher` on an unpaced net runs
/// them on its caller's thread too.
#[test]
fn an_exchange_runs_on_its_leader_unless_pacing_or_a_deadline_can_end_the_wait() {
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 10);
    let catalog = discover(&net, &["DB"]);
    let source = Source::build(SourceConfig::new("DB"), &docs(&["databases"], 12, "db"));
    let log: ThreadLog = Arc::default();
    let seen = Arc::clone(&log);
    net.register(
        "starts://db/query",
        LinkProfile::default(),
        Arc::new(move |request: &[u8]| -> Vec<u8> {
            seen.lock().unwrap().push(thread_name());
            let query = Query::from_soif_bytes(request, starts::soif::ParseMode::Lenient);
            source.execute(&query.unwrap()).to_soif_stream()
        }),
    );
    let config = || MetaConfig {
        max_sources: 1,
        ..MetaConfig::default()
    };
    let server = Server::new(
        Arc::clone(&net),
        catalog.clone(),
        config(),
        ServeConfig {
            query_workers: 1,
            cache_ttl: Duration::ZERO,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );
    let query = ranked(r#"list((body-of-text "databases"))"#);
    let ran_on = |search: &dyn Fn()| -> String {
        log.lock().unwrap().clear();
        search();
        let mut threads = log.lock().unwrap();
        assert_eq!(threads.len(), 1, "one exchange per search");
        threads.pop().unwrap()
    };
    let serve = |deadline_ms| {
        let outcome = server.search_with(&query, deadline_ms).unwrap();
        assert!(!outcome.response.merged.is_empty());
    };

    // Unpaced, no deadline (`Some(0)` is none): the caller, which
    // found the running slot free and led the wave.
    for deadline_ms in [None, Some(0)] {
        assert_eq!(ran_on(&|| serve(deadline_ms)), thread_name());
    }
    // A deadline, or a paced net: the dispatch pool.
    assert!(ran_on(&|| serve(Some(60_000))).starts_with("serve-dispatch-"));
    net.set_pacing(1);
    assert!(ran_on(&|| serve(None)).starts_with("serve-dispatch-"));

    // The metasearcher: a thread of its own when paced, the caller's
    // when not.
    let meta = Metasearcher::new(&net, catalog, config());
    let search = || assert!(!meta.search(&query).merged.is_empty());
    assert_ne!(ran_on(&search), thread_name());
    net.set_pacing(0);
    assert_eq!(ran_on(&search), thread_name());
}

/// A panicking endpoint is a failed source wherever its exchange runs —
/// on the caller leading an unpaced wave, or on the dispatch pool under
/// pacing — and the thread it ran on keeps serving.
#[test]
fn a_panicking_endpoint_fails_its_source_and_the_thread_that_ran_it_survives() {
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 10);
    wire(&net, "Food", &["cooking", "recipes"], 10);
    let catalog = discover(&net, &["DB", "Food"]);
    let url = catalog.entry("Food").unwrap().query_url().to_string();
    let log: ThreadLog = Arc::default();
    let seen = Arc::clone(&log);
    net.register(
        url,
        LinkProfile::default(),
        Arc::new(move |_req: &[u8]| -> Vec<u8> {
            seen.lock().unwrap().push(thread_name());
            panic!("endpoint blew up")
        }),
    );
    net.registry().reset();
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig::default(),
        ServeConfig {
            query_workers: 1,
            dispatch_workers: 1,
            cache_ttl: Duration::ZERO,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );

    let query = ranked(r#"list((body-of-text "text"))"#);
    let caller = thread_name();
    for (pacing, thread) in [(0, caller.as_str()), (1, "serve-dispatch-0")] {
        net.set_pacing(pacing);
        // With one thread of each kind, the second search proves the
        // thread that ran the first one's panic is still serving.
        for _ in 0..2 {
            let outcome = server.search(&query).unwrap();
            assert_eq!(outcome.via, Served::Executed);
            let status: HashMap<&str, SourceStatus> = outcome
                .response
                .completeness
                .iter()
                .map(|c| (c.source.as_str(), c.status))
                .collect();
            assert_eq!(status["Food"], SourceStatus::Failed);
            assert_eq!(status["DB"], SourceStatus::Complete);
            assert!(!outcome.response.merged.is_empty());
            assert!(!outcome.response.partial, "failure is not a timeout");
        }
        assert_eq!(*log.lock().unwrap(), [thread, thread], "pacing {pacing}");
        log.lock().unwrap().clear();
    }
    net.set_pacing(0);
    let snap = net.registry().snapshot();
    assert_eq!(
        snap.counter("meta.dispatch.panics", &[("source", "Food")]),
        4
    );
}

/// Merges like the stock merger until armed, then panics.
struct Tripwire(Arc<AtomicBool>);

impl Merger for Tripwire {
    fn name(&self) -> &'static str {
        "tripwire"
    }

    fn merge(&self, inputs: &[SourceResult]) -> Vec<MergedDoc> {
        assert!(!self.0.load(Ordering::SeqCst), "the merger blew up");
        NormalizedMerge.merge(inputs)
    }
}

/// The merger is the caller's code and runs on whichever thread leads
/// the wave. If it panics, the flight it was merging for ends in an
/// error for its leader and every follower; the key, the running slots
/// and the gauges are as if the query had never come.
#[test]
fn a_panicking_merger_fails_its_flight_and_nothing_else() {
    const PATIENCE: Duration = Duration::from_secs(10);
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 10);
    let (entered, pass) = wire_gated(&net, "Food", &["cooking", "recipes"]);
    let catalog = discover(&net, &["DB", "Food"]);
    net.registry().reset();
    let armed = Arc::new(AtomicBool::new(true));
    let server = Arc::new(Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig {
            merger: Box::new(Tripwire(Arc::clone(&armed))),
            ..MetaConfig::default()
        },
        ServeConfig {
            query_workers: 2,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    ));
    // Each search runs on a thread of its own and reports on a channel:
    // a caller nobody answers fails the test instead of hanging it.
    let ask = |word: &str| {
        let server = Arc::clone(&server);
        let query = ranked(&format!(r#"list((body-of-text "{word}"))"#));
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let outcome = server.search(&query);
            drop(server);
            tx.send(outcome)
        });
        rx
    };

    // The leader's wave stands at Food's gate when an identical query
    // arrives and joins its flight; then the wave completes and merges.
    let leader = ask("cooking");
    entered.recv_timeout(PATIENCE).expect("a wave at the gate");
    let follower = ask("cooking");
    let waiting = Instant::now();
    let coalesced = || {
        net.registry()
            .snapshot()
            .counter("serve.singleflight.coalesced", &[])
    };
    while coalesced() == 0 {
        assert!(waiting.elapsed() < PATIENCE, "the follower never joined");
        std::thread::yield_now();
    }
    pass.send(()).unwrap();
    for caller in [leader, follower] {
        let outcome = caller.recv_timeout(PATIENCE).expect("an answer");
        assert!(matches!(outcome, Err(ServeError::Internal)), "{outcome:?}");
    }

    // The flight is closed — the same query leads a new one — and both
    // running slots are free again: two waves stand at the gate at once.
    armed.store(false, Ordering::SeqCst);
    let callers = [ask("cooking"), ask("recipes")];
    for _ in &callers {
        entered.recv_timeout(PATIENCE).expect("a wave per worker");
    }
    for _ in &callers {
        pass.send(()).unwrap();
    }
    for caller in callers {
        let outcome = caller.recv_timeout(PATIENCE).expect("an answer");
        assert_eq!(outcome.expect("served").via, Served::Executed);
    }

    // Every caller has answered, so every leader has freed its slot.
    drop(Arc::try_unwrap(server).ok().expect("every caller is done"));
    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("serve.panics", &[]), 1);
    assert_eq!(snap.gauge("serve.inflight", &[]), 0.0);
}

/// A miss that finds a running slot free is led by its caller: nothing
/// is queued, the profile's `queue` stage reads 0 µs, and the running
/// slot is back before the answer is.
#[test]
fn a_miss_with_a_running_slot_free_is_led_by_its_caller() {
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 10);
    let catalog = discover(&net, &["DB"]);
    net.registry().reset();
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig::default(),
        ServeConfig {
            query_workers: 1,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );
    for word in ["databases", "queries"] {
        let outcome = server
            .search(&ranked(&format!(r#"list((body-of-text "{word}"))"#)))
            .unwrap();
        assert_eq!(outcome.via, Served::Executed);
        let profile = &outcome.wave.as_ref().expect("a miss runs a wave").profile;
        assert!(profile.is_consistent());
        assert_eq!(profile.find("queue").expect("a queue stage").duration_us, 0);
        // No pool bookkeeping trails the answer: the caller freed its
        // slot before it returned.
        let snap = net.registry().snapshot();
        assert_eq!(snap.gauge("serve.inflight", &[]), 0.0);
        assert_eq!(snap.gauge("serve.queue_depth", &[]), 0.0);
        assert_eq!(snap.counter("serve.queued", &[]), 0);
    }
}

/// A merger that panics on the caller's thread fails that query with
/// `Internal` and nothing else: the panic is counted, the running slot
/// is released, and the next miss is led by its caller again.
#[test]
fn a_merger_panicking_on_the_caller_releases_its_running_slot() {
    const PATIENCE: Duration = Duration::from_secs(10);
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 10);
    let catalog = discover(&net, &["DB"]);
    net.registry().reset();
    let armed = Arc::new(AtomicBool::new(true));
    let server = Arc::new(Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig {
            merger: Box::new(Tripwire(Arc::clone(&armed))),
            ..MetaConfig::default()
        },
        ServeConfig {
            query_workers: 1,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    ));
    // A leaked slot would queue the next miss behind a wave that never
    // ends: ask on a thread of its own so that fails instead of hanging.
    let ask = || {
        let server = Arc::clone(&server);
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let outcome = server.search(&ranked(r#"list((body-of-text "databases"))"#));
            drop(server);
            tx.send(outcome)
        });
        rx.recv_timeout(PATIENCE).expect("an answer")
    };

    assert_eq!(ask(), Err(ServeError::Internal));
    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("serve.panics", &[]), 1);
    assert_eq!(snap.gauge("serve.inflight", &[]), 0.0);

    armed.store(false, Ordering::SeqCst);
    assert_eq!(ask().expect("served").via, Served::Executed);
    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("serve.queued", &[]), 0, "both led by callers");
    assert_eq!(snap.counter("serve.panics", &[]), 1);
}

/// While a wave holds the only running slot, a second distinct miss
/// waits in the queue, and its caller leads it once the slot frees.
#[test]
fn a_miss_that_finds_every_slot_taken_waits_for_a_running_slot() {
    const PATIENCE: Duration = Duration::from_secs(10);
    let net = Arc::new(SimNet::new());
    let (entered, pass) = wire_gated(&net, "Food", &["cooking", "recipes"]);
    wire(&net, "DB", &["databases", "queries"], 10);
    let source = Source::build(SourceConfig::new("DB"), &docs(&["databases"], 12, "db"));
    let log: ThreadLog = Arc::default();
    let seen = Arc::clone(&log);
    net.register(
        "starts://db/query",
        LinkProfile::default(),
        Arc::new(move |request: &[u8]| -> Vec<u8> {
            seen.lock().unwrap().push(thread_name());
            let query = Query::from_soif_bytes(request, starts::soif::ParseMode::Lenient);
            source.execute(&query.unwrap()).to_soif_stream()
        }),
    );
    let catalog = discover(&net, &["DB", "Food"]);
    net.registry().reset();
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig {
            max_sources: 1,
            ..MetaConfig::default()
        },
        ServeConfig {
            query_workers: 1,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );
    let depth = || net.registry().snapshot().gauge("serve.queue_depth", &[]);

    std::thread::scope(|scope| {
        let server = &server;
        let holder = scope.spawn(move || {
            server
                .search(&ranked(r#"list((body-of-text "cooking"))"#))
                .unwrap()
        });
        entered.recv_timeout(PATIENCE).expect("a wave at the gate");
        let waiter = std::thread::Builder::new()
            .name("waiter".to_string())
            .spawn_scoped(scope, move || {
                server
                    .search(&ranked(r#"list((body-of-text "databases"))"#))
                    .unwrap()
            })
            .unwrap();
        let waiting = Instant::now();
        while depth() != 1.0 {
            assert!(waiting.elapsed() < PATIENCE, "the second miss never queued");
            std::thread::yield_now();
        }
        assert_eq!(net.registry().snapshot().gauge("serve.inflight", &[]), 1.0);
        assert!(log.lock().unwrap().is_empty(), "nothing ran it yet");

        pass.send(()).unwrap();
        assert_eq!(holder.join().unwrap().via, Served::Executed);
        let served = waiter.join().unwrap();
        assert_eq!(served.via, Served::Executed);
        assert_eq!(served.response.selected, ["DB"]);
        let queue = served.wave.as_ref().unwrap().profile.find("queue").cloned();
        assert!(queue.expect("a queue stage").duration_us > 0);
    });
    assert_eq!(*log.lock().unwrap(), ["waiter"]);
    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("serve.queued", &[]), 1);
    assert_eq!(snap.gauge("serve.queue_depth", &[]), 0.0);
    drop(server);
    assert_eq!(net.registry().snapshot().gauge("serve.inflight", &[]), 0.0);
}

/// The admission policy, one caller at a time: with the only running
/// slot taken, a full queue sheds its oldest waiter, and each slot that
/// frees goes to the newest waiter left — LIFO, so the request with the
/// most deadline left runs first.
#[test]
fn a_freed_slot_goes_to_the_newest_waiter_and_overflow_sheds_the_oldest() {
    const PATIENCE: Duration = Duration::from_secs(10);
    const WORDS: [&str; 3] = ["databases", "queries", "indexes"];
    let net = Arc::new(SimNet::new());
    let (entered, pass) = wire_gated(&net, "Food", &["cooking", "recipes"]);
    wire(&net, "DB", &WORDS, 10);
    let source = Source::build(SourceConfig::new("DB"), &docs(&WORDS, 12, "db"));
    // The term each exchange with DB asked for, in the order they ran.
    let log: Arc<Mutex<Vec<String>>> = Arc::default();
    let seen = Arc::clone(&log);
    net.register(
        "starts://db/query",
        LinkProfile::default(),
        Arc::new(move |request: &[u8]| -> Vec<u8> {
            let text = String::from_utf8_lossy(request);
            let term = WORDS.into_iter().find(|w| text.contains(w)).unwrap_or("");
            seen.lock().unwrap().push(term.to_string());
            let query = Query::from_soif_bytes(request, starts::soif::ParseMode::Lenient);
            source.execute(&query.unwrap()).to_soif_stream()
        }),
    );
    let catalog = discover(&net, &["DB", "Food"]);
    net.registry().reset();
    let server = Server::new(
        Arc::clone(&net),
        catalog,
        MetaConfig {
            max_sources: 1,
            ..MetaConfig::default()
        },
        ServeConfig {
            query_workers: 1,
            queue_capacity: 2,
            cache_ttl: Duration::ZERO,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );
    let queued = || net.registry().snapshot().counter("serve.queued", &[]);

    let (holder, waiters) = std::thread::scope(|scope| {
        let server = &server;
        let ask = |word: &'static str| {
            scope
                .spawn(move || server.search(&ranked(&format!(r#"list((body-of-text "{word}"))"#))))
        };
        let holder = ask("cooking");
        entered.recv_timeout(PATIENCE).expect("a wave at the gate");
        let waiters: Vec<_> = WORDS
            .into_iter()
            .enumerate()
            .map(|(i, word)| {
                let waiter = ask(word);
                let waiting = Instant::now();
                while queued() != i as u64 + 1 {
                    assert!(waiting.elapsed() < PATIENCE, "{word} never queued");
                    std::thread::yield_now();
                }
                waiter
            })
            .collect();
        pass.send(()).unwrap();
        let waiters: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        (holder.join().unwrap(), waiters)
    });
    assert_eq!(holder.expect("served").via, Served::Executed);
    assert_eq!(waiters[0], Err(ServeError::Shed));
    for waiter in &waiters[1..] {
        assert_eq!(waiter.as_ref().expect("served").via, Served::Executed);
    }
    assert_eq!(*log.lock().unwrap(), ["indexes", "queries"]);
    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("serve.shed", &[]), 1);
    assert_eq!(snap.gauge("serve.queue_depth", &[]), 0.0);
}

/// The five-vendor fleet, each vendor over its own slice of one
/// vocabulary, and 60 distinct queries against it: ranked, ranked under
/// a filter, and filter-only.
fn wire_fleet(net: &SimNet) -> (Vec<String>, Vec<Query>) {
    const WORDS: [&str; 6] = [
        "databases",
        "queries",
        "cooking",
        "recipes",
        "galaxies",
        "orbits",
    ];
    let mut ids = Vec::new();
    for (v, config) in vendors::fleet().into_iter().enumerate() {
        let words = [WORDS[v], WORDS[(v + 1) % 6], WORDS[(v + 3) % 6]];
        ids.push(config.id.to_lowercase());
        wire_source(
            net,
            Source::build(config, &docs(&words, 10 + 2 * v, &format!("v{v}"))),
            LinkProfile::default(),
        );
    }
    let term = |w: &str| format!(r#"(body-of-text "{w}")"#);
    let mut queries = Vec::new();
    for (i, a) in WORDS.iter().enumerate() {
        for b in &WORDS[i + 1..] {
            let ranking = parse_ranking(&format!("list({} {})", term(a), term(b))).unwrap();
            let filter = parse_filter(&format!("({} or {})", term(a), term("text"))).unwrap();
            let narrow = parse_filter(&format!("({} and {})", term(a), term(b))).unwrap();
            queries.push(Query {
                ranking: Some(ranking.clone()),
                ..Query::default()
            });
            queries.push(Query {
                filter: Some(filter),
                ranking: Some(ranking),
                ..Query::default()
            });
            queries.push(Query {
                filter: Some(narrow),
                ..Query::default()
            });
        }
    }
    queries.extend(WORDS.iter().map(|w| ranked(&format!("list({})", term(w)))));
    queries.extend(WORDS.iter().map(|w| Query {
        filter: Some(parse_filter(&term(w)).unwrap()),
        ..Query::default()
    }));
    // "Filler" words exist at every vendor but in few documents each.
    queries.extend((0..3).map(|i| ranked(&format!("list({})", term(&format!("filler{i}"))))));
    (ids, queries)
}

#[test]
fn pooled_wave_matches_the_scoped_metasearcher_and_ships_stock_slos() {
    let net = Arc::new(SimNet::new());
    let (ids, queries) = wire_fleet(&net);
    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    assert!(queries.len() >= 50);

    let scoped = Metasearcher::new(&net, discover(&net, &ids), MetaConfig::default());
    let server = Server::new(
        Arc::clone(&net),
        discover(&net, &ids),
        MetaConfig::default(),
        ServeConfig {
            query_workers: 1,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );
    let stage_names = |profile: &QueryProfile| -> Vec<String> {
        let stages = profile.root.children.iter();
        stages.map(|s| s.name.clone()).collect()
    };
    let mut ranked_docs = 0;
    for (i, query) in queries.iter().enumerate() {
        let scoped = scoped.search(query);
        let pooled = server.search(query).unwrap();
        assert_eq!(pooled.via, Served::Executed, "query {i}");
        let (report, pooled) = (pooled.wave.expect("led a wave"), &pooled.response);

        // One wave, led twice: the same sources asked, the same ones
        // answering, the same ranking to the bit.
        let rank = |merged: &[MergedDoc]| -> Vec<(String, u64, Vec<String>)> {
            let key = |d: &MergedDoc| (d.linkage.clone(), d.score.to_bits(), d.sources.clone());
            merged.iter().map(key).collect()
        };
        assert_eq!(rank(&scoped.merged), rank(&pooled.merged), "query {i}");
        assert_eq!(scoped.selected, pooled.selected, "query {i}");
        let answered = |per_source: &[SourceResult]| -> Vec<String> {
            let id = |r: &SourceResult| r.metadata.source_id.clone();
            per_source.iter().map(id).collect()
        };
        assert_eq!(
            answered(&scoped.per_source),
            answered(&report.per_source),
            "query {i}"
        );
        ranked_docs += pooled.merged.len();
        assert!(pooled
            .completeness
            .iter()
            .all(|c| c.status == SourceStatus::Complete));
        // The byte counts are left out: a request carries its trace
        // context (whose parent path names the caller's root span) and
        // a response the host's timings.
        let wire_free = |s: &QueryStats| {
            (
                s.requests,
                s.total_latency_ms,
                s.max_latency_ms,
                s.total_cost.to_bits(),
            )
        };
        assert_eq!(
            wire_free(&scoped.stats),
            wire_free(&report.stats),
            "query {i}"
        );

        // Both profiles keep the stage-containment invariant and name
        // the same stages, the pooled one telling the wait for a worker
        // apart from the work.
        assert!(scoped.profile.is_consistent() && report.profile.is_consistent());
        let pooled_stages = stage_names(&report.profile);
        assert_eq!(
            pooled_stages,
            ["select", "adapt", "queue", "dispatch", "merge"]
        );
        assert_eq!(
            stage_names(&scoped.profile),
            ["select", "adapt", "dispatch", "merge"]
        );
        for profile in [&scoped.profile, &report.profile] {
            let dispatch = profile.root.children.iter().find(|s| s.name == "dispatch");
            assert_eq!(dispatch.unwrap().children.len(), scoped.per_source.len());
        }
    }
    assert!(
        ranked_docs >= 10 * queries.len(),
        "the fleet barely answered"
    );

    // Serving metrics land on the shared registry, and the stock SLO
    // catalog covers the serving layer.
    let snap = net.registry().snapshot();
    assert!(snap.counter("serve.requests", &[]) >= 1);
    assert!(snap
        .histogram("serve.latency_us", &[])
        .is_some_and(|h| h.count >= 1));
    let slos = starts::obs::monitor::default_slos();
    for name in ["serve-p99", "serve-shed-rate"] {
        assert!(
            slos.iter().any(|s| s.name == name),
            "missing stock SLO {name}"
        );
    }
}

/// `health.*`, `recorder.*` and `engine.postings.*` describe the system
/// as a whole. Nothing on the query path exports them any more; they
/// must still reach every reader — `snapshot()` and a fetched `@SStats`
/// — with the right values, once each, even when a
/// `Server` and a `Metasearcher` share one net, one board and one
/// recorder.
#[test]
fn whole_system_gauges_are_collected_whenever_the_registry_is_sampled() {
    use starts::obs::{FlightRecorder, HealthBoard, MetricId};

    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 50);
    wire(&net, "Food", &["cooking", "recipes"], 50);
    let catalog = discover(&net, &["DB", "Food"]);
    // Orphans the instruments the hosts resolved at wiring time: the
    // per-source counters below only add up if they re-resolve.
    net.registry().reset();
    let health = Arc::new(HealthBoard::default());
    let recorder = Arc::new(FlightRecorder::default());
    let config = || MetaConfig {
        max_sources: 2,
        health: Arc::clone(&health),
        recorder: Arc::clone(&recorder),
        slow_budget_us: Some(60_000_000),
        ..MetaConfig::default()
    };
    let server = Server::new(
        Arc::clone(&net),
        catalog.clone(),
        config(),
        ServeConfig {
            cache_ttl: Duration::ZERO,
            hedge: hedge_off(),
            ..ServeConfig::default()
        },
    );
    let meta = Metasearcher::new(&net, catalog, config());
    let query = ranked(r#"list((body-of-text "text"))"#);
    assert_eq!(server.search(&query).unwrap().via, Served::Executed);
    meta.search(&query);

    let db_footprint = Source::build(
        SourceConfig::new("DB"),
        &docs(&["databases", "queries"], 12, "db"),
    )
    .engine()
    .postings_footprint();
    const DB: &[(&str, &str)] = &[("source", "DB")];
    const FOOD: &[(&str, &str)] = &[("source", "Food")];
    let expected = [
        // One exchange per source from each of the two searches.
        ("health.samples", DB, 2.0),
        ("health.samples", FOOD, 2.0),
        ("health.availability", DB, 1.0),
        ("health.latency_p50_ms", FOOD, 50.0),
        ("recorder.queries", &[], 2.0),
        ("recorder.slow_queries", &[], 0.0),
        ("recorder.budget_us", &[], 60_000_000.0),
        (
            "engine.postings.block_bytes",
            DB,
            db_footprint.block_bytes as f64,
        ),
        (
            "engine.postings.positional_bytes",
            DB,
            db_footprint.positional_bytes as f64,
        ),
        ("engine.stored.bytes", DB, db_footprint.stored_bytes as f64),
    ];
    assert!(
        db_footprint.block_bytes > 0
            && db_footprint.positional_bytes > 0
            && db_footprint.stored_bytes > 0
    );

    let snap = net.registry().snapshot();
    let stats = net.request("starts://db/stats", b"").unwrap();
    let fetched =
        starts::obs::Snapshot::from_soif_bytes(&stats.bytes, starts::soif::ParseMode::Strict)
            .unwrap();
    for (name, labels, value) in &expected {
        assert_eq!(
            snap.gauge(name, labels),
            *value,
            "snapshot {name} {labels:?}"
        );
        assert_eq!(
            fetched.gauge(name, labels),
            *value,
            "@SStats {name} {labels:?}"
        );
        for (reader, gauges) in [("snapshot", &snap.gauges), ("@SStats", &fetched.gauges)] {
            assert_eq!(
                gauges
                    .iter()
                    .filter(|g| g.id == MetricId::new(name, labels))
                    .count(),
                1,
                "{name} {labels:?} once per {reader}"
            );
        }
    }
    // The per-query side still counts: both searches reached both hosts.
    assert_eq!(snap.counter("source.queries", &[("source", "DB")]), 2);
    assert_eq!(snap.counter("source.queries", &[("source", "Food")]), 2);
}

/// The registry holds collectors weakly: a `Server`'s board and
/// recorder die with it and stop being exported, while the wired
/// sources (kept alive by the net) keep exporting theirs.
#[test]
fn dropping_the_server_stops_its_collectors() {
    let net = Arc::new(SimNet::new());
    wire(&net, "DB", &["databases", "queries"], 50);
    let catalog = discover(&net, &["DB"]);
    let config = MetaConfig::default();
    let board = Arc::downgrade(&config.health);
    let recorder = Arc::downgrade(&config.recorder);
    let server = Server::new(Arc::clone(&net), catalog, config, ServeConfig::default());
    server
        .search(&ranked(r#"list((body-of-text "text"))"#))
        .unwrap();
    let snap = net.registry().snapshot();
    assert_eq!(snap.gauge("health.samples", &[("source", "DB")]), 1.0);
    assert_eq!(snap.gauge("recorder.queries", &[]), 1.0);

    drop(server);
    assert!(board.upgrade().is_none(), "registry kept the board alive");
    assert!(
        recorder.upgrade().is_none(),
        "registry kept the recorder alive"
    );
    // Clear the last exported values: only live collectors repopulate.
    net.registry().reset();
    let snap = net.registry().snapshot();
    let families: Vec<&str> = snap.gauges.iter().map(|g| g.id.name.as_str()).collect();
    assert!(
        families
            .iter()
            .all(|n| !n.starts_with("health.") && !n.starts_with("recorder.")),
        "{families:?}"
    );
    assert!(
        families.contains(&"engine.postings.block_bytes"),
        "{families:?}"
    );
}
