//! Acceptance test for the observability layer: one end-to-end
//! `Metasearcher::search` over the simulated network must produce a
//! metrics snapshot carrying select/adapt/dispatch/merge phase timings,
//! per-source latency histograms, and cost counters — and that snapshot
//! must export as a SOIF `@SStats` object that reads back losslessly.

use starts::corpus::{generate_corpus, generate_workload, CorpusConfig, WorkloadConfig};
use starts::meta::catalog::Catalog;
use starts::meta::metasearcher::{MetaConfig, Metasearcher};
use starts::net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts::obs::{export, Snapshot};
use starts::soif::ParseMode;
use starts::source::{Source, SourceConfig};

const N_SOURCES: usize = 4;

/// Wire a small corpus with per-source link profiles (one slow, one
/// priced) and return the discovered catalog.
fn searcher(net: &SimNet) -> (Metasearcher<'_>, starts::corpus::GeneratedCorpus) {
    let corpus = generate_corpus(&CorpusConfig {
        n_sources: N_SOURCES,
        docs_per_source: 30,
        n_topics: 2,
        background_vocab: 300,
        topic_vocab: 50,
        doc_len: (20, 50),
        topic_skew: 0.4,
        bilingual_fraction: 0.0,
        seed: 99,
    });
    let mut catalog = Catalog::default();
    let client = StartsClient::new(net);
    for (i, s) in corpus.sources.iter().enumerate() {
        let profile = LinkProfile {
            latency_ms: 20 * (i as u32 + 1),
            cost_per_query: if i == 0 { 1.5 } else { 0.0 },
        };
        wire_source(
            net,
            Source::build(SourceConfig::new(&s.id), &s.docs),
            profile,
        );
        catalog
            .discover_source(
                &client,
                &format!("starts://{}/metadata", s.id.to_lowercase()),
                profile,
                false,
            )
            .unwrap();
    }
    let meta = Metasearcher::new(
        net,
        catalog,
        MetaConfig {
            max_sources: N_SOURCES,
            max_results: 30,
            ..MetaConfig::default()
        },
    );
    (meta, corpus)
}

#[test]
fn search_snapshot_has_phases_latencies_and_costs_and_exports() {
    let net = SimNet::new();
    let (meta, corpus) = searcher(&net);
    let query = &generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 1,
            ..WorkloadConfig::default()
        },
    )
    .queries[0]
        .query;

    // Discovery traffic is accounting too; drop it so the assertions
    // below see exactly one search.
    net.registry().reset();
    let resp = meta.search(query);
    assert!(!resp.merged.is_empty(), "the query should find documents");

    let snap = net.registry().snapshot();

    // 1. Phase timings: every pipeline phase closed a span whose
    //    duration went into the span.duration_us family.
    for phase in ["select", "adapt", "dispatch", "merge"] {
        let path = format!("meta.search/{phase}");
        let h = snap
            .histogram("span.duration_us", &[("span", &path)])
            .unwrap_or_else(|| panic!("missing phase timing for {path}"));
        assert_eq!(h.count, 1, "{path} should have closed exactly once");
    }
    assert_eq!(
        snap.histogram("span.duration_us", &[("span", "meta.search")])
            .expect("root span timing")
            .count,
        1
    );

    // 2. Per-source latency histograms: one observation per contacted
    //    source, equal to the link's simulated round-trip.
    assert_eq!(resp.stats.requests, N_SOURCES as u64);
    for (i, s) in corpus.sources.iter().enumerate() {
        let h = snap
            .histogram("meta.source_latency_ms", &[("source", &s.id)])
            .unwrap_or_else(|| panic!("missing latency histogram for {}", s.id));
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 20 * (i as u64 + 1));
    }

    // 3. Cost counters: the priced link's tariff shows up in the
    //    network gauge, the aggregate gauge, and the returned stats.
    let query_url = format!("starts://{}/query", corpus.sources[0].id.to_lowercase());
    assert!((snap.gauge("net.cost", &[("url", &query_url)]) - 1.5).abs() < 1e-9);
    assert!((snap.gauge("meta.query_cost", &[]) - 1.5).abs() < 1e-9);
    assert!((resp.stats.total_cost - 1.5).abs() < 1e-9);
    assert_eq!(snap.counter("meta.searches", &[]), 1);
    assert!(snap.counter("meta.merge.candidates", &[]) >= resp.merged.len() as u64);

    // 4. SOIF export: @SStats through the real parser, losslessly.
    let bytes = snap.to_soif_bytes();
    let objects = starts::soif::parse(&bytes, ParseMode::Strict).unwrap();
    assert_eq!(objects.len(), 1);
    assert_eq!(objects[0].template, export::SSTATS_TEMPLATE);
    let back = Snapshot::from_soif_bytes(&bytes, ParseMode::Strict).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn metasearch_produces_one_query_profile_spanning_the_wire() {
    let net = SimNet::new();
    let (meta, corpus) = searcher(&net);
    let query = &generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 1,
            ..WorkloadConfig::default()
        },
    )
    .queries[0]
        .query;

    net.registry().reset();
    let resp = meta.search(query);
    assert!(resp.query_id.starts_with("q-"), "search assigns a query id");

    // One tree per query: a single meta.search root with the pipeline
    // phases under it.
    let profile = &resp.profile;
    assert_eq!(profile.query_id, resp.query_id);
    let root = &profile.root;
    assert_eq!(root.name, "meta.search", "{}", profile.render());
    for phase in ["select", "adapt", "dispatch", "merge"] {
        assert!(root.find(phase).is_some(), "missing {phase} under root");
    }

    // The dispatch stage fans out one worker per contacted source, and
    // each worker's subtree crosses the wire: the host-side
    // source.execute stage (with its rewrite/translate/execute phases)
    // is grafted under the client-side worker.
    let dispatch = root.find("dispatch").expect("dispatch stage");
    let workers: Vec<_> = dispatch
        .children
        .iter()
        .filter(|c| c.name == "source")
        .collect();
    assert_eq!(workers.len(), N_SOURCES, "one worker per source");
    for worker in &workers {
        let execute = worker
            .find("source.execute")
            .expect("host-side stage grafted under the client-side worker");
        for phase in ["rewrite", "translate", "execute"] {
            assert!(execute.find(phase).is_some(), "missing host phase {phase}");
        }
    }
    // The host-side spans still parent under the client-side worker
    // across the wire, so their paths and histograms read as one tree.
    let spans = net.registry().recent_spans();
    let host_spans = spans
        .iter()
        .filter(|e| e.path == "meta.search/dispatch/source/source.execute")
        .count();
    assert_eq!(host_spans, N_SOURCES, "one host span per source");

    // The critical path runs from the root through the slowest worker.
    let path = profile.critical_path();
    assert!(!path.is_empty());
    assert_eq!(path[0].name, "meta.search");
    let summary = profile.critical_path_summary();
    assert!(summary.contains("meta.search"), "summary: {summary}");

    // The health board saw every source succeed, and its gauges ride
    // the ordinary exporters.
    let snap = net.registry().snapshot();
    for s in &corpus.sources {
        let h = meta.config.health.health(&s.id).expect("health entry");
        assert_eq!(h.samples, 1);
        assert!((h.availability - 1.0).abs() < 1e-9);
        assert!(snap.gauge("health.score", &[("source", &s.id)]) > 0.0);
    }

    // The host serves its registry as @SStats on <base>/stats.
    let client = StartsClient::new(&net);
    let url = format!("starts://{}/stats", corpus.sources[0].id.to_lowercase());
    let stats = client.fetch_stats(&url).unwrap();
    assert!(stats.counter("source.queries", &[("source", &corpus.sources[0].id)]) >= 1);
}

#[test]
fn sharded_source_records_serial_shard_windows_and_metrics() {
    use starts::index::Document;
    use starts::proto::{query::parse_ranking, Query};

    let net = SimNet::new();
    let mut cfg = SourceConfig::new("Sharded");
    cfg.engine.shards = 2;
    // The test observes per-shard metrics, so it needs a physically
    // 2-shard layout regardless of the machine's core count.
    cfg.engine.shard_policy = starts::index::ShardPolicy::Exact;
    let docs: Vec<Document> = (0..10)
        .map(|i| {
            Document::new()
                .field("body-of-text", format!("databases shard doc {i}"))
                .field("linkage", format!("http://x/{i}"))
        })
        .collect();
    let source = Source::build(cfg, &docs);
    assert_eq!(source.engine().shard_count(), 2);
    let url = wire_source(&net, source, LinkProfile::default());

    let q = Query {
        ranking: Some(parse_ranking(r#"list("databases")"#).unwrap()),
        ..Query::default()
    };
    let traced = Query {
        trace: Some(starts::proto::TraceContext {
            query_id: "q-shards".to_string(),
            parent_path: "meta.search/dispatch/source".to_string(),
            parent_span_id: 1,
        }),
        ..q.clone()
    };
    let resp = net
        .request(&url, &starts::soif::write_object(&traced.to_soif()))
        .unwrap();

    // The shards run one after another, so the profile lays their
    // windows end to end inside the search stage.
    let results = starts::proto::QueryResults::from_soif_stream(&resp.bytes).unwrap();
    let profile = results.profile.expect("traced results carry a profile");
    assert!(profile.is_consistent(), "{}", profile.render());
    let (shard0, shard1) = (
        profile.find("shard-0").expect("shard-0 window"),
        profile.find("shard-1").expect("shard-1 window"),
    );
    assert!(
        shard1.start_us >= shard0.start_us + shard0.duration_us,
        "{}",
        profile.render()
    );

    // The shard counters land in the host registry, labeled by source
    // and shard count, with one latency observation per shard.
    let snap = net.registry().snapshot();
    assert_eq!(
        snap.counter(
            "engine.shard.searches",
            &[("source", "Sharded"), ("shards", "2")]
        ),
        1
    );
    let h = snap
        .histogram("engine.shard.latency_us", &[("source", "Sharded")])
        .expect("per-shard latency histogram");
    assert_eq!(h.count, 2, "one observation per shard");

    // @SStats carries the shard families.
    let back = Snapshot::from_soif_bytes(&snap.to_soif_bytes(), ParseMode::Strict);
    assert_eq!(back.unwrap(), snap);

    // A single-shard source counts its searches too.
    let mut cfg1 = SourceConfig::new("Mono");
    cfg1.engine.shards = 1;
    let mono = Source::build(cfg1, &docs);
    let url1 = wire_source(&net, mono, LinkProfile::default());
    net.registry().reset();
    net.request(&url1, &starts::soif::write_object(&q.to_soif()))
        .unwrap();
    let snap = net.registry().snapshot();
    assert_eq!(
        snap.counter(
            "engine.shard.searches",
            &[("source", "Mono"), ("shards", "1")]
        ),
        1,
        "shard.searches counts a 1-shard source"
    );
}

#[test]
fn prune_metrics_flow_through_stats() {
    use starts::index::Document;
    use starts::proto::{query::parse_ranking, Query};

    // A corpus built so pruning deterministically engages under the
    // Plain-1 (raw-tf) ranker: doc 0 scores (3+1)/2 = 2 and fills the
    // k=1 heap first, after which every alpha-only doc's upper bound
    // (≈ 1/2) sits strictly below the threshold and is skipped.
    let docs: Vec<Document> = std::iter::once("omega omega omega alpha")
        .chain(std::iter::repeat_n("alpha", 9))
        .enumerate()
        .map(|(i, body)| {
            Document::new()
                .field("body-of-text", body)
                .field("linkage", format!("http://x/{i}"))
        })
        .collect();
    let q = Query {
        ranking: Some(
            parse_ranking(r#"list((body-of-text "alpha") (body-of-text "omega"))"#).unwrap(),
        ),
        answer: starts::proto::AnswerSpec {
            max_documents: 1,
            ..starts::proto::AnswerSpec::default()
        },
        ..Query::default()
    };

    let net = SimNet::new();
    let mut cfg = SourceConfig::new("Pruned");
    cfg.engine.ranking_id = "Plain-1".to_string();
    cfg.engine.shards = 2;
    let url = wire_source(&net, Source::build(cfg, &docs), LinkProfile::default());
    let resp = net
        .request(&url, &starts::soif::write_object(&q.to_soif()))
        .unwrap();
    let results = starts::proto::QueryResults::from_soif_stream(&resp.bytes).unwrap();
    assert_eq!(results.documents.len(), 1);
    assert_eq!(results.documents[0].linkage(), Some("http://x/0"));

    // The host registry carries the prune counters and the per-query
    // pruned-fraction gauge, labeled by source.
    let snap = net.registry().snapshot();
    let labels = [("source", "Pruned")];
    let skipped = snap.counter("engine.prune.skipped_docs", &labels);
    assert!(skipped > 0, "pruning should have skipped alpha-only docs");
    assert!(snap.counter("engine.prune.threshold_updates", &labels) >= 1);
    let fraction = snap.gauge("engine.prune.fraction", &labels);
    assert!(
        fraction > 0.0 && fraction < 1.0,
        "pruned fraction should be a proper fraction, got {fraction}"
    );

    // The SOIF @SStats object carries the prune families, losslessly.
    let back = Snapshot::from_soif_bytes(&snap.to_soif_bytes(), ParseMode::Strict);
    assert_eq!(back.unwrap(), snap);

    // Skipping did not change the answer: doc 0's raw score is the
    // hand-computed (3 + 1) / 2.
    assert_eq!(results.documents[0].raw_score, Some(2.0));
}

#[test]
fn trace_unaware_exchanges_still_answer() {
    // §4.3 backward compatibility: a query carrying no XTraceContext —
    // or a garbage one — is answered exactly as before.
    let net = SimNet::new();
    let (_meta, corpus) = searcher(&net);
    let query = generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 1,
            ..WorkloadConfig::default()
        },
    )
    .queries[0]
        .query
        .clone();
    let url = format!("starts://{}/query", corpus.sources[0].id.to_lowercase());

    // Untraced baseline.
    let plain = net
        .request(&url, &starts::soif::write_object(&query.to_soif()))
        .unwrap();
    let baseline = starts::proto::QueryResults::from_soif_stream(&plain.bytes).unwrap();

    // Same query with a malformed trace attribute: ignored, not fatal.
    let mut obj = query.to_soif();
    obj.push_str("XTraceContext", "not a valid context at all");
    let resp = net
        .request(&url, &starts::soif::write_object(&obj))
        .unwrap();
    let results = starts::proto::QueryResults::from_soif_stream(&resp.bytes).unwrap();
    assert_eq!(results.documents.len(), baseline.documents.len());
}

#[test]
fn federated_search_returns_a_consistent_query_profile() {
    let net = SimNet::new();
    let (meta, corpus) = searcher(&net);
    let query = &generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 1,
            ..WorkloadConfig::default()
        },
    )
    .queries[0]
        .query;

    let resp = meta.search(query);
    let profile = &resp.profile;
    assert_eq!(profile.query_id, resp.query_id);
    assert_eq!(profile.root.name, "meta.search");

    // Stage costs sum consistently with their parents: every child
    // interval (including the host-side subtrees grafted in from the
    // wire) nests inside its parent's.
    assert!(profile.is_consistent(), "profile:\n{}", profile.render());

    // Client stages in pipeline order.
    let stages: Vec<&str> = profile
        .root
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(stages, ["select", "adapt", "dispatch", "merge"]);
    let select = profile.find("select").unwrap();
    let adapt = profile.find("adapt").unwrap();
    let dispatch = profile.find("dispatch").unwrap();
    let merge = profile.find("merge").unwrap();
    assert!(select.end_us() <= adapt.start_us, "phases run in order");
    assert!(adapt.end_us() <= dispatch.start_us);
    assert!(dispatch.end_us() <= merge.start_us);

    // The dispatch fan-out carries one worker stage per source, each
    // with the host's own XQueryProfile grafted under it: the §4.3
    // extension attribute crossed the wire and came back.
    let workers: Vec<_> = dispatch
        .children
        .iter()
        .filter(|c| c.name == "source")
        .collect();
    assert_eq!(workers.len(), N_SOURCES, "one worker per source");
    for worker in &workers {
        assert!(worker.meta_value("source").is_some());
        let host = worker
            .find("source.execute")
            .expect("host profile grafted under the client worker stage");
        for phase in ["rewrite", "translate", "execute"] {
            assert!(host.find(phase).is_some(), "missing host stage {phase}");
        }
        let execute = host.find("execute").unwrap();
        assert!(execute.meta_value("candidates").is_some());
        assert!(execute.find("search").is_some());
    }

    // The profile round-trips through its own wire encoding, and the
    // critical path starts at the root.
    let encoded = profile.encode();
    assert_eq!(
        starts::proto::QueryProfile::decode(&encoded).as_ref(),
        Some(profile)
    );
    assert_eq!(profile.critical_path()[0].name, "meta.search");

    // The flight recorder saw the query and its gauges rode the
    // registry exporters.
    assert_eq!(meta.config.recorder.recorded(), 1);
    let snap = net.registry().snapshot();
    assert!(snap.gauge("recorder.queries", &[]) >= 1.0);
    assert!(snap.gauge("recorder.last_total_us", &[]) > 0.0);
}

#[test]
fn query_profile_extension_is_backward_compatible() {
    // §4.3: trace-unaware exchanges carry no XQueryProfile bytes at
    // all, and a garbage XQueryProfile degrades to None, not an error.
    let net = SimNet::new();
    let (_meta, corpus) = searcher(&net);
    let query = generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 1,
            ..WorkloadConfig::default()
        },
    )
    .queries[0]
        .query
        .clone();
    let url = format!("starts://{}/query", corpus.sources[0].id.to_lowercase());

    // An untraced query produces a byte stream with no profile
    // attribute anywhere — byte-identical to the pre-profile protocol.
    let resp = net
        .request(&url, &starts::soif::write_object(&query.to_soif()))
        .unwrap();
    let text = String::from_utf8(resp.bytes.clone()).unwrap();
    assert!(
        !text.contains("XQueryProfile"),
        "untraced results must not grow a profile attribute"
    );
    let results = starts::proto::QueryResults::from_soif_stream(&resp.bytes).unwrap();
    assert!(results.profile.is_none());

    // A traced query *does* carry one, and it decodes. The context
    // rides on @SQuery only: the answer does not echo it.
    let mut traced = query.clone();
    traced.trace = Some(starts::proto::TraceContext {
        query_id: "q-test".to_string(),
        parent_path: "meta.search/dispatch/source".to_string(),
        parent_span_id: 7,
    });
    let request = starts::soif::write_object(&traced.to_soif());
    assert!(String::from_utf8_lossy(&request).contains("XTraceContext"));
    let resp = net.request(&url, &request).unwrap();
    let text = String::from_utf8_lossy(&resp.bytes);
    assert!(text.contains("XQueryProfile"), "{text}");
    assert!(!text.contains("XTraceContext"), "{text}");
    let results = starts::proto::QueryResults::from_soif_stream(&resp.bytes).unwrap();
    let profile = results.profile.expect("traced results carry a profile");
    assert_eq!(profile.query_id, "q-test");
    assert_eq!(profile.root.name, "source.execute");
    assert!(profile.is_consistent());

    // Garbage in the attribute position is ignored on decode.
    let mut header = starts::proto::QueryResults::default().header_soif();
    header.push_str("XQueryProfile", "not a profile \x01 at all");
    let bytes = starts::soif::write_object(&header);
    let results = starts::proto::QueryResults::from_soif_stream(&bytes).unwrap();
    assert!(results.profile.is_none(), "garbage degrades to None");
}

#[test]
fn slow_source_lands_in_the_flight_recorder_slow_log() {
    use std::sync::Arc;
    use std::time::Duration;

    let net = SimNet::new();
    let (meta, corpus) = searcher(&net);
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 3,
            ..WorkloadConfig::default()
        },
    )
    .queries;

    // A stable path (CI uploads it as an artifact when the test job
    // fails), cleared at the start of each run rather than the end so
    // a failing run leaves its evidence behind.
    let slow_log = std::path::PathBuf::from("target/slow_queries.jsonl");
    // `target/` is absent when the build directory lives elsewhere.
    std::fs::create_dir_all(slow_log.parent().unwrap()).unwrap();
    let _ = std::fs::remove_file(&slow_log);
    // A generous absolute budget: the simulated links only *account*
    // latency, so a healthy in-process search finishes in well under
    // 100ms of wall clock.
    meta.config.recorder.set_budget_us(100_000);
    meta.config.recorder.set_slow_log(&slow_log);

    let fast = meta.search(&queries[0].query);
    assert!(fast.profile.total_us() < 100_000, "healthy query is fast");
    assert_eq!(meta.config.recorder.slow_seen(), 0);

    // Degrade one source: replace its query endpoint with a handler
    // that stalls for real wall-clock time before answering.
    let source_id = corpus.sources[1].id.clone();
    let url = format!("starts://{}/query", source_id.to_lowercase());
    let slow_source = Arc::new(Source::build(
        SourceConfig::new(&source_id),
        &corpus.sources[1].docs,
    ));
    let obs = Arc::clone(net.registry());
    net.register(
        url,
        LinkProfile {
            latency_ms: 40,
            cost_per_query: 0.0,
        },
        Arc::new(move |request: &[u8]| {
            std::thread::sleep(Duration::from_millis(150));
            let parsed = starts::soif::parse_one(request, starts::soif::ParseMode::Lenient)
                .ok()
                .and_then(|o| starts::proto::Query::from_soif(&o).ok());
            match parsed {
                Some(q) => slow_source.execute_traced(&q, Some(&obs)).to_soif_stream(),
                None => starts::proto::QueryResults::default().to_soif_stream(),
            }
        }),
    );

    let slow = meta.search(&queries[1].query);
    assert!(slow.profile.total_us() >= 150_000, "the stall dominates");
    assert_eq!(meta.config.recorder.slow_seen(), 1);

    // The capture is drainable and blames the stalled source: the
    // critical path runs through its dispatch worker.
    let captured = meta.config.recorder.drain_slow();
    assert_eq!(captured.len(), 1);
    assert_eq!(captured[0].query_id, slow.query_id);
    let path = captured[0].critical_path_summary();
    assert!(path.contains("source"), "critical path: {path}");

    // The slow-log file carries one JSON line for the capture, naming
    // the query and its total cost.
    let logged = std::fs::read_to_string(&slow_log).expect("slow log written");
    let lines: Vec<&str> = logged.lines().collect();
    assert_eq!(lines.len(), 1);
    assert!(lines[0].contains(&slow.query_id));
    assert!(lines[0].contains("\"total_us\""));
    assert!(lines[0].contains("\"critical_path\""));

    // The recorder's gauges (including the slow count) are on the
    // shared registry, so any /stats endpoint sharing it serves them.
    let snap = net.registry().snapshot();
    assert!(snap.gauge("recorder.slow_queries", &[]) >= 1.0);
}

#[test]
fn alert_lifecycle_walks_pending_firing_resolved_end_to_end() {
    use std::sync::Arc;

    use starts::meta::select::{GGlossSum, HealthAware};
    use starts::obs::monitor::{
        Aspect, ManualClock, Monitor, MonitorConfig, SloOp, SloSpec, StoreConfig,
    };
    use starts::obs::{AlertState, HealthBoard};

    let corpus = generate_corpus(&CorpusConfig {
        n_sources: N_SOURCES,
        docs_per_source: 30,
        n_topics: 2,
        background_vocab: 300,
        topic_vocab: 50,
        doc_len: (20, 50),
        topic_skew: 0.4,
        bilingual_fraction: 0.0,
        seed: 99,
    });
    let victim = corpus.sources[1].id.clone();

    // Deterministic time: one simulated second per search.
    let clock = Arc::new(ManualClock::new(0));
    let board = Arc::new(HealthBoard::with_clock(4, 60_000, clock.clone()));
    let alerts_log = std::path::PathBuf::from("target/alerts_e2e.jsonl");
    std::fs::create_dir_all(alerts_log.parent().unwrap()).unwrap();
    let _ = std::fs::remove_file(&alerts_log);
    let monitor = Arc::new(Monitor::new(MonitorConfig {
        store: StoreConfig {
            step_ms: 1_000,
            retention: 128,
        },
        slos: vec![SloSpec {
            short_window: 2,
            long_window: 4,
            for_ms: 2_000,
            ..SloSpec::new(
                "source-error-rate",
                "health.error_rate",
                &[("source", "*")],
                Aspect::Value,
                SloOp::Lt,
                0.01,
            )
        }],
        clock: clock.clone(),
        log_path: Some(alerts_log.clone()),
        events_kept: 64,
    }));

    // The monitor goes into the net *before* wiring, so every source's
    // `<base>/alerts` endpoint serves it.
    let net = SimNet::new();
    net.set_monitor(Arc::clone(&monitor));
    let mut catalog = Catalog::default();
    let client = StartsClient::new(&net);
    for s in &corpus.sources {
        wire_source(
            &net,
            Source::build(SourceConfig::new(&s.id), &s.docs),
            LinkProfile::default(),
        );
        catalog
            .discover_source(
                &client,
                &format!("starts://{}/metadata", s.id.to_lowercase()),
                LinkProfile::default(),
                false,
            )
            .unwrap();
    }
    let meta = Metasearcher::new(
        &net,
        catalog,
        MetaConfig {
            selector: Box::new(HealthAware::new(GGlossSum, Arc::clone(&board))),
            max_sources: N_SOURCES,
            max_results: 30,
            health: Arc::clone(&board),
            ..MetaConfig::default()
        },
    );

    // Background words occur in every source, so every source scores
    // positive goodness and selection order reflects health alone.
    let query = {
        use starts::proto::query::ast::{QTerm, RankExpr};
        use starts::proto::{AnswerSpec, Field, Query};
        Query {
            ranking: Some(RankExpr::list_of(
                corpus.background[..2]
                    .iter()
                    .map(|t| QTerm::fielded(Field::BodyOfText, t.clone())),
            )),
            answer: AnswerSpec {
                fields: vec![Field::Title],
                max_documents: 10,
                ..AnswerSpec::default()
            },
            ..Query::default()
        }
    };
    let search = || {
        clock.advance(1_000);
        meta.search(&query)
    };

    // Phase 1 — healthy: the monitor samples but never makes a sound.
    for _ in 0..5 {
        search();
    }
    assert_eq!(monitor.events_total(), 0, "healthy run must stay silent");
    assert!(monitor.firing().is_empty());
    let snap = net.registry().snapshot();
    assert_eq!(snap.gauge("alerts.firing", &[]), 0.0);
    assert_eq!(
        snap.gauge(
            "slo.breaching",
            &[("slo", "source-error-rate"), ("source", &victim)]
        ),
        0.0
    );
    assert!(
        !alerts_log.exists() || std::fs::read_to_string(&alerts_log).unwrap().is_empty(),
        "no alert events logged while healthy"
    );

    // Phase 2 — degrade the victim: its query endpoint answers garbage.
    net.register(
        format!("starts://{}/query", victim.to_lowercase()),
        LinkProfile::default(),
        Arc::new(|_: &[u8]| b"HTTP/1.0 500 Internal Server Error".to_vec()),
    );
    search(); // first bad sample: breach begins -> pending
    let pending: Vec<_> = monitor
        .alerts()
        .into_iter()
        .filter(|a| a.state == AlertState::Pending)
        .collect();
    assert_eq!(pending.len(), 1, "one pending alert after the first breach");
    assert_eq!(pending[0].source.as_deref(), Some(&*victim));
    assert!(!monitor.is_source_firing(&victim), "for-duration holds it");

    search(); // breach persists (1s elapsed of the 2s for-duration)
    search(); // 2s elapsed: pending -> firing
    assert!(
        monitor.is_source_firing(&victim),
        "alert fires after for_ms"
    );

    // While the alert fires, the victim's board window is all failures,
    // so the selector — reading the board alone — demotes it to the
    // probe floor: it ranks last (but is still probed, so it can
    // recover).
    let resp = search();
    assert_eq!(resp.selected.len(), N_SOURCES);
    assert_eq!(
        resp.selected.last().map(String::as_str),
        Some(&*victim),
        "firing source is demoted to the bottom of the selection order"
    );

    // The firing alert is visible everywhere at once:
    // (a) over the wire, from any host's <base>/alerts endpoint;
    let fetched = client
        .fetch_alerts(&format!(
            "starts://{}/alerts",
            corpus.sources[0].id.to_lowercase()
        ))
        .expect("fetch_alerts");
    let firing = fetched.firing();
    assert_eq!(firing.len(), 1);
    assert_eq!(firing[0].source.as_deref(), Some(&*victim));
    assert!(
        fetched.events.iter().any(|e| e.state == AlertState::Firing),
        "the snapshot carries the transition history"
    );

    // (b) in the structured alerts.jsonl log;
    let logged = std::fs::read_to_string(&alerts_log).expect("alerts.jsonl written");
    assert!(logged.lines().any(|l| l.contains("\"pending\"")));
    assert!(logged.lines().any(|l| l.contains("\"firing\"")));
    assert!(logged.contains(&format!("\"source\":\"{victim}\"")));

    // (c) through the registry's @SStats.
    let snap = net.registry().snapshot();
    assert!(snap.gauge("alerts.firing", &[]) >= 1.0);
    assert_eq!(
        snap.gauge(
            "slo.breaching",
            &[("slo", "source-error-rate"), ("source", &victim)]
        ),
        1.0
    );
    let back = Snapshot::from_soif_bytes(&snap.to_soif_bytes(), ParseMode::Strict).unwrap();
    assert!(back.gauge("alerts.firing", &[]) >= 1.0);
    assert_eq!(
        back.gauge(
            "slo.breaching",
            &[("slo", "source-error-rate"), ("source", &victim)]
        ),
        1.0
    );

    // Phase 3 — re-wire the victim healthy; the probes it kept
    // receiving drain the health window and the alert resolves.
    wire_source(
        &net,
        Source::build(SourceConfig::new(&victim), &corpus.sources[1].docs),
        LinkProfile::default(),
    );
    for _ in 0..10 {
        search();
    }
    assert!(monitor.firing().is_empty(), "alert resolves after recovery");
    assert!(!monitor.is_source_firing(&victim));

    // The event history tells the whole story, in order, all about the
    // one victim.
    let events = monitor.recent_events();
    let states: Vec<AlertState> = events.iter().map(|e| e.state).collect();
    assert_eq!(
        states,
        [
            AlertState::Pending,
            AlertState::Firing,
            AlertState::Resolved
        ]
    );
    assert!(events.iter().all(|e| e.source.as_deref() == Some(&*victim)));
    let logged = std::fs::read_to_string(&alerts_log).unwrap();
    assert!(logged.lines().any(|l| l.contains("\"resolved\"")));

    // And the wire view agrees: nothing firing anywhere.
    let fetched = client
        .fetch_alerts(&format!(
            "starts://{}/alerts",
            corpus.sources[0].id.to_lowercase()
        ))
        .unwrap();
    assert!(fetched.firing().is_empty());
    assert_eq!(net.registry().snapshot().gauge("alerts.firing", &[]), 0.0);
}

#[test]
fn repeated_searches_accumulate_per_source_histograms() {
    let net = SimNet::new();
    let (meta, corpus) = searcher(&net);
    let workload = generate_workload(
        &corpus,
        &WorkloadConfig {
            n_queries: 5,
            ..WorkloadConfig::default()
        },
    );
    net.registry().reset();
    for gq in &workload.queries {
        meta.search(&gq.query);
    }
    let snap = net.registry().snapshot();
    assert_eq!(snap.counter("meta.searches", &[]), 5);
    for s in &corpus.sources {
        let h = snap
            .histogram("meta.source_latency_ms", &[("source", &s.id)])
            .expect("per-source histogram");
        assert_eq!(h.count, 5, "{} contacted once per search", s.id);
    }
    // The span ring holds 5 closings of each phase.
    let dispatches = net
        .registry()
        .recent_spans()
        .into_iter()
        .filter(|e| e.path == "meta.search/dispatch")
        .count();
    assert_eq!(dispatches, 5);
}
