//! Failure-injection tests: the metasearcher must degrade gracefully
//! when sources misbehave — STARTS has no error channel, so robustness
//! lives entirely on the client side.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use starts::index::Document;
use starts::meta::catalog::Catalog;
use starts::meta::metasearcher::{MetaConfig, Metasearcher};
use starts::net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts::proto::query::parse_ranking;
use starts::proto::{Query, QueryProfile};
use starts::source::{Source, SourceConfig};

fn good_source(net: &SimNet, id: &str, word: &str) -> String {
    let docs = vec![Document::new()
        .field("title", format!("{id} document"))
        .field("body-of-text", format!("{word} text content here"))
        .field("linkage", format!("http://{id}/doc"))];
    wire_source(
        net,
        Source::build(SourceConfig::new(id), &docs),
        LinkProfile::default(),
    )
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

#[test]
fn garbage_responding_source_is_skipped_not_fatal() {
    let net = SimNet::new();
    good_source(&net, "Good", "shared");
    good_source(&net, "Bad", "shared");
    let mut catalog = discover(&net, &["Good", "Bad"]);
    // After discovery, the Bad source starts answering queries with
    // garbage bytes (a crashed CGI, a proxy error page, …).
    net.register(
        "starts://bad/query",
        LinkProfile::default(),
        Arc::new(|_: &[u8]| b"HTTP/1.0 500 Internal Server Error".to_vec()),
    );
    catalog.entries.reverse(); // make Bad the first-ranked entry
    let meta = Metasearcher::new(
        &net,
        catalog,
        MetaConfig {
            max_sources: 2,
            ..MetaConfig::default()
        },
    );
    let resp = meta.search(&Query {
        ranking: Some(parse_ranking(r#"list((body-of-text "shared"))"#).unwrap()),
        ..Query::default()
    });
    // Both sources were selected, but only the good one contributed.
    assert_eq!(resp.selected.len(), 2);
    assert_eq!(resp.per_source.len(), 1);
    assert_eq!(resp.merged.len(), 1);
    assert_eq!(resp.merged[0].linkage, "http://Good/doc");
}

#[test]
fn vanished_source_is_skipped_not_fatal() {
    let net = SimNet::new();
    good_source(&net, "Alive", "topic");
    let mut catalog = discover(&net, &["Alive"]);
    // A second source was discovered earlier but its endpoint is gone
    // (the catalog is stale — §3.4's crawl is periodic, not live).
    let mut ghost = catalog.entries[0].clone();
    ghost.id = "Ghost".to_string();
    // The metadata is shared with the entry it was cloned from.
    let metadata = std::sync::Arc::make_mut(&mut ghost.metadata);
    metadata.source_id = "Ghost".to_string();
    metadata.linkage = "starts://ghost/query".to_string();
    catalog.entries.push(ghost);
    let meta = Metasearcher::new(
        &net,
        catalog,
        MetaConfig {
            max_sources: 2,
            ..MetaConfig::default()
        },
    );
    let resp = meta.search(&Query {
        ranking: Some(parse_ranking(r#"list((body-of-text "topic"))"#).unwrap()),
        ..Query::default()
    });
    assert_eq!(resp.per_source.len(), 1, "ghost must be skipped");
    assert!(!resp.merged.is_empty());
}

#[test]
fn half_garbled_result_stream_is_rejected_whole() {
    // A source that truncates its result stream mid-object: the client
    // treats the response as unusable (no partial-trust parsing of
    // protocol objects) and continues with other sources.
    let net = SimNet::new();
    good_source(&net, "Whole", "word");
    let truncated = {
        let docs = vec![Document::new()
            .field("body-of-text", "word word word")
            .field("linkage", "http://trunc/doc")];
        let source = Source::build(SourceConfig::new("Trunc"), &docs);
        let q = Query {
            ranking: Some(parse_ranking(r#"list((body-of-text "word"))"#).unwrap()),
            ..Query::default()
        };
        let mut bytes = source.execute(&q).to_soif_stream();
        bytes.truncate(bytes.len() / 2);
        bytes
    };
    // Wire Trunc's metadata endpoints from a healthy twin, then override
    // its query endpoint with the truncating responder.
    good_source(&net, "Trunc", "word");
    net.register(
        "starts://trunc/query",
        LinkProfile::default(),
        Arc::new(move |_: &[u8]| truncated.clone()),
    );
    let catalog = discover(&net, &["Whole", "Trunc"]);
    let meta = Metasearcher::new(
        &net,
        catalog,
        MetaConfig {
            max_sources: 2,
            ..MetaConfig::default()
        },
    );
    let resp = meta.search(&Query {
        ranking: Some(parse_ranking(r#"list((body-of-text "word"))"#).unwrap()),
        ..Query::default()
    });
    assert_eq!(resp.per_source.len(), 1);
    assert_eq!(resp.merged[0].sources, vec!["Whole".to_string()]);
}

#[test]
fn hostile_query_profile_is_dropped_not_a_failed_source() {
    // A host whose `XQueryProfile` claims a stage starting at u64::MAX:
    // the answer is good, only the extension attribute is not. Grafting
    // it would overflow the rebase onto the client's clock, so it is
    // dropped (§4.3) and the source's documents still count.
    let net = SimNet::new();
    good_source(&net, "Liar", "word");
    let hostile = {
        let docs = vec![Document::new()
            .field("body-of-text", "word word word")
            .field("linkage", "http://liar/doc")];
        let source = Source::build(SourceConfig::new("Liar"), &docs);
        let q = Query {
            ranking: Some(parse_ranking(r#"list((body-of-text "word"))"#).unwrap()),
            ..Query::default()
        };
        let mut results = source.execute(&q);
        results.profile = QueryProfile::decode("q-1\n0 18446744073709551615 5 x");
        assert!(results.profile.is_some(), "the hostile value decodes");
        results.to_soif_stream()
    };
    net.register(
        "starts://liar/query",
        LinkProfile::default(),
        Arc::new(move |_: &[u8]| hostile.clone()),
    );
    let catalog = discover(&net, &["Liar"]);
    let meta = Metasearcher::new(&net, catalog, MetaConfig::default());
    net.registry().reset();
    let resp = meta.search(&Query {
        ranking: Some(parse_ranking(r#"list((body-of-text "word"))"#).unwrap()),
        ..Query::default()
    });
    assert_eq!(resp.per_source.len(), 1, "the answer was kept");
    assert_eq!(resp.merged[0].linkage, "http://liar/doc");
    let snap = net.registry().snapshot();
    assert_eq!(
        snap.counter("meta.dispatch.panics", &[("source", "Liar")]),
        0
    );
    assert_eq!(
        snap.counter("meta.dispatch.failures", &[("source", "Liar")]),
        0
    );
    assert!(resp.profile.is_consistent(), "{}", resp.profile.render());
    let worker = resp.profile.find("source").expect("the worker stage");
    assert!(
        worker.children.is_empty(),
        "the hostile subtree is not grafted"
    );
}

#[test]
fn slow_source_does_not_block_accounting() {
    // Latency accounting: the wave is as slow as its slowest member, but
    // the response still arrives (the simulator never hangs).
    let net = SimNet::new();
    good_source(&net, "Fast", "xyz");
    good_source(&net, "Slow", "xyz");
    let mut catalog = discover(&net, &["Fast", "Slow"]);
    catalog.entries[1].link = LinkProfile {
        latency_ms: 5000,
        cost_per_query: 0.0,
    };
    let meta = Metasearcher::new(
        &net,
        catalog,
        MetaConfig {
            max_sources: 2,
            ..MetaConfig::default()
        },
    );
    let resp = meta.search(&Query {
        ranking: Some(parse_ranking(r#"list((body-of-text "xyz"))"#).unwrap()),
        ..Query::default()
    });
    assert_eq!(resp.wave_latency_ms, 5000);
    assert_eq!(resp.per_source.len(), 2);
}

#[test]
fn endpoint_replacement_is_atomic_under_concurrency() {
    // Re-registering an endpoint while requests fly must never produce a
    // torn response: every reply is entirely old or entirely new.
    let net = Arc::new(SimNet::new());
    net.register(
        "u",
        LinkProfile::default(),
        Arc::new(|_: &[u8]| vec![b'A'; 64]),
    );
    let flips = Arc::new(AtomicU32::new(0));
    std::thread::scope(|scope| {
        {
            let net = Arc::clone(&net);
            scope.spawn(move || {
                for i in 0..200 {
                    let byte = if i % 2 == 0 { b'B' } else { b'A' };
                    net.register(
                        "u",
                        LinkProfile::default(),
                        Arc::new(move |_: &[u8]| vec![byte; 64]),
                    );
                }
            });
        }
        for _ in 0..4 {
            let net = Arc::clone(&net);
            let flips = Arc::clone(&flips);
            scope.spawn(move || {
                for _ in 0..200 {
                    let r = net.request("u", b"x").unwrap();
                    assert_eq!(r.bytes.len(), 64);
                    let first = r.bytes[0];
                    assert!(r.bytes.iter().all(|&b| b == first), "torn response");
                    flips.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(flips.load(Ordering::Relaxed), 800);
}
