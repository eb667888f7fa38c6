//! Publishing sources and resources on the simulated network.
//!
//! Each source serves the four URLs its metadata advertises:
//!
//! * `<base>/query` — POST an `@SQuery`, receive an `@SQResults` stream;
//! * `<base>/metadata` — receive the `@SMetaAttributes` object;
//! * `<base>/content-summary` — receive the `@SContentSummary` object;
//! * `<base>/sample-results` — receive the sample queries and their
//!   results, as alternating `@SQuery` / `@SQResults`-stream sections;
//! * `<base>/stats` — an admin endpoint returning the host's metric
//!   registry as an `@SStats` object (a §4.3-style extension: stats
//!   served in the protocol's own object model);
//! * `<base>/alerts` — an admin endpoint returning the network
//!   monitor's SLO and alert state as an `@SAlerts` object.
//!
//! A resource additionally serves `<resource-url>` → `@SResource`.
//! Queries submitted to a member's `/query` URL honour the query's
//! `AdditionalSources` by fanning out inside the resource (Figure 1).

use std::sync::Arc;

use parking_lot::RwLock;
use starts_proto::results::encode_sample;
use starts_proto::{Query, QueryResults};
use starts_source::{ResourceHost, Source};

use crate::sim::{LinkProfile, SimNet};

/// Serve an error-free empty result for malformed queries — STARTS has
/// no error channel (§4), so a source's only options are "execute what
/// you can" or "return nothing".
fn empty_results(source_id: &str) -> Vec<u8> {
    QueryResults {
        sources: vec![source_id.to_string()],
        ..QueryResults::default()
    }
    .to_soif_stream()
}

fn parse_query(request: &[u8]) -> Option<Query> {
    Query::from_soif_bytes(request, starts_soif::ParseMode::Lenient).ok()
}

/// Publish one stand-alone source. Returns the query URL.
pub fn wire_source(net: &SimNet, source: Source, profile: LinkProfile) -> String {
    let query_url = source.config().query_url();
    let source = Arc::new(source);

    wire_static(net, &source, profile);

    // The postings footprint is a fact about the source, not about any
    // query: exported when the registry is sampled. The endpoint table
    // below keeps the source alive for the collector.
    net.registry().register_collector(&source);

    {
        let source = Arc::clone(&source);
        let obs = Arc::clone(net.registry());
        // Per-source instruments, resolved here rather than per query;
        // replaced when a registry reset orphans them.
        let instruments = RwLock::new(Arc::new(source.instruments(&obs)));
        net.register(
            query_url.clone(),
            profile,
            Arc::new(move |request: &[u8]| {
                let Some(q) = parse_query(request) else {
                    return empty_results(source.id());
                };
                let mut current = Arc::clone(&instruments.read());
                if !current.is_current(&obs) {
                    current = Arc::new(source.instruments(&obs));
                    *instruments.write() = Arc::clone(&current);
                }
                source
                    .execute_instrumented(&q, &obs, &current)
                    .to_soif_stream()
            }),
        );
    }
    query_url
}

/// Publish a whole resource: every member source's endpoints (with
/// resource-level fan-out on the query endpoints) plus the resource
/// descriptor at `resource_url`.
pub fn wire_resource(
    net: &SimNet,
    host: ResourceHost,
    resource_url: impl Into<String>,
    profile: LinkProfile,
) {
    let descriptor_bytes = host.descriptor().to_soif_bytes();
    net.register(
        resource_url.into(),
        profile,
        Arc::new(move |_: &[u8]| descriptor_bytes.clone()),
    );
    let host = Arc::new(host);
    net.registry().register_collector(&host);
    // Per-member static endpoints, then fan-out-capable query endpoints.
    for source in host.sources() {
        wire_static(net, source, profile);
    }
    for source in host.sources() {
        let id = source.id().to_string();
        let url = source.config().query_url();
        let host = Arc::clone(&host);
        let obs = Arc::clone(net.registry());
        net.register(
            url,
            profile,
            Arc::new(move |request: &[u8]| match parse_query(request) {
                Some(q) => host
                    .execute_at_traced(&id, &q, Some(&obs))
                    .map(|r| r.to_soif_stream())
                    .unwrap_or_else(|| empty_results(&id)),
                None => empty_results(&id),
            }),
        );
    }
}

/// Register a source's static endpoints — its metadata, content summary
/// and sample results, each encoded once here — and its admin ones,
/// answered at request time so repeated polls see fresh numbers:
/// `stats`, an `@SStats` snapshot of the host's registry, and `alerts`,
/// the network monitor's SLO and alert state as an `@SAlerts` object.
/// Admin traffic rides the same link profile as the data endpoints. The
/// monitor is captured here — install a custom one with
/// `SimNet::set_monitor` *before* wiring hosts.
fn wire_static(net: &SimNet, source: &Source, profile: LinkProfile) {
    let base = &source.config().base_url;
    for (path, bytes) in [
        ("metadata", source.metadata().to_soif_bytes()),
        ("content-summary", source.content_summary().to_soif_bytes()),
        ("sample-results", encode_sample(&source.sample_results())),
    ] {
        let handler = move |_: &[u8]| bytes.clone();
        net.register(format!("{base}/{path}"), profile, Arc::new(handler));
    }
    let obs = Arc::clone(net.registry());
    let stats = move |_: &[u8]| obs.snapshot().to_soif_bytes();
    net.register(format!("{base}/stats"), profile, Arc::new(stats));
    let monitor = net.monitor();
    let alerts = move |_: &[u8]| monitor.snapshot_alerts().to_soif_bytes();
    net.register(format!("{base}/alerts"), profile, Arc::new(alerts));
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_index::Document;
    use starts_proto::query::parse_ranking;
    use starts_proto::results::decode_sample;
    use starts_source::SourceConfig;

    fn docs() -> Vec<Document> {
        vec![Document::new()
            .field("title", "Networked Retrieval")
            .field("body-of-text", "metasearch over databases")
            .field("linkage", "http://x/1")]
    }

    #[test]
    fn wired_source_serves_all_endpoints() {
        let net = SimNet::new();
        let source = Source::build(SourceConfig::new("S"), &docs());
        let query_url = wire_source(&net, source, LinkProfile::default());
        assert_eq!(query_url, "starts://s/query");
        for path in [
            "metadata",
            "content-summary",
            "sample-results",
            "query",
            "stats",
            "alerts",
        ] {
            assert!(net.knows(&format!("starts://s/{path}")), "{path} missing");
        }
        // Metadata parses.
        let r = net.request("starts://s/metadata", b"").unwrap();
        let m =
            starts_proto::SourceMetadata::from_soif_bytes(&r.bytes, starts_soif::ParseMode::Strict)
                .unwrap();
        assert_eq!(m.source_id, "S");
    }

    #[test]
    fn query_over_the_wire() {
        let net = SimNet::new();
        let source = Source::build(SourceConfig::new("S"), &docs());
        let url = wire_source(&net, source, LinkProfile::default());
        let q = Query {
            ranking: Some(parse_ranking(r#"list("databases")"#).unwrap()),
            ..Query::default()
        };
        let req = starts_soif::write_object(&q.to_soif());
        let resp = net.request(&url, &req).unwrap();
        let results = QueryResults::from_soif_stream(&resp.bytes).unwrap();
        assert_eq!(results.documents.len(), 1);
        assert_eq!(results.documents[0].linkage(), Some("http://x/1"));
    }

    #[test]
    fn stats_endpoint_serves_parseable_sstats() {
        let net = SimNet::new();
        let source = Source::build(SourceConfig::new("S"), &docs());
        let url = wire_source(&net, source, LinkProfile::default());
        // Generate some host-side accounting first.
        let q = Query {
            ranking: Some(parse_ranking(r#"list("databases")"#).unwrap()),
            ..Query::default()
        };
        net.request(&url, &starts_soif::write_object(&q.to_soif()))
            .unwrap();
        let resp = net.request("starts://s/stats", b"").unwrap();
        let obj = starts_soif::parse_one(&resp.bytes, starts_soif::ParseMode::Strict).unwrap();
        assert_eq!(obj.template, starts_obs::export::SSTATS_TEMPLATE);
        let snap =
            starts_obs::Snapshot::from_soif_bytes(&resp.bytes, starts_soif::ParseMode::Strict)
                .unwrap();
        assert_eq!(snap.counter("source.queries", &[("source", "S")]), 1);
    }

    #[test]
    fn alerts_endpoint_serves_parseable_salerts() {
        let net = SimNet::new();
        let source = Source::build(SourceConfig::new("S"), &docs());
        wire_source(&net, source, LinkProfile::default());
        let resp = net.request("starts://s/alerts", b"").unwrap();
        let obj = starts_soif::parse_one(&resp.bytes, starts_soif::ParseMode::Strict).unwrap();
        assert_eq!(obj.template, starts_obs::export::SALERTS_TEMPLATE);
        let snap = starts_obs::AlertsSnapshot::from_soif_bytes(
            &resp.bytes,
            starts_soif::ParseMode::Strict,
        )
        .unwrap();
        // A freshly wired net has nothing firing.
        assert!(snap.firing().is_empty());
    }

    #[test]
    fn malformed_query_gets_empty_results_not_an_error() {
        let net = SimNet::new();
        let source = Source::build(SourceConfig::new("S"), &docs());
        let url = wire_source(&net, source, LinkProfile::default());
        let resp = net.request(&url, b"this is not soif").unwrap();
        let results = QueryResults::from_soif_stream(&resp.bytes).unwrap();
        assert!(results.documents.is_empty());
    }

    #[test]
    fn sample_round_trip() {
        let samples = starts_source::sample::sample_results(&SourceConfig::new("S"));
        let bytes = encode_sample(&samples);
        let back = decode_sample(&bytes).unwrap();
        assert_eq!(back.len(), samples.len());
        for ((q1, r1), (q2, r2)) in samples.iter().zip(&back) {
            assert_eq!(q1, q2);
            assert_eq!(r1, r2);
        }
    }

    #[test]
    fn wired_resource_fans_out() {
        let net = SimNet::new();
        let s1 = Source::build(
            SourceConfig::new("R1"),
            &[Document::new()
                .field("body-of-text", "databases one")
                .field("linkage", "http://x/a")],
        );
        let s2 = Source::build(
            SourceConfig::new("R2"),
            &[Document::new()
                .field("body-of-text", "databases two")
                .field("linkage", "http://x/b")],
        );
        wire_resource(
            &net,
            ResourceHost::new(vec![s1, s2]),
            "starts://dialog",
            LinkProfile::default(),
        );
        // The descriptor is served.
        let r = net.request("starts://dialog", b"").unwrap();
        let desc =
            starts_proto::Resource::from_soif_bytes(&r.bytes, starts_soif::ParseMode::Strict)
                .unwrap();
        assert_eq!(desc.source_ids().count(), 2);
        // One query to R1 naming R2 reaches both members.
        let q = Query {
            ranking: Some(parse_ranking(r#"list("databases")"#).unwrap()),
            additional_sources: vec!["R2".to_string()],
            ..Query::default()
        };
        let req = starts_soif::write_object(&q.to_soif());
        let resp = net.request("starts://r1/query", &req).unwrap();
        let results = QueryResults::from_soif_stream(&resp.bytes).unwrap();
        assert_eq!(results.documents.len(), 2);
        assert_eq!(results.sources.len(), 2);
    }
}
