//! X1 — Figure 1: the metasearch model.
//!
//! "A metasearcher queries a source, and may specify that the query be
//! evaluated at several sources at the same resource." This experiment
//! walks the figure: a client, a resource with two sources, a query sent
//! to Source 1 naming Source 2, and duplicate elimination inside the
//! resource — then verifies the client-side alternative (querying both
//! independently) yields duplicates the client cannot reliably merge.

use starts_bench::{header, section};
use starts_index::Document;
use starts_net::host::{wire_resource, wire_source};
use starts_net::{LinkProfile, SimNet, StartsClient};
use starts_proto::query::parse_ranking;
use starts_proto::{Field, Query};
use starts_source::{ResourceHost, Source, SourceConfig};

fn shared_doc() -> Document {
    Document::new()
        .field("title", "Shared Report on Distributed Databases")
        .field("body-of-text", "databases databases distributed shared")
        .field("linkage", "res://shared/tr-1")
}

fn collection(tag: &str) -> Vec<Document> {
    vec![
        Document::new()
            .field("title", format!("{tag} exclusive study"))
            .field("body-of-text", "databases indexing study".to_string())
            .field("linkage", format!("res://{tag}/a")),
        shared_doc(),
    ]
}

fn main() {
    header("X1  Figure 1 — the metasearch model (resource fan-out + dedup)");
    let net = SimNet::new();
    // The resource of Figure 1 with Source-1 and Source-2.
    wire_resource(
        &net,
        ResourceHost::new(vec![
            Source::build(SourceConfig::new("Source-1"), &collection("s1")),
            Source::build(SourceConfig::new("Source-2"), &collection("s2")),
        ]),
        "starts://resource",
        LinkProfile::default(),
    );
    // The same two collections as independent stand-alone sources.
    let mut solo1 = SourceConfig::new("Solo-1");
    solo1.base_url = "starts://solo-1".to_string();
    let mut solo2 = SourceConfig::new("Solo-2");
    solo2.base_url = "starts://solo-2".to_string();
    wire_source(
        &net,
        Source::build(solo1, &collection("s1")),
        LinkProfile::default(),
    );
    wire_source(
        &net,
        Source::build(solo2, &collection("s2")),
        LinkProfile::default(),
    );

    let client = StartsClient::new(&net);
    let resource = client.fetch_resource("starts://resource").unwrap();
    section("resource exports its source list (§4.3.3)");
    for (id, url) in &resource.sources {
        println!("   {id} -> {url}");
    }

    section("path A: one query to Source-1, naming Source-2 (Figure 1)");
    let query = Query {
        ranking: Some(parse_ranking(r#"list((body-of-text "databases"))"#).unwrap()),
        additional_sources: vec!["Source-2".to_string()],
        ..Query::default()
    };
    let merged = client.query("starts://source-1/query", &query).unwrap();
    println!(
        "   1 request, {} documents returned:",
        merged.documents.len()
    );
    for d in &merged.documents {
        println!(
            "     [{}] {}",
            d.sources.join("+"),
            d.field(&Field::Title).unwrap_or("?")
        );
    }
    let shared = merged
        .documents
        .iter()
        .find(|d| d.linkage() == Some("res://shared/tr-1"))
        .expect("shared doc present");
    println!(
        "   -> the shared report appears ONCE, attributed to {} sources",
        shared.sources.len()
    );
    assert_eq!(shared.sources.len(), 2);
    assert_eq!(merged.documents.len(), 3);

    section("path B: querying the two sources independently (no resource)");
    let plain = Query {
        ranking: Some(parse_ranking(r#"list((body-of-text "databases"))"#).unwrap()),
        ..Query::default()
    };
    let r1 = client.query("starts://solo-1/query", &plain).unwrap();
    let r2 = client.query("starts://solo-2/query", &plain).unwrap();
    let total = r1.documents.len() + r2.documents.len();
    println!(
        "   2 requests, {} + {} = {total} documents, shared report delivered TWICE",
        r1.documents.len(),
        r2.documents.len()
    );
    assert_eq!(total, 4);

    section("verdict");
    println!(
        "   resource-side evaluation saves {} duplicate document(s) and {} request(s),",
        total - merged.documents.len(),
        1
    );
    println!("   matching Figure 1's motivation for in-resource fan-out.");
}
