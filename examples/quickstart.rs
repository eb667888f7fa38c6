//! Quickstart: one STARTS source, one query, over the (simulated) wire.
//!
//! Run with `cargo run --example quickstart`.
//!
//! This walks the protocol end to end exactly as the paper's Examples
//! 6–8 do: build a source, fetch its metadata, submit an `@SQuery`, and
//! read back the `@SQResults`/`@SQRDocument` stream — including the
//! *actual query* the source executed and the per-term statistics that
//! make rank merging possible.

use starts::index::Document;
use starts::net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts::proto::query::{parse_filter, parse_ranking};
use starts::proto::{AnswerSpec, Field, Query};
use starts::source::{Source, SourceConfig};

fn main() {
    // A small document collection, echoing the paper's running examples.
    let docs = vec![
        Document::new()
            .field(
                "title",
                "A Comparison Between Deductive and Object-Oriented Database Systems",
            )
            .field("author", "Jeffrey D. Ullman")
            .field(
                "body-of-text",
                "deductive databases and object-oriented databases compared; \
                 distributed databases briefly discussed",
            )
            .field("date-last-modified", "1996-03-31")
            .field("linkage", "http://www-db.stanford.edu/~ullman/pub/dood.ps"),
        Document::new()
            .field("title", "Database Research: Achievements and Opportunities")
            .field("author", "Avi Silberschatz, Mike Stonebraker, Jeff Ullman")
            .field(
                "body-of-text",
                "distributed databases distributed systems databases research \
                 agenda for databases into the next century",
            )
            .field("date-last-modified", "1996-09-15")
            .field("linkage", "http://elib.stanford.edu/lagunita.ps"),
        Document::new()
            .field("title", "Compilers: Principles and Techniques")
            .field("author", "Alfred Aho")
            .field("body-of-text", "lexing parsing and code generation")
            .field("date-last-modified", "1995-02-11")
            .field("linkage", "http://example.org/dragon.ps"),
    ];

    // Build the source and publish it on a simulated network.
    let net = SimNet::new();
    let source = Source::build(SourceConfig::new("Source-1"), &docs);
    let query_url = wire_source(&net, source, LinkProfile::default());
    let client = StartsClient::new(&net);

    // Every source exports metadata; a metasearcher reads it first.
    let metadata = client.fetch_metadata("starts://source-1/metadata").unwrap();
    println!("== Source metadata (@SMetaAttributes) ==");
    println!(
        "source: {} | ranking algorithm: {} | score range: {} .. {}",
        metadata.source_id,
        metadata.ranking_algorithm_id,
        metadata.score_range.0,
        metadata.score_range.1
    );
    println!(
        "stop words: {} | can disable: {}",
        metadata.stop_word_list.len(),
        metadata.turn_off_stop_words
    );
    println!();

    // The paper's Example 6 query: filter + ranking + answer spec.
    let query = Query {
        filter: Some(parse_filter(r#"((author "Ullman") and (title stem "databases"))"#).unwrap()),
        ranking: Some(
            parse_ranking(r#"list((body-of-text "distributed") (body-of-text "databases"))"#)
                .unwrap(),
        ),
        answer: AnswerSpec {
            fields: vec![Field::Title, Field::Author],
            min_doc_score: 0.0,
            max_documents: 10,
            ..AnswerSpec::default()
        },
        ..Query::default()
    };
    println!("== The query on the wire (@SQuery) ==");
    print!(
        "{}",
        String::from_utf8_lossy(&starts::soif::write_object(&query.to_soif()))
    );
    println!();

    let results = client.query(&query_url, &query).unwrap();
    println!("== Results ==");
    println!(
        "actual filter : {}",
        results
            .actual_filter
            .as_ref()
            .map(starts::proto::query::print_filter)
            .unwrap_or_else(|| "(none)".to_string())
    );
    println!(
        "actual ranking: {}",
        results
            .actual_ranking
            .as_ref()
            .map(starts::proto::query::print_ranking)
            .unwrap_or_else(|| "(none)".to_string())
    );
    for doc in &results.documents {
        println!(
            "  score {:>7.4}  {}  ({})",
            doc.raw_score.unwrap_or(0.0),
            doc.field(&Field::Title).unwrap_or("?"),
            doc.linkage().unwrap_or("?"),
        );
        for ts in &doc.term_stats {
            println!(
                "      term {:<28} tf {:>3}  weight {:.4}  df {:>3}",
                starts::proto::query::print_term(&ts.term),
                ts.term_frequency,
                ts.term_weight,
                ts.document_frequency
            );
        }
    }
    println!();
    println!(
        "network: {} requests, {} ms simulated latency",
        client.net().stats().requests,
        client.net().stats().total_latency_ms
    );
    println!();

    // == Federated search, with observability ==
    //
    // Publish two more libraries, discover all three, and run the same
    // ranking through the metasearcher. The SimNet's registry has been
    // recording the whole time; after the federated query we print the
    // aggregate QueryStats and the metrics snapshot.
    let more = [
        Document::new()
            .field(
                "title",
                "Mediators in the Architecture of Future Information Systems",
            )
            .field("author", "Gio Wiederhold")
            .field(
                "body-of-text",
                "mediated architectures over distributed databases",
            )
            .field("linkage", "http://example.org/mediators.ps"),
        Document::new()
            .field("title", "Querying Heterogeneous Information Sources")
            .field("author", "Hector Garcia-Molina")
            .field(
                "body-of-text",
                "querying distributed heterogeneous databases with tsimmis",
            )
            .field("linkage", "http://example.org/tsimmis.ps"),
    ];
    wire_source(
        &net,
        Source::build(SourceConfig::new("Source-2"), &more[..1]),
        LinkProfile {
            latency_ms: 80,
            cost_per_query: 0.25,
        },
    );
    wire_source(
        &net,
        Source::build(SourceConfig::new("Source-3"), &more[1..]),
        LinkProfile::default(),
    );
    let mut catalog = starts::meta::Catalog::default();
    for (id, profile) in [
        ("source-1", LinkProfile::default()),
        (
            "source-2",
            LinkProfile {
                latency_ms: 80,
                cost_per_query: 0.25,
            },
        ),
        ("source-3", LinkProfile::default()),
    ] {
        catalog
            .discover_source(&client, &format!("starts://{id}/metadata"), profile, false)
            .unwrap();
    }
    let meta = starts::meta::Metasearcher::new(&net, catalog, starts::meta::MetaConfig::default());
    let federated = Query {
        ranking: query.ranking.clone(),
        answer: query.answer.clone(),
        ..Query::default()
    };
    let resp = meta.search(&federated);
    println!("== Federated search over 3 sources ==");
    for doc in resp.merged.iter().take(5) {
        println!(
            "  score {:>7.4}  {}  [{}]",
            doc.score,
            doc.linkage,
            doc.sources.join(", ")
        );
    }
    println!();
    println!("== Query statistics (actual exchanges) ==");
    println!(
        "requests: {} | summed link latency: {} ms (parallel wall clock: slowest link, {} ms) | cost: {} | {} B sent, {} B received",
        resp.stats.requests,
        resp.stats.total_latency_ms,
        resp.stats.max_latency_ms,
        resp.stats.total_cost,
        resp.stats.bytes_sent,
        resp.stats.bytes_received,
    );
    println!();

    // The metasearcher ticks the net's continuous monitor after every
    // search: the stock SLOs (meta.search p99, per-source error rate)
    // are already being watched.
    println!("== SLO summary (continuous monitoring) ==");
    println!("{}", net.monitor().summary_line());
    println!();

    // EXPLAIN: the per-query cost tree, client stages with each
    // source's own stage costs grafted in over the wire.
    println!("== EXPLAIN (QueryProfile cost tree) ==");
    print!("{}", resp.profile.render());
    println!("critical path: {}", resp.profile.critical_path_summary());
    println!();

    // The registry snapshot: phase timings, per-source latencies, costs.
    let snap = net.registry().snapshot();
    println!("== Metrics snapshot as SOIF (@SStats, excerpt) ==");
    let soif = snap.to_soif_bytes();
    for line in String::from_utf8_lossy(&soif).lines().take(8) {
        println!("{line}");
    }
    println!("...");
}
