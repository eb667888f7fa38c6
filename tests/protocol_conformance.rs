//! Protocol-conformance integration tests: every vendor personality in
//! the fleet must behave as a STARTS-1.0 source.

use starts::corpus::{generate_corpus, CorpusConfig};
use starts::index::Document;
use starts::proto::conformance::{check_metadata, MBASIC1_ATTRS};
use starts::proto::query::{parse_filter, parse_ranking, print_filter, print_ranking};
use starts::proto::{Query, QueryResults};
use starts::soif::{parse, write_object, ParseMode};
use starts::source::{vendors, Source};

fn fleet_sources() -> Vec<Source> {
    let corpus = generate_corpus(&CorpusConfig {
        n_sources: 1,
        docs_per_source: 30,
        seed: 77,
        ..CorpusConfig::default()
    });
    vendors::fleet()
        .into_iter()
        .map(|cfg| Source::build(cfg, &corpus.sources[0].docs))
        .collect()
}

#[test]
fn every_vendor_exports_conformant_metadata() {
    for source in fleet_sources() {
        let violations = check_metadata(source.metadata());
        assert!(violations.is_empty(), "{}: {:?}", source.id(), violations);
        // And the metadata object round-trips through SOIF.
        let bytes = source.metadata().to_soif_bytes();
        let objs = parse(&bytes, ParseMode::Strict).unwrap();
        assert_eq!(objs.len(), 1);
        // Every required MBasic-1 attribute has some representation.
        let text = String::from_utf8(bytes).unwrap();
        for (attr, required, _) in MBASIC1_ATTRS {
            if *required {
                // Attribute names in SOIF use either CamelCase or the
                // lowercase-hyphen form for the GILS-inherited ones.
                let lower = attr
                    .chars()
                    .flat_map(|c| {
                        if c.is_ascii_uppercase() {
                            vec!['-', c.to_ascii_lowercase()]
                        } else {
                            vec![c]
                        }
                    })
                    .collect::<String>();
                let lower = lower.trim_start_matches('-').to_string();
                assert!(
                    text.contains(&format!("{attr}{{")) || text.contains(&format!("{lower}{{")),
                    "{}: required attribute {attr} missing from @SMetaAttributes",
                    source.id()
                );
            }
        }
    }
}

#[test]
fn every_vendor_answers_with_actual_query() {
    let query = Query {
        filter: Some(parse_filter(r#"((author "Author") and (title stem "databases"))"#).unwrap()),
        ranking: Some(parse_ranking(r#"list((body-of-text "w0001"))"#).unwrap()),
        ..Query::default()
    };
    for source in fleet_sources() {
        let results = source.execute(&query);
        // The actual query must itself be valid STARTS syntax.
        if let Some(f) = &results.actual_filter {
            let printed = print_filter(f);
            assert!(parse_filter(&printed).is_ok(), "{}: {printed}", source.id());
        }
        if let Some(r) = &results.actual_ranking {
            let printed = print_ranking(r);
            assert!(
                parse_ranking(&printed).is_ok(),
                "{}: {printed}",
                source.id()
            );
        }
        // Capability consistency: filter-only sources never report a
        // ranking expression and vice versa.
        let parts = source.metadata().query_parts_supported;
        if !parts.supports_ranking() {
            assert!(results.actual_ranking.is_none(), "{}", source.id());
        }
        if !parts.supports_filter() {
            assert!(results.actual_filter.is_none(), "{}", source.id());
        }
        // The whole result stream survives the wire.
        let bytes = results.to_soif_stream();
        let back = QueryResults::from_soif_stream(&bytes).unwrap();
        assert_eq!(back, results, "{}", source.id());
    }
}

#[test]
fn linkage_always_returned() {
    // §4.1.2: the linkage (URL) of the documents "is always returned".
    let query = Query {
        ranking: Some(parse_ranking(r#"list((body-of-text "w0001"))"#).unwrap()),
        ..Query::default()
    };
    for source in fleet_sources() {
        let results = source.execute(&query);
        for d in &results.documents {
            assert!(
                d.linkage().is_some(),
                "{}: document without linkage",
                source.id()
            );
        }
    }
}

#[test]
fn content_summaries_are_honest() {
    // Whatever the summary's flags claim must match the engine: if it
    // says words are stemmed, looking up a stem must work; document
    // frequencies must never exceed NumDocs.
    for source in fleet_sources() {
        let summary = source.content_summary();
        assert_eq!(summary.num_docs, source.num_docs(), "{}", source.id());
        for section in &summary.sections {
            for t in &section.terms {
                if let Some(df) = t.doc_freq {
                    assert!(
                        df <= summary.num_docs,
                        "{}: df {} > NumDocs {}",
                        source.id(),
                        df,
                        summary.num_docs
                    );
                }
                if let (Some(tp), Some(df)) = (t.total_postings, t.doc_freq) {
                    assert!(
                        tp >= u64::from(df),
                        "{}: postings {} < df {}",
                        source.id(),
                        tp,
                        df
                    );
                }
            }
        }
    }
}

#[test]
fn summary_df_matches_actual_result_counts() {
    // The content summary is the metasearcher's crystal ball: a word's
    // exported df must equal the number of documents a filter query on
    // that word actually returns (for a source whose summary matches its
    // index pipeline).
    let corpus = generate_corpus(&CorpusConfig {
        n_sources: 1,
        docs_per_source: 40,
        seed: 31,
        ..CorpusConfig::default()
    });
    let source = Source::build(vendors::acme("A"), &corpus.sources[0].docs);
    let summary = source.content_summary();
    for word in ["w0001", "w0002", "w0003", "t0x001"] {
        let df = summary.df(Some("body-of-text"), word);
        let query = Query {
            filter: Some(parse_filter(&format!(r#"(body-of-text "{word}")"#)).unwrap()),
            ..Query::default()
        };
        let results = source.execute(&query);
        assert_eq!(
            results.documents.len() as u32,
            df,
            "summary df vs live result for {word:?}"
        );
    }
}

#[test]
fn document_text_field_supports_relevance_feedback_shape() {
    // The Document-text field exists to pass whole documents in queries
    // (§4.1.1). Sources that do not support it must drop such terms and
    // say so via the actual query.
    let source = Source::build(
        vendors::acme("A"),
        &[Document::new()
            .field("title", "alpha")
            .field("body-of-text", "alpha beta gamma")
            .field("linkage", "http://x/1")],
    );
    let q = Query {
        filter: Some(
            parse_filter(r#"((document-text "whole doc text here") or (title "alpha"))"#).unwrap(),
        ),
        ..Query::default()
    };
    let results = source.execute(&q);
    let actual = print_filter(results.actual_filter.as_ref().unwrap());
    assert_eq!(actual, r#"(title "alpha")"#);
    assert_eq!(results.documents.len(), 1);
}

/// §4.1.1 gives a term weight as "a number between 0 and 1", and `-0`
/// is that number's zero: a ranking that carries it on the wire is
/// answered byte for byte as the one carrying `0` — the echoed actual
/// query and every `RawScore` — never with a negatively-signed score.
#[test]
fn a_negative_zero_weight_answers_like_zero() {
    use starts::net::{host::wire_source, LinkProfile, SimNet};
    use starts::soif::SoifObject;
    use starts::source::SourceConfig;

    let docs: Vec<Document> = ["alpha beta", "beta gamma", "alpha"]
        .iter()
        .enumerate()
        .map(|(i, body)| {
            Document::new()
                .field("body-of-text", *body)
                .field("linkage", format!("http://x/{i}"))
        })
        .collect();
    let mut config = SourceConfig::new("Plain");
    config.engine.ranking_id = "Plain-1".to_string();
    let net = SimNet::new();
    let url = wire_source(&net, Source::build(config, &docs), LinkProfile::default());
    let answer = |weight: &str| {
        let mut request = SoifObject::new("SQuery");
        request
            .push_str("Version", "STARTS 1.0")
            .push_str("FilterExpression", r#"(body-of-text "beta")"#)
            .push_str(
                "RankingExpression",
                format!(r#"(body-of-text "alpha" {weight})"#),
            );
        net.request(&url, &write_object(&request)).unwrap().bytes
    };
    let zero = answer("0");
    let results = QueryResults::from_soif_stream(&zero).unwrap();
    assert_eq!(results.documents.len(), 2);
    assert!(results
        .documents
        .iter()
        .all(|d| d.raw_score.map(f64::to_bits) == Some(0.0_f64.to_bits())));
    assert_eq!(
        String::from_utf8(answer("-0")).unwrap(),
        String::from_utf8(zero).unwrap()
    );
}
