#![warn(missing_docs)]

//! **starts** — a complete Rust reproduction of *STARTS: Stanford
//! Proposal for Internet Meta-Searching* (Gravano, Chang, García-Molina,
//! Paepcke; SIGMOD 1997).
//!
//! STARTS is the protocol the Stanford Digital Library project brokered
//! between eleven search-engine vendors so that *metasearchers* could
//! perform their three tasks over heterogeneous sources:
//!
//! 1. **choose the best sources** for a query (from exported metadata
//!    and content summaries),
//! 2. **evaluate the query** at those sources (a common query language
//!    with per-source capability declarations), and
//! 3. **merge the results** (unnormalized scores plus the term/document
//!    statistics needed to re-rank without retrieving documents).
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`proto`] | `starts-proto` | the STARTS-1.0 protocol: query language, attribute sets, results, metadata, summaries, resources |
//! | [`soif`] | `starts-soif` | the Harvest SOIF wire encoding |
//! | [`text`] | `starts-text` | tokenizers, Porter stemmer, Soundex, stop lists, language tags |
//! | [`index`] | `starts-index` | the fielded positional inverted-index engine with pluggable rankers |
//! | [`source`] | `starts-source` | STARTS-conformant sources and resources |
//! | [`net`] | `starts-net` | the sessionless transport simulation |
//! | [`obs`] | `starts-obs` | spans, metrics, and the SOIF `@SStats` / `@SAlerts` wire form |
//! | [`meta`] | `starts-meta` | the metasearcher: selection, adaptation, merging, calibration |
//! | [`serve`] | `starts-serve` | the concurrent serving layer: executor pools, singleflight, result cache, hedged dispatch, deadlines |
//! | [`corpus`] | `starts-corpus` | synthetic corpora and workloads with known relevance |
//! | [`zdsr`] | `starts-zdsr` | the Z39.50/ZDSR bridge (filter expressions ⇄ PQF) |
//!
//! # Quickstart
//!
//! ```
//! use starts::index::Document;
//! use starts::net::{host::wire_source, LinkProfile, SimNet, StartsClient};
//! use starts::proto::{query::parse_ranking, Query};
//! use starts::source::{Source, SourceConfig};
//!
//! // 1. Build and publish a source.
//! let docs = vec![Document::new()
//!     .field("title", "Distributed Databases")
//!     .field("body-of-text", "replication and distributed databases processing")
//!     .field("linkage", "http://example.org/paper.ps")];
//! let net = SimNet::new();
//! let url = wire_source(&net, Source::build(SourceConfig::new("Demo"), &docs),
//!                       LinkProfile::default());
//!
//! // 2. Query it over the wire.
//! let client = StartsClient::new(&net);
//! let query = Query {
//!     ranking: Some(parse_ranking(r#"list((body-of-text "databases"))"#).unwrap()),
//!     ..Query::default()
//! };
//! let results = client.query(&url, &query).unwrap();
//! assert_eq!(results.documents.len(), 1);
//! assert_eq!(results.documents[0].linkage(), Some("http://example.org/paper.ps"));
//! ```

pub use starts_corpus as corpus;
pub use starts_index as index;
pub use starts_meta as meta;
pub use starts_net as net;
pub use starts_obs as obs;
pub use starts_proto as proto;
pub use starts_serve as serve;
pub use starts_soif as soif;
pub use starts_source as source;
pub use starts_text as text;
pub use starts_zdsr as zdsr;
