#![warn(missing_docs)]

//! `starts-source` — STARTS-conformant document sources and resources.
//!
//! A *source* is "a collection of text documents … with an associated
//! search engine that accepts queries from clients and produces results"
//! (§3). This crate wraps a [`starts_index::Engine`] behind the STARTS
//! protocol:
//!
//! * **capability enforcement** — each source declares which optional
//!   fields, modifiers and query parts it supports; queries are rewritten
//!   to the subset the source can execute, and the *actual query* is
//!   returned with the results (§4.2, Example 7);
//! * **result construction** — raw scores, `TermStats` (term frequency,
//!   term weight, document frequency), `DocSize`/`DocCount` per §4.2;
//! * **metadata export** — the `@SMetaAttributes` object, assembled from
//!   the engine's true configuration (stop list, tokenizer ids, ranking
//!   algorithm id, score range) (§4.3.1);
//! * **content-summary export** — automatically generated word/statistics
//!   lists, "orders of magnitude smaller than the original contents"
//!   (§4.3.2);
//! * **sample-database results** — query results over a fixed sample
//!   collection, the §4.2 black-box calibration hook;
//! * **resources** — groups of sources reachable through one member, with
//!   duplicate elimination (§3, Figure 1).
//!
//! [`vendors`] instantiates a fleet of deliberately heterogeneous source
//! personalities standing in for the paper's participating vendors.

pub mod config;
pub mod execute;
pub mod extensions;
pub mod resource;
pub mod rewrite;
pub mod sample;
pub mod source;
pub mod summary_gen;
pub mod translate;
pub mod vendors;

pub use config::SourceConfig;
pub use execute::SourceInstruments;
pub use resource::ResourceHost;
pub use source::Source;
