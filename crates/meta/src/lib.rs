#![warn(missing_docs)]

//! `starts-meta` — a metasearcher built on the STARTS protocol.
//!
//! §1: a metasearcher performs three tasks — "choosing the best sources
//! to evaluate a query, evaluating the query at these sources, and
//! merging the query results from these sources." This crate implements
//! all three, consuming exactly the information STARTS makes sources
//! export:
//!
//! * [`catalog`] — periodic discovery: resource listings, source
//!   metadata, content summaries, sample-database results (§3.4);
//! * [`cache`] — a TTL'd cache over those fetches, so "periodically"
//!   means one wire round-trip per source per refresh window;
//! * [`select`] — source selection from content summaries: bGlOSS and
//!   gGlOSS (the paper's refs \[7, 8\]), CORI (ref \[5\]), plus naive and
//!   cost-aware strategies (§3.3);
//! * [`adapt`] — client-side query adaptation per source capability,
//!   with the least-common-denominator strategy §4.1.1 warns about as a
//!   baseline (§3.1, refs \[3, 4\]);
//! * [`merge`] — rank merging: raw-score (broken), score-range
//!   normalized, Example 9's term-frequency re-ranking, global tf–idf
//!   re-ranking from TermStats, round-robin interleaving (ref \[6\]), and
//!   CORI-weighted merging (§3.2, §4.2);
//! * [`calibrate`] — black-box score calibration from
//!   `SampleDatabaseResults` (§4.2), including a first-class
//!   sample-calibrated merge strategy;
//! * [`eval`] — precision/recall/rank-correlation metrics against
//!   generator-known relevance;
//! * [`savvy`] — a SavvySearch-style learned selector (§5);
//! * [`pipeline`] — the stages of one metasearch, each runnable on its
//!   own (plan / per-source dispatch / merge);
//! * [`wave`] — one query's fan-out over those stages: attempts, hedges,
//!   the deadline, collection and merge, led the same way by the
//!   metasearcher and `starts-serve`: on the leading thread when nothing
//!   can end the wait early, else on scoped threads or a shared pool;
//! * [`metasearcher`] — the end-to-end pipeline over the simulated
//!   network, with latency/cost accounting.

pub mod adapt;
pub mod cache;
pub mod calibrate;
pub mod catalog;
pub mod eval;
pub mod merge;
pub mod metasearcher;
pub mod pipeline;
pub mod savvy;
pub mod select;
pub mod wave;

pub use cache::CatalogCache;
pub use catalog::{Catalog, CatalogEntry};
pub use merge::{MergeStats, MergedDoc, Merger, SourceResult};
pub use metasearcher::{MetaConfig, MetaResponse, Metasearcher, QueryStats};
pub use select::Selector;
