#![warn(missing_docs)]

//! A fielded, positional inverted-index search engine — the substrate
//! STARTS assumes under every *source*.
//!
//! The paper's metasearch problems exist because every vendor's engine is
//! different: different query models (Boolean vs. vector-space, §3.1),
//! secret and mutually incomparable ranking algorithms (§3.2), different
//! tokenizers, stemmers and stop lists. This crate therefore implements a
//! complete small search engine whose every axis of behaviour is
//! configurable, so a fleet of deliberately *heterogeneous* engines can be
//! instantiated:
//!
//! * fielded documents with per-field language tags (`title`, `author`,
//!   `body-of-text`, … — the engine is schema-agnostic; the STARTS field
//!   semantics live in `starts-source`),
//! * a block-compressed inverted index with an optional positional
//!   store (term positions feed the `prox` operator of §4.1.1; engines
//!   whose queries never consult positions drop the store entirely),
//! * Boolean evaluation: `and`, `or`, `and-not`, `prox[d,order]`,
//! * vector-space evaluation with *pluggable ranking algorithms*
//!   ([`ranking`]): tf–idf cosine (`Acme-1`), a vendor-scaled ranker whose
//!   top hit always scores 1000 (`Vendor-K`, the paper's §3.2 example), a
//!   BM25-style ranker (`Okapi-1`) and a raw-tf ranker (`Plain-1`),
//! * term-match expansion for the STARTS modifiers: stemming, Soundex,
//!   truncation, case sensitivity, comparison operators ([`matchspec`]),
//! * the per-document statistics STARTS results must carry: term
//!   frequency, term weight, document frequency, document size and token
//!   count (§4.2, Example 8).

pub mod blocks;
pub mod boolean;
pub mod doc;
pub mod engine;
mod filter;
pub mod index;
pub mod matchspec;
pub mod ranking;
pub mod schema;
pub mod sharded;
pub mod topk;

pub use blocks::{BlockCursor, BlockHeader, BlockPostings, BLOCK_DOCS};
pub use boolean::BoolNode;
pub use doc::{DocId, Document, FieldValue};
pub use engine::{
    Engine, EngineConfig, Hit, PruneReport, RankNode, ResolvedTerm, ShardPolicy, TermStat,
};
pub use index::{
    Index, IndexBuilder, PositionsMode, PostingsFootprint, PostingsIter, PostingsList, TermBounds,
};
pub use matchspec::{CmpOp, TermMatch, TermSpec};
pub use ranking::{ranking_by_id, RankingAlgorithm, ScoreRange};
pub use schema::{FieldId, Schema, ANY_FIELD};
pub use sharded::{CollectionStats, SearchOptions, ShardedEngine, ShardedTerm};
pub use topk::{merge_ranked, TopK};
