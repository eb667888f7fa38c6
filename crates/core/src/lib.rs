#![warn(missing_docs)]

//! `starts-proto` — the STARTS-1.0 protocol (Gravano, Chang,
//! García-Molina, Paepcke; SIGMOD 1997): the paper's primary contribution,
//! implemented in full.
//!
//! STARTS ("Stanford Protocol Proposal for Internet Retrieval and
//! Search") specifies *what information* sources and metasearchers
//! exchange so that the three metasearch tasks become possible:
//!
//! 1. **choosing the best sources** for a query — served by exported
//!    [source metadata](metadata) and [content summaries](summary);
//! 2. **evaluating the query** at those sources — served by the common
//!    [query language](query) (filter + ranking expressions over the
//!    Basic-1 [attribute set](attrs)) and per-source capability
//!    declarations;
//! 3. **merging the results** — served by [query results](results) that
//!    carry unnormalized scores *plus* the per-term statistics
//!    (term frequency, term weight, document frequency) and document
//!    statistics that let a metasearcher re-rank without retrieving
//!    documents (§4.2, Examples 8–9).
//!
//! All protocol objects have exact SOIF encodings (via [`starts_soif`])
//! matching the paper's `@SQuery`, `@SQResults`, `@SQRDocument`,
//! `@SMetaAttributes`, `@SContentSummary` and `@SResource` templates.
//!
//! The protocol is deliberately sessionless and stateless, and carries no
//! error-reporting channel (§4): a source that cannot execute part of a
//! query silently drops it and reports the *actual query* it ran with the
//! results (Example 7).

pub mod attrs;
pub mod codec;
pub mod conformance;
pub mod error;
pub mod lstring;
pub mod metadata;
pub mod profile;
pub mod query;
pub mod resource;
pub mod results;
pub mod summary;
pub mod trace;

pub use attrs::{Field, Modifier, ATTRSET_BASIC1, ATTRSET_MBASIC1};
pub use error::ProtoError;
pub use lstring::LString;
pub use metadata::{FieldModCombo, QueryParts, SourceMetadata};
pub use profile::{QueryProfile, StageCost, PROFILE_ATTR};
pub use query::{
    AnswerSpec, FilterExpr, ProxSpec, QTerm, Query, RankExpr, SortKey, SortOrder, WeightedTerm,
};
pub use resource::Resource;
pub use results::{QueryResults, ResultDocument, TermStatsEntry};
pub use summary::{ContentSummary, IndexedSummary, SummarySection, TermSummary};
pub use trace::{TraceContext, TRACE_ATTR};

/// The protocol version string carried in every object.
pub const VERSION: &str = starts_soif::STARTS_VERSION;
