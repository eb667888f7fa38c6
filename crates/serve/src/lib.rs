//! The concurrent serving layer: a query executor over the metasearch
//! pipeline built for sustained multi-client load.
//!
//! [`Metasearcher::search`](starts_meta::Metasearcher) runs one query
//! for one caller — its exchanges on the caller's thread, or on one
//! scoped thread each over a paced network. [`Server`] runs the same
//! pipeline stages ([`starts_meta::pipeline`]) under a serving regime:
//!
//! * **Running slots, led by their callers** — at most `query_workers`
//!   dispatch waves run at once, and every one runs on the thread of
//!   the caller that missed: at once if it finds a running slot free,
//!   otherwise once it has waited its turn (bounded, newest first) and
//!   a slot frees. On an unpaced network with no deadline the leader
//!   runs the wave's exchanges itself; one fixed dispatch pool runs the
//!   exchanges of the other waves. No thread is ever spawned per
//!   query, and a query the result cache can answer waits for nothing:
//!   it is keyed and answered on its caller's thread, and under a
//!   selector that ranks from the catalog alone it is not planned
//!   either — only a miss selects and adapts.
//! * **Singleflight** — concurrent identical queries (same normalized
//!   query text; under a selector that reads state of its own, such as
//!   a health board, also the same selected source set) collapse into
//!   one dispatch wave; followers wait on the leader and share both its
//!   answer ([`ServeResponse`]) and its wave's report ([`WaveReport`]:
//!   raw per-source results, accounting, profile).
//! * **Result cache** — answers are cached under a TTL with per-source
//!   generation stamps: invalidating one source (say, after its content
//!   summary changed) stales — and reclaims — exactly the answers that
//!   consulted it, those of waves still in flight included. The cache
//!   keeps the answer only, the very `Arc` its wave's callers got; the
//!   wave's report is freed with their outcomes, and a hit carries none.
//! * **Hedged dispatch** — a source that has not answered within a
//!   health-derived delay (p95 × factor, floored) gets a backup
//!   request, optionally to a replica URL; the first response wins and
//!   the loser is cancelled. Cancellations never count against health.
//! * **Deadline-bounded partial results** — a query past its wall-clock
//!   budget cancels its stragglers and returns the merge of the sources
//!   that finished, flagged `partial: true` with per-source
//!   completeness.
//! * **Load shedding** — the callers waiting for a slot are bounded;
//!   under overload the oldest is shed (`ServeError::Shed`) and a freed
//!   slot wakes the newest (LIFO), keeping fresh requests inside their
//!   deadlines instead of serving a queue full of expired ones.
//!
//! Everything is observable on the shared registry as `serve.*`
//! metrics, and `serve-p99` / `serve-shed-rate` ship in
//! [`starts_obs::monitor::default_slos`].
//!
//! | module | contents |
//! |--------|----------|
//! | [`executor`] | [`Server`], admission, its dispatch pool, hedging and deadlines |
//! | [`flight`] | singleflight registry and response slots |
//! | [`cache`] | TTL + generation-stamped result cache |

pub mod cache;
pub mod executor;
pub mod flight;

pub use executor::{
    HedgeConfig, ServeConfig, ServeError, ServeOutcome, ServeResponse, Served, Server,
    SourceCompleteness, SourceStatus, WaveReport,
};
