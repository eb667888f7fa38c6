//! Observability for the STARTS metasearch pipeline.
//!
//! The paper's metasearcher juggles per-source link profiles (§3.3),
//! query rewriting at uncooperative sources (§4.2), and a parallel
//! fan-out whose user-visible latency is the slowest link. This crate
//! makes those moving parts measurable without touching the protocol:
//!
//! * **Spans** — structured, nestable RAII timers
//!   (`span!(reg, "dispatch", source = id)`), aggregated into
//!   `span.duration_us` histograms per path and kept in a bounded ring
//!   of recent [`SpanEvent`]s;
//! * **Metrics** — lock-free [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s with p50/p95/p99 snapshots;
//! * **Telemetry wire form** — a snapshot as a SOIF-native `@SStats`
//!   object and the monitor's state as `@SAlerts` ([`export`]), each
//!   written and read by one body, straight off the wire
//!   ([`Snapshot::to_soif_bytes`] / [`Snapshot::from_soif_bytes`]);
//! * **Flight recorder** — [`FlightRecorder`] keeps the last N
//!   per-query cost profiles (`starts_proto::QueryProfile`, the one
//!   per-query tree, with its critical path) in a bounded ring, captures
//!   queries over a rolling p99 or an absolute budget into a JSONL
//!   slow-log, and exports `recorder.*` gauges; [`next_query_id`] mints
//!   the ids profiles carry;
//! * **Health** — a rolling per-source [`health::HealthBoard`]
//!   (availability, error rate, timeouts, latency quantiles, score)
//!   that exports as plain gauges so every exporter carries it; it is
//!   the one judge of a source for selection and hedging;
//! * **Monitoring** — [`monitor::Monitor`] samples snapshots into
//!   ring-buffered time series, evaluates SLO burn rates, and drives a
//!   pending → firing → resolved alert state machine with an
//!   `alerts.jsonl` event log and `alerts.*` / `slo.*` gauges, for
//!   operators.
//!
//! A [`Registry`] is cheap to share: `starts-net`'s `SimNet` owns one
//! in an `Arc` so that every test gets isolated accounting, and
//! [`Registry::global`] serves code with no registry at hand.

#![warn(missing_docs)]

pub mod export;
pub mod health;
pub mod metrics;
pub mod monitor;
pub mod profile;
pub mod registry;
pub mod span;

pub use health::{HealthBoard, SourceHealth, SourceOutcome};
pub use metrics::{Counter, Gauge, Histogram};
pub use monitor::{
    AlertState, AlertStatus, AlertsSnapshot, Clock, ManualClock, MetricStore, Monitor,
    MonitorConfig, SloSpec, SloStatus, SystemClock,
};
pub use profile::{next_query_id, FlightRecorder};
pub use registry::{
    Collector, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricId, Registry, Snapshot,
};
pub use span::{Span, SpanEvent, SpanHandle};
