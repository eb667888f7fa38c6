//! The stages of one metasearch, each runnable on its own.
//!
//! * [`plan`] — selection + adaptation, producing fully *owned*
//!   [`DispatchTask`]s that any thread (outliving the query or not) can
//!   run;
//! * [`run_task`] — the per-source dispatch body: trace-context
//!   propagation, the wire exchange (cancellable), health recording,
//!   and the per-worker [`StageCost`] with the host's `XQueryProfile`
//!   grafted in when it fits the worker's window;
//! * [`merge_stage`] — the bounded merge with its dedup accounting.
//!
//! [`crate::wave`] composes them into a query's fan-out: which attempt
//! runs when, which one decides its source, and what is merged.
//!
//! The stages share one explicit clock (`t0`): every [`StageCost`]
//! offset is relative to it, so a profile assembled from stage pieces
//! keeps the containment invariant `QueryProfile::is_consistent` checks.

use std::sync::Arc;
use std::time::Instant;

use starts_net::{CancelToken, Exchange, StartsClient};
use starts_obs::{HealthBoard, Registry, SourceOutcome, SpanHandle};
use starts_proto::{Query, SourceMetadata, StageCost, TraceContext};

use crate::adapt::{adapt_query, least_common_denominator};
use crate::catalog::Catalog;
use crate::merge::{MergeStats, MergedDoc, Merger, SourceResult};
use crate::metasearcher::{AdaptMode, MetaConfig};

/// Everything one per-source dispatch needs, fully owned: the serving
/// layer runs these on pool workers that may outlive the query that
/// planned them (a deadline-abandoned straggler keeps running until its
/// cancellation token is honoured).
#[derive(Debug, Clone)]
pub struct DispatchTask {
    /// Index of the source in the planning catalog (slot order).
    pub entry_index: usize,
    /// The source id.
    pub id: String,
    /// The query URL to dispatch to.
    pub url: String,
    /// The source's metadata, shared with the catalog entry (carried
    /// into the [`SourceResult`]).
    pub metadata: Arc<SourceMetadata>,
    /// Selection belief normalized into `[0, 1]` (consumed by
    /// weighted merging).
    pub weight: f64,
    /// The adapted query for this source.
    pub query: Query,
}

/// The outcome of [`plan`]: which sources to contact, with what
/// queries, plus the quoted accounting and the select/adapt stage
/// costs for the query profile.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Ids of the selected sources, in selection order.
    pub selected: Vec<String>,
    /// One owned dispatch task per selected source, in selection order.
    pub tasks: Vec<DispatchTask>,
    /// Quoted wall-clock latency of the parallel fan-out: the max
    /// selected link latency (from the catalog's link profiles).
    pub wave_latency_ms: u32,
    /// Quoted total monetary cost of the wave.
    pub total_cost: f64,
    /// The `select` stage cost (offsets relative to the plan's `t0`).
    pub select_stage: StageCost,
    /// The `adapt` stage cost.
    pub adapt_stage: StageCost,
}

/// Why a dispatch task produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskError {
    /// The task's cancellation token tripped mid-flight (a hedge won,
    /// or the query's deadline expired). Not counted against the
    /// source's health.
    Cancelled,
    /// The exchange failed (transport or protocol error). Recorded as a
    /// health failure and a `meta.dispatch.failures` count.
    Failed,
}

/// One successful per-source dispatch.
#[derive(Debug, Clone)]
pub struct TaskSuccess {
    /// The source's contribution to the merge.
    pub result: SourceResult,
    /// The exchange accounting (latency, cost, bytes).
    pub exchange: Exchange,
    /// The per-worker `source` stage, with the host's own profile
    /// grafted under it.
    pub stage: StageCost,
}

/// Microseconds since the query's clock started.
pub(crate) fn elapsed_us(t0: Instant) -> u64 {
    t0.elapsed().as_micros() as u64
}

/// Stage 1+2: select sources and adapt the query per source.
///
/// Runs on the calling thread (selection and adaptation never touch the
/// wire), opening `select` and `adapt` spans that nest under whatever
/// span the caller holds open. Consumes only the strategy fields of
/// [`MetaConfig`] (`selector`, `adapt`, `max_sources`).
pub fn plan(
    catalog: &Catalog,
    config: &MetaConfig,
    query: &Query,
    obs: &Registry,
    t0: Instant,
) -> QueryPlan {
    // 1. Select sources.
    let select_start = elapsed_us(t0);
    let chosen: Vec<(usize, f64)> = {
        let _span = obs.span("select");
        let owned_terms = crate::Metasearcher::selection_terms(query);
        let terms: Vec<(Option<&str>, &str)> = owned_terms
            .iter()
            .map(|(f, t)| (f.as_deref(), t.as_str()))
            .collect();
        config
            .selector
            .rank(catalog, &terms)
            .into_iter()
            .take(config.max_sources.max(1))
            .collect()
    };
    let select_end = elapsed_us(t0);
    let selected: Vec<String> = chosen
        .iter()
        .map(|(i, _)| catalog.entries[*i].id.clone())
        .collect();

    // 2. Adapt queries.
    let adapt_start = elapsed_us(t0);
    let max_belief = chosen
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::MIN, f64::max)
        .max(1e-12);
    let tasks: Vec<DispatchTask> = {
        let _span = obs.span("adapt");
        let lcd_query = if config.adapt == AdaptMode::Lcd {
            let metas: Vec<&SourceMetadata> = chosen
                .iter()
                .map(|(i, _)| &*catalog.entries[*i].metadata)
                .collect();
            Some(least_common_denominator(query, &metas))
        } else {
            None
        };
        chosen
            .iter()
            .map(|&(i, score)| {
                let entry = &catalog.entries[i];
                let q = match config.adapt {
                    AdaptMode::Verbatim => query.clone(),
                    AdaptMode::PerSource => adapt_query(query, &entry.metadata, &entry.summary),
                    AdaptMode::Lcd => lcd_query.clone().expect("computed above"),
                };
                DispatchTask {
                    entry_index: i,
                    id: entry.id.clone(),
                    url: entry.query_url().to_string(),
                    metadata: Arc::clone(&entry.metadata),
                    weight: (score / max_belief).clamp(0.0, 1.0),
                    query: q,
                }
            })
            .collect()
    };
    let adapt_end = elapsed_us(t0);

    // Quoted accounting: the wave runs concurrently, so the
    // user-visible latency is the slowest selected link; costs add up.
    let wave_latency_ms = chosen
        .iter()
        .map(|(i, _)| catalog.entries[*i].link.latency_ms)
        .max()
        .unwrap_or(0);
    let total_cost: f64 = chosen
        .iter()
        .map(|(i, _)| catalog.entries[*i].link.cost_per_query)
        .sum();

    QueryPlan {
        selected,
        tasks,
        wave_latency_ms,
        total_cost,
        select_stage: StageCost::new(
            "select",
            select_start,
            select_end.saturating_sub(select_start),
        )
        .with_meta("chosen", chosen.len()),
        adapt_stage: StageCost::new("adapt", adapt_start, adapt_end.saturating_sub(adapt_start)),
    }
}

/// Stage 3, per source: one dispatch exchange, runnable on any thread.
///
/// Opens a `source` span under `parent` (the dispatch span's handle),
/// threads the trace context over the wire, records the outcome on the
/// health board, and builds the per-worker [`StageCost`] with the
/// host's `XQueryProfile` grafted in. A tripped [`CancelToken`] aborts
/// the exchange without touching the source's health.
#[allow(clippy::too_many_arguments)]
pub fn run_task(
    client: &StartsClient<'_>,
    task: &DispatchTask,
    health: &HealthBoard,
    timeout_ms: u64,
    parent: &SpanHandle,
    query_id: &str,
    t0: Instant,
    cancel: Option<&CancelToken>,
) -> Result<TaskSuccess, TaskError> {
    let obs = client.registry();
    let span = obs.span_under("source", parent, vec![("source", task.id.clone())]);
    // Thread the trace context through the wire (§4.3 extension
    // attribute): the source's spans parent under this worker span, and
    // it answers with its `XQueryProfile`.
    let trace = TraceContext {
        query_id: query_id.to_string(),
        parent_path: span.path().to_string(),
        parent_span_id: span.id(),
    };
    let w_start = elapsed_us(t0);
    match client.query_cancellable(&task.url, &task.query, Some(&trace), cancel) {
        Ok((results, exchange)) => {
            let w_end = elapsed_us(t0);
            let latency = u64::from(exchange.latency_ms);
            obs.histogram_with("meta.source_latency_ms", &[("source", &task.id)])
                .observe(latency);
            health.record(
                &task.id,
                if latency >= timeout_ms {
                    SourceOutcome::timed_out(latency, true)
                } else {
                    SourceOutcome::ok(latency)
                },
            );
            // Per-worker stage for the profile. The host's own
            // XQueryProfile (if it sent one) nests under it, rebased
            // from the host's clock onto ours, if it fits this window —
            // an honest host's always does, since the exchange ran
            // inside it. A misfit is dropped like any malformed
            // extension attribute (§4.3).
            let mut stage = StageCost::new("source", w_start, w_end.saturating_sub(w_start))
                .with_meta("source", &task.id)
                .with_meta("latency_ms", exchange.latency_ms)
                .with_meta("cost", exchange.cost);
            let host = results.profile.as_ref().map(|p| p.root.clone());
            let host = host.and_then(|root| root.rebased(w_start, w_end));
            stage.children.extend(host);
            Ok(TaskSuccess {
                result: SourceResult {
                    metadata: Arc::clone(&task.metadata),
                    results,
                    source_weight: task.weight,
                },
                exchange,
                stage,
            })
        }
        Err(e) if e.is_cancelled() => {
            // A lost hedge race or an expired deadline: the source did
            // nothing wrong, so its health is untouched.
            obs.counter_with("meta.dispatch.cancelled", &[("source", &task.id)])
                .inc();
            Err(TaskError::Cancelled)
        }
        Err(_) => {
            health.record(&task.id, SourceOutcome::failed());
            obs.counter_with("meta.dispatch.failures", &[("source", &task.id)])
                .inc();
            Err(TaskError::Failed)
        }
    }
}

/// Record a dispatch that never produced an outcome because its worker
/// panicked: the source counts as failed (health + failure counter +
/// a dedicated panic counter), and the query carries on with the
/// sources that answered.
pub fn record_panicked_dispatch(obs: &Registry, health: &HealthBoard, source: &str) {
    health.record(source, SourceOutcome::failed());
    let labels = [("source", source)];
    obs.counter_with("meta.dispatch.failures", &labels).inc();
    obs.counter_with("meta.dispatch.panics", &labels).inc();
}

/// Stage 4: the bounded merge, with its dedup accounting recorded on
/// the registry and returned as a `merge` [`StageCost`].
pub fn merge_stage(
    merger: &dyn Merger,
    per_source: &[SourceResult],
    max_results: usize,
    obs: &Registry,
    t0: Instant,
) -> (Vec<MergedDoc>, MergeStats, StageCost) {
    let merge_start = elapsed_us(t0);
    let (merged, mstats) = {
        let _span = obs.span("merge");
        merger.merge_top_k(per_source, max_results)
    };
    let merge_end = elapsed_us(t0);
    // Cross-source duplicates collapse during the merge: the difference
    // between candidates in and distinct documents out.
    obs.counter("meta.merge.candidates")
        .add(mstats.candidates as u64);
    obs.counter("meta.merge.duplicates")
        .add(mstats.duplicates() as u64);
    let stage = StageCost::new("merge", merge_start, merge_end.saturating_sub(merge_start))
        .with_meta("candidates", mstats.candidates)
        .with_meta("duplicates", mstats.duplicates());
    (merged, mstats, stage)
}

/// The canonical singleflight/cache key material for a query: its SOIF
/// encoding with the per-dispatch trace context left out. Two queries
/// with the same key are wire-identical to every source.
pub fn normalized_query_key(query: &Query) -> String {
    let mut key = Vec::with_capacity(256);
    query.write_soif_into(None, &mut key);
    String::from_utf8(key).expect("an @SQuery is written from strings")
}
