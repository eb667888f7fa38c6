//! The query executor: fixed pools, admission control, hedging,
//! deadlines.
//!
//! A [`Server`] owns two fixed pools over one shared network:
//!
//! ```text
//! callers (plan, key, cache) ── hit ──▶ answered on the caller's thread
//!        │ miss
//!        ▼
//! bounded admission queue ──▶ query workers (cache again,
//! (LIFO pop, shed oldest)     singleflight, lead waves)
//!                                   │
//!                                   ▼
//!                   dispatch queue ──▶ dispatch workers
//!                   (per-source exchanges, hedges)
//! ```
//!
//! What the server can answer from what it holds it answers where the
//! request arrived: the admission queue bounds *waves*, so a cache hit
//! is never queued, never shed and wakes no thread. Query workers run
//! the remaining [`starts_meta::pipeline`] stages; per-source
//! exchanges go through the dispatch pool so one slow query cannot
//! monopolise threads, and a hedge or a straggler can outlive the query
//! that launched it (it holds its own [`CancelToken`] and its share of
//! the wave state). All coordination is plain `Mutex`/`Condvar` —
//! no async runtime, matching the repo's std-only execution model.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use starts_meta::catalog::Catalog;
use starts_meta::merge::{MergedDoc, SourceResult};
use starts_meta::metasearcher::{MetaConfig, QueryStats};
use starts_meta::pipeline::{self, DispatchTask, QueryPlan, TaskError, TaskSuccess};
use starts_net::{CancelToken, SimNet, StartsClient};
use starts_obs::{Registry, SpanHandle};
use starts_proto::{Query, QueryProfile, StageCost};

use crate::cache::ResultCache;
use crate::flight::{ResponseSlot, Singleflight};

/// Hedged-dispatch policy.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Whether to hedge at all.
    pub enabled: bool,
    /// Hedge a source after `p95 × factor` (its health-board p95).
    pub factor: f64,
    /// Floor on the hedge delay in *simulated* milliseconds — also the
    /// delay used for sources with no health history. Under SimNet
    /// pacing the delay converts at the pacing rate; with pacing off it
    /// is taken as wall milliseconds (exchanges complete in
    /// microseconds then, so hedges effectively never fire).
    pub min_delay_ms: u64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: true,
            factor: 3.0,
            min_delay_ms: 50,
        }
    }
}

/// Serving-layer configuration (strategy lives in [`MetaConfig`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Query-pool size; `0` = one per available core.
    pub query_workers: usize,
    /// Dispatch-pool size; `0` = `max(4, 2 × query workers)`.
    pub dispatch_workers: usize,
    /// Bound on queries *waiting to run a wave*; at capacity the oldest
    /// waiter is shed. Cache hits are answered on the caller's thread
    /// and never wait here. Minimum 1.
    pub queue_capacity: usize,
    /// Result-cache freshness window; `Duration::ZERO` disables
    /// caching.
    pub cache_ttl: Duration,
    /// Default wall-clock budget per query in milliseconds; `0` waits
    /// for every source. Overridable per call via
    /// [`Server::search_with`].
    pub deadline_ms: u64,
    /// Hedged-dispatch policy.
    pub hedge: HedgeConfig,
    /// Replica query URLs by source id: a hedge for a listed source
    /// goes to the replica instead of re-asking the same endpoint.
    pub replicas: HashMap<String, String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            query_workers: 0,
            dispatch_workers: 0,
            queue_capacity: 64,
            cache_ttl: Duration::from_secs(60),
            deadline_ms: 0,
            hedge: HedgeConfig::default(),
            replicas: HashMap::new(),
        }
    }
}

/// Why a request produced no response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Shed by admission control: the queue was full and this request
    /// had waited longest.
    Shed,
    /// The server is shutting down.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed => write!(f, "shed by admission control (queue full)"),
            ServeError::Shutdown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How a response reached the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// This request led the dispatch wave.
    Executed,
    /// Collapsed onto a concurrent identical query's wave.
    Coalesced,
    /// Served from the result cache without touching the wire.
    CacheHit,
}

/// Per-source completeness of a (possibly partial) response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// The source answered and its results are in the merge.
    Complete,
    /// Every attempt at the source failed.
    Failed,
    /// The source was still in flight when the deadline expired; its
    /// attempts were cancelled and it contributed nothing.
    TimedOut,
}

/// One source's completeness flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceCompleteness {
    /// The source id.
    pub source: String,
    /// What happened to it.
    pub status: SourceStatus,
}

/// The outcome of one served metasearch.
#[derive(Debug)]
pub struct ServeResponse {
    /// The merged rank over the sources that finished.
    pub merged: Vec<MergedDoc>,
    /// Ids of the selected sources, in selection order.
    pub selected: Vec<String>,
    /// Raw per-source results from the sources that finished, in
    /// selection order (a partial response is a prefix-consistent
    /// subset: exactly the finished sources, original order kept).
    pub per_source: Vec<SourceResult>,
    /// Per-source completeness, in selection order.
    pub completeness: Vec<SourceCompleteness>,
    /// `true` when the deadline expired before every source answered.
    pub partial: bool,
    /// Aggregate accounting from the exchanges that completed.
    pub stats: QueryStats,
    /// The trace id minted for this wave.
    pub query_id: String,
    /// The hierarchical cost breakdown, rooted at `serve.query`.
    pub profile: QueryProfile,
}

/// A response plus how it was served.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The (possibly shared) response.
    pub response: Arc<ServeResponse>,
    /// Executed, coalesced, or cache hit.
    pub via: Served,
}

impl PartialEq for ServeOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.via == other.via && Arc::ptr_eq(&self.response, &other.response)
    }
}

/// One admitted query waiting for a worker: planned and keyed on its
/// caller's thread, where it missed the cache.
struct QueryJob {
    plan: QueryPlan,
    key: String,
    deadline_ms: Option<u64>,
    slot: Arc<ResponseSlot>,
    query_id: String,
    /// The caller's open `serve.query` span, which the worker's stages
    /// nest under.
    root: SpanHandle,
    /// The request's clock, started on the caller's thread.
    t0: Instant,
    /// When the job joined the queue, in µs since `t0`.
    enqueued_us: u64,
}

fn elapsed_us(t0: Instant) -> u64 {
    t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Per-source state of one dispatch wave.
#[derive(Default)]
struct TaskSlot {
    /// The final outcome; `None` while attempts are in flight (or after
    /// every attempt was cancelled by the deadline).
    outcome: Option<Result<TaskSuccess, TaskError>>,
    /// Attempts currently queued or running.
    inflight: usize,
    /// Cancellation tokens of every attempt (primary + hedge).
    tokens: Vec<CancelToken>,
    /// Whether a hedge was already launched.
    hedged: bool,
}

/// Shared state between a wave's leader and its dispatch workers.
struct WaveState {
    slots: Mutex<Vec<TaskSlot>>,
    cv: Condvar,
}

/// One per-source exchange queued for the dispatch pool.
struct DispatchJob {
    wave: Arc<WaveState>,
    index: usize,
    /// 0 = primary, 1 = hedge.
    attempt: usize,
    task: DispatchTask,
    cancel: CancelToken,
    parent: SpanHandle,
    query_id: String,
    t0: Instant,
    timeout_ms: u64,
}

struct ServerInner {
    net: Arc<SimNet>,
    catalog: Catalog,
    config: MetaConfig,
    serve: ServeConfig,
    queue: Mutex<VecDeque<QueryJob>>,
    queue_cv: Condvar,
    dispatch_q: Mutex<VecDeque<DispatchJob>>,
    dispatch_cv: Condvar,
    flights: Singleflight,
    cache: ResultCache,
    shutdown: AtomicBool,
}

/// The concurrent serving layer over one catalog and one network.
///
/// Spawns its fixed pools at construction and joins them on drop
/// (in-flight and queued work drains first; late callers get
/// [`ServeError::Shutdown`]).
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Build over a shared network and a discovered catalog, spawning
    /// the worker pools.
    pub fn new(net: Arc<SimNet>, catalog: Catalog, config: MetaConfig, serve: ServeConfig) -> Self {
        config.install(net.registry());
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let query_workers = match serve.query_workers {
            0 => cores,
            n => n,
        };
        let dispatch_workers = match serve.dispatch_workers {
            0 => (2 * query_workers).max(4),
            n => n,
        };
        let serve = ServeConfig {
            queue_capacity: serve.queue_capacity.max(1),
            ..serve
        };
        let cache_ttl = serve.cache_ttl;
        let inner = Arc::new(ServerInner {
            net,
            catalog,
            config,
            serve,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            dispatch_q: Mutex::new(VecDeque::new()),
            dispatch_cv: Condvar::new(),
            flights: Singleflight::default(),
            cache: ResultCache::new(cache_ttl),
            shutdown: AtomicBool::new(false),
        });
        let mut workers = Vec::with_capacity(query_workers + dispatch_workers);
        for i in 0..query_workers {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-query-{i}"))
                    .spawn(move || query_worker(&inner))
                    .expect("spawn query worker"),
            );
        }
        for i in 0..dispatch_workers {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-dispatch-{i}"))
                    .spawn(move || dispatch_worker(&inner))
                    .expect("spawn dispatch worker"),
            );
        }
        Server { inner, workers }
    }

    /// Serve one query under the configured default deadline.
    pub fn search(&self, query: &Query) -> Result<ServeOutcome, ServeError> {
        self.search_with(query, None)
    }

    /// Serve one query, optionally overriding the wall-clock deadline
    /// (`Some(0)` waits for every source). Blocks until the response is
    /// ready, the request is shed, or the server shuts down.
    pub fn search_with(
        &self,
        query: &Query,
        deadline_ms: Option<u64>,
    ) -> Result<ServeOutcome, ServeError> {
        let inner = &self.inner;
        let obs = inner.net.registry();
        obs.counter("serve.requests").inc();
        let query_id = starts_obs::trace::next_query_id();
        let t0 = Instant::now();
        let root = obs.span_with("serve.query", vec![("trace", query_id.clone())]);

        // Plan here: selection and adaptation are wire-free, and the
        // cache key needs the selected source set.
        let plan = pipeline::plan(&inner.catalog, &inner.config, query, obs, t0);
        let mut key = pipeline::normalized_query_key(query);
        key.push('|');
        key.push_str(&plan.selected.join(","));

        let outcome = match inner.cache.lookup(&key, obs, false) {
            Some(response) => Ok(ServeOutcome {
                response,
                via: Served::CacheHit,
            }),
            None => {
                let slot = ResponseSlot::new();
                let job = QueryJob {
                    plan,
                    key,
                    deadline_ms,
                    slot: Arc::clone(&slot),
                    query_id,
                    root: root.handle(),
                    t0,
                    enqueued_us: elapsed_us(t0),
                };
                self.admit(job)?;
                slot.wait()
            }
        };
        if outcome.is_ok() {
            obs.histogram("serve.latency_us").observe(elapsed_us(t0));
        }
        outcome
    }

    /// Queue a job for the query workers, shedding the oldest waiter
    /// when the queue is full.
    fn admit(&self, job: QueryJob) -> Result<(), ServeError> {
        let inner = &self.inner;
        let obs = inner.net.registry();
        {
            let mut queue = inner.queue.lock().expect("serve queue");
            if inner.shutdown.load(Ordering::SeqCst) {
                return Err(ServeError::Shutdown);
            }
            if queue.len() >= inner.serve.queue_capacity {
                // Overload: shed the *oldest* waiter — it has burned
                // the most of its deadline already — and keep admitting
                // fresh work (LIFO shed).
                if let Some(old) = queue.pop_front() {
                    obs.counter("serve.shed").inc();
                    old.slot.fulfill(Err(ServeError::Shed));
                }
            }
            queue.push_back(job);
            obs.gauge("serve.queue_depth").set(queue.len() as f64);
        }
        inner.queue_cv.notify_one();
        Ok(())
    }

    /// Stale and reclaim every cached response that consulted `source`
    /// (call after its metadata or content summary changed), including
    /// the response of any wave that is in flight right now. Other
    /// entries keep serving.
    pub fn invalidate_source(&self, source: &str) {
        self.inner.cache.invalidate_source(source);
    }

    /// Stale and reclaim the whole result cache.
    pub fn invalidate_cache(&self) {
        self.inner.cache.invalidate_all();
    }

    /// Number of cached responses. An invalidation reclaims what it
    /// stales, so these are fresh ones plus any that outlived the TTL
    /// and have not been walked over yet.
    pub fn cached_responses(&self) -> usize {
        self.inner.cache.len()
    }

    /// The catalog being served.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        self.inner.dispatch_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Workers drain queued work before exiting; anything that still
        // slipped past them gets a clean shutdown error instead of a
        // hang.
        let mut queue = self.inner.queue.lock().expect("serve queue");
        for job in queue.drain(..) {
            job.slot.fulfill(Err(ServeError::Shutdown));
        }
    }
}

/// Query-pool body: pop newest-first and execute whole queries.
fn query_worker(inner: &Arc<ServerInner>) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("serve queue");
            loop {
                // LIFO: the newest request has the most deadline left.
                if let Some(job) = queue.pop_back() {
                    inner
                        .net
                        .registry()
                        .gauge("serve.queue_depth")
                        .set(queue.len() as f64);
                    break job;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner.queue_cv.wait(queue).expect("serve queue");
            }
        };
        let obs = inner.net.registry();
        obs.gauge("serve.inflight").add(1.0);
        run_query(inner, job);
        obs.gauge("serve.inflight").add(-1.0);
    }
}

/// Cache (again) → singleflight → (lead the wave) → fulfill.
fn run_query(inner: &Arc<ServerInner>, job: QueryJob) {
    let obs: &Registry = inner.net.registry();
    let _root = job.root.adopt();
    let queue_stage = StageCost::new(
        "queue",
        job.enqueued_us,
        elapsed_us(job.t0).saturating_sub(job.enqueued_us),
    );

    // The caller missed before it queued; an identical query's wave may
    // have landed since, and two that missed together must not both
    // dispatch.
    if let Some(hit) = inner.cache.lookup(&job.key, obs, true) {
        job.slot.fulfill(Ok(ServeOutcome {
            response: hit,
            via: Served::CacheHit,
        }));
        return;
    }

    if !inner.flights.lead_or_join(&job.key, &job.slot) {
        // A wave for this exact query is already in flight: the leader
        // will fulfill our slot; this worker is free for the next job.
        obs.counter("serve.singleflight.coalesced").inc();
        return;
    }
    obs.counter("serve.singleflight.leader").inc();

    let key = job.key.clone();
    // Before dispatch: an invalidation from here on stales the response.
    let stamps = inner.cache.stamps(&job.plan.selected);
    let response = Arc::new(run_wave(inner, &job, queue_stage));
    inner.cache.store(job.key, Arc::clone(&response), stamps);
    job.slot.fulfill(Ok(ServeOutcome {
        response: Arc::clone(&response),
        via: Served::Executed,
    }));
    for follower in inner.flights.complete(&key) {
        follower.fulfill(Ok(ServeOutcome {
            response: Arc::clone(&response),
            via: Served::Coalesced,
        }));
    }
}

/// Lead one dispatch wave: submit primaries, hedge stragglers, honour
/// the deadline, merge whatever finished.
fn run_wave(inner: &Arc<ServerInner>, job: &QueryJob, queue_stage: StageCost) -> ServeResponse {
    let obs: &Registry = inner.net.registry();
    let (plan, query_id, t0) = (&job.plan, job.query_id.as_str(), job.t0);
    let deadline_ms = job.deadline_ms.unwrap_or(inner.serve.deadline_ms);
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));

    let dispatch_start = elapsed_us(t0);
    let dispatch_span = obs.span("dispatch");
    let parent = dispatch_span.handle();
    let wave = Arc::new(WaveState {
        slots: Mutex::new(Vec::new()),
        cv: Condvar::new(),
    });

    // Submit every primary to the shared dispatch pool.
    {
        let mut slots = wave.slots.lock().expect("wave slots");
        let mut dispatch_q = inner.dispatch_q.lock().expect("dispatch queue");
        for (index, task) in plan.tasks.iter().enumerate() {
            let cancel = CancelToken::new();
            slots.push(TaskSlot {
                outcome: None,
                inflight: 1,
                tokens: vec![cancel.clone()],
                hedged: false,
            });
            dispatch_q.push_back(DispatchJob {
                wave: Arc::clone(&wave),
                index,
                attempt: 0,
                task: task.clone(),
                cancel,
                parent: parent.clone(),
                query_id: query_id.to_string(),
                t0,
                timeout_ms: inner.config.timeout_ms,
            });
        }
    }
    inner.dispatch_cv.notify_all();

    // Hedge schedule: per-source wake times derived from health p95s.
    let submitted = Instant::now();
    let hedge_at: Vec<Instant> = plan
        .tasks
        .iter()
        .map(|t| submitted + hedge_delay(inner, &t.id))
        .collect();

    // Wait for the wave: done, or deadline, launching due hedges.
    let mut expired = false;
    let mut slots = wave.slots.lock().expect("wave slots");
    loop {
        if slots.iter().all(|s| s.outcome.is_some()) {
            break;
        }
        let now = Instant::now();
        if let Some(d) = deadline {
            if now >= d {
                expired = true;
                break;
            }
        }
        let mut due: Vec<(usize, CancelToken)> = Vec::new();
        if inner.serve.hedge.enabled {
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.outcome.is_none() && !slot.hedged && now >= hedge_at[i] {
                    let cancel = CancelToken::new();
                    slot.tokens.push(cancel.clone());
                    slot.inflight += 1;
                    slot.hedged = true;
                    due.push((i, cancel));
                }
            }
        }
        if !due.is_empty() {
            drop(slots);
            {
                let mut dispatch_q = inner.dispatch_q.lock().expect("dispatch queue");
                for (index, cancel) in due {
                    let task = hedged_task(inner, &plan.tasks[index]);
                    obs.counter_with("serve.hedge.launched", &[("source", &task.id)])
                        .inc();
                    dispatch_q.push_back(DispatchJob {
                        wave: Arc::clone(&wave),
                        index,
                        attempt: 1,
                        task,
                        cancel,
                        parent: parent.clone(),
                        query_id: query_id.to_string(),
                        t0,
                        timeout_ms: inner.config.timeout_ms,
                    });
                }
            }
            inner.dispatch_cv.notify_all();
            slots = wave.slots.lock().expect("wave slots");
            continue;
        }
        // Sleep until the next event: a completion (condvar), the
        // earliest pending hedge, or the deadline.
        let mut wake = deadline;
        if inner.serve.hedge.enabled {
            for (i, slot) in slots.iter().enumerate() {
                if slot.outcome.is_none() && !slot.hedged {
                    wake = Some(wake.map_or(hedge_at[i], |w| w.min(hedge_at[i])));
                }
            }
        }
        slots = match wake {
            Some(at) => {
                let timeout = at.saturating_duration_since(Instant::now());
                wave.cv.wait_timeout(slots, timeout).expect("wave slots").0
            }
            None => wave.cv.wait(slots).expect("wave slots"),
        };
    }

    // Collect outcomes; on expiry cancel the stragglers first so they
    // abandon their (simulated) flights instead of finishing for
    // nobody.
    if expired {
        obs.counter("serve.partial").inc();
        for slot in slots.iter() {
            if slot.outcome.is_none() {
                for token in &slot.tokens {
                    token.cancel();
                }
            }
        }
    }
    let mut successes: Vec<TaskSuccess> = Vec::new();
    let mut completeness: Vec<SourceCompleteness> = Vec::new();
    for (i, slot) in slots.iter_mut().enumerate() {
        let source = plan.tasks[i].id.clone();
        let status = match slot.outcome.take() {
            Some(Ok(success)) => {
                successes.push(success);
                SourceStatus::Complete
            }
            Some(Err(_)) => SourceStatus::Failed,
            None => SourceStatus::TimedOut,
        };
        completeness.push(SourceCompleteness { source, status });
    }
    drop(slots);
    drop(dispatch_span);
    let dispatch_end = elapsed_us(t0);

    let mut stats = QueryStats::default();
    let mut source_stages = Vec::new();
    let per_source: Vec<SourceResult> = successes
        .into_iter()
        .map(|success| {
            stats.absorb(&success.exchange);
            source_stages.push(success.stage);
            success.result
        })
        .collect();
    obs.gauge("meta.query_cost").add(stats.total_cost);

    let (merged, _mstats, merge_costs) = pipeline::merge_stage(
        inner.config.merger.as_ref(),
        &per_source,
        inner.config.max_results,
        obs,
        t0,
    );

    let mut dispatch_stage = StageCost::new(
        "dispatch",
        dispatch_start,
        dispatch_end.saturating_sub(dispatch_start),
    )
    .with_meta("sources", source_stages.len())
    .with_meta("partial", expired);
    dispatch_stage.children = source_stages;
    let profile = QueryProfile {
        query_id: query_id.to_string(),
        root: StageCost {
            name: "serve.query".to_string(),
            start_us: 0,
            duration_us: elapsed_us(t0),
            meta: vec![
                ("results".to_string(), merged.len().to_string()),
                ("partial".to_string(), expired.to_string()),
            ],
            children: vec![
                plan.select_stage.clone(),
                plan.adapt_stage.clone(),
                queue_stage,
                dispatch_stage,
                merge_costs,
            ],
        },
    };
    inner.config.recorder.record(&profile);
    inner.net.monitor().tick(obs);

    ServeResponse {
        merged,
        selected: plan.selected.clone(),
        per_source,
        completeness,
        partial: expired,
        stats,
        query_id: query_id.to_string(),
        profile,
    }
}

/// The hedge's task: same source, replica URL when configured.
fn hedged_task(inner: &ServerInner, base: &DispatchTask) -> DispatchTask {
    let mut task = base.clone();
    if let Some(url) = inner.serve.replicas.get(&task.id) {
        task.url = url.clone();
    }
    task
}

/// Health-derived hedge delay for one source, converted to wall time
/// under the network's current pacing.
fn hedge_delay(inner: &ServerInner, source: &str) -> Duration {
    let cfg = &inner.serve.hedge;
    let p95 = inner
        .config
        .health
        .health(source)
        .map(|h| h.latency_p95_ms)
        .unwrap_or(0);
    let sim_ms = ((p95 as f64 * cfg.factor).ceil() as u64)
        .max(cfg.min_delay_ms)
        .max(1);
    match inner.net.pacing() {
        0 => Duration::from_millis(sim_ms),
        us_per_ms => Duration::from_micros(sim_ms.saturating_mul(us_per_ms)),
    }
}

/// Dispatch-pool body: run per-source exchanges; first finisher wins
/// its slot and cancels the sibling attempt. Panics in an exchange are
/// isolated into failed-source outcomes (the pool thread survives).
fn dispatch_worker(inner: &Arc<ServerInner>) {
    loop {
        let job = {
            let mut queue = inner.dispatch_q.lock().expect("dispatch queue");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner.dispatch_cv.wait(queue).expect("dispatch queue");
            }
        };
        let obs = inner.net.registry();
        let client = StartsClient::new(&inner.net);
        let hedge_span = (job.attempt > 0)
            .then(|| obs.span_under("hedge", &job.parent, vec![("source", job.task.id.clone())]));
        let outcome = match catch_unwind(AssertUnwindSafe(|| {
            pipeline::run_task(
                &client,
                &job.task,
                &inner.config.health,
                job.timeout_ms,
                &job.parent,
                &job.query_id,
                job.t0,
                Some(&job.cancel),
            )
        })) {
            Ok(outcome) => outcome,
            Err(_) => {
                pipeline::record_panicked_dispatch(obs, &inner.config.health, &job.task.id);
                Err(TaskError::Failed)
            }
        };
        drop(hedge_span);

        let mut slots = job.wave.slots.lock().expect("wave slots");
        let slot = &mut slots[job.index];
        slot.inflight = slot.inflight.saturating_sub(1);
        match &outcome {
            Ok(_) if slot.outcome.is_none() => {
                // First success wins the slot; any sibling attempt is
                // now pointless.
                for token in &slot.tokens {
                    token.cancel();
                }
                if job.attempt > 0 {
                    obs.counter_with("serve.hedge.wins", &[("source", &job.task.id)])
                        .inc();
                }
                slot.outcome = Some(outcome);
                job.wave.cv.notify_all();
            }
            Err(TaskError::Failed) if slot.outcome.is_none() && slot.inflight == 0 => {
                // Every attempt failed.
                slot.outcome = Some(Err(TaskError::Failed));
                job.wave.cv.notify_all();
            }
            _ => {
                // Lost the hedge race, was cancelled by the deadline,
                // or the slot is already decided: drop the result.
            }
        }
    }
}
