//! The query executor: running slots, admission control, hedging,
//! deadlines.
//!
//! Every wave is led by the thread that asked for it; a [`Server`] owns
//! one fixed pool, for exchanges, over one shared network:
//!
//! ```text
//! callers (key, cache) ── hit ──▶ answered on the caller's thread
//!        │ miss: plan
//!        ├── a running slot is free ──▶ the caller leads the wave
//!        │ every slot taken                        ▲
//!        ▼                                         │ a slot frees
//! the caller parks (bounded: LIFO wake, shed oldest)
//!
//!           (cache again, singleflight, lead; unpaced, no deadline:
//!            the leader runs the exchanges itself)
//!                                   │ paced net or a deadline
//!                                   ▼
//!                   dispatch queue ──▶ dispatch workers
//!                   (per-source exchanges, hedges)
//! ```
//!
//! What the server can answer from what it holds it answers where the
//! request arrived: admission bounds *waves*, so a cache hit is never
//! parked, never shed and wakes no thread. Under a selector
//! that ranks from the catalog alone
//! ([`Selector::ranks_from_catalog`](starts_meta::select::Selector::ranks_from_catalog))
//! a hit does not select or adapt either: the key is the query, and
//! only a miss plans. At most
//! `query_workers` waves run at once, each holding a *running slot*. A
//! miss that finds a slot free takes it and leads its wave on the
//! thread that asked — no hand-off, no wake-up. One that finds every
//! slot taken parks on a condition variable of its own, at most
//! `queue_capacity` of them; a wave that ends wakes the newest, which
//! takes the freed slot — unless a fresh arrival took it first — and
//! leads its own wave. The leader runs the dispatch wave
//! ([`starts_meta::wave`]). When nothing can end the wait for it early
//! — the net does not pace and the query has no deadline
//! ([`wave::runs_on_leader`]) — it runs the wave's exchanges itself, one
//! after the other: one thread per miss. Otherwise the attempts go
//! through the dispatch pool so one slow query cannot monopolise
//! threads, and a hedge or a straggler can outlive the query that
//! launched it (an [`Attempt`] holds its share of the wave state). All
//! coordination is plain `Mutex`/`Condvar` — no async runtime, matching
//! the repo's std-only execution model.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use starts_meta::catalog::Catalog;
use starts_meta::merge::{MergedDoc, SourceResult};
use starts_meta::metasearcher::{MetaConfig, QueryStats};
use starts_meta::pipeline::{self, DispatchTask, QueryPlan};
use starts_meta::wave::{self, Attempt};
pub use starts_meta::wave::{SourceCompleteness, SourceStatus};
use starts_net::{SimNet, StartsClient};
use starts_obs::Registry;
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
    /// pacing the delay converts at the pacing rate. With pacing off a
    /// wave with a deadline takes it as wall milliseconds (exchanges
    /// complete in microseconds then, so hedges effectively never fire),
    /// and a wave without one runs its exchanges on the thread that
    /// leads it, decided before any hedge could be due.
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
    /// The number of waves that run at once; `0` = one per available
    /// core. Every wave runs on the thread of the caller that missed: at
    /// once while fewer run, once a slot frees otherwise.
    pub query_workers: usize,
    /// Dispatch-pool size; `0` = `max(4, 2 × query_workers)`. The pool
    /// runs the exchanges of waves on a paced net or with a deadline;
    /// the rest run on the thread that leads them.
    pub dispatch_workers: usize,
    /// Bound on callers *waiting to run a wave* while `query_workers`
    /// waves run; at capacity the oldest waiter is shed. Cache hits
    /// never wait, and neither does a miss that finds a running slot
    /// free. Minimum 1.
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
    /// The query's execution panicked (a caller-supplied [`MetaConfig`]
    /// strategy, most likely); the thread that led it carries on.
    Internal,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed => write!(f, "shed by admission control (queue full)"),
            ServeError::Internal => write!(f, "the query's execution panicked"),
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

/// The answer to one served metasearch: what every request for it gets
/// — the one that led its wave, the followers that joined it, and the
/// cache hits after it — and all the result cache keeps.
#[derive(Debug)]
pub struct ServeResponse {
    /// The merged rank over the sources that finished.
    pub merged: Vec<MergedDoc>,
    /// Ids of the selected sources, in selection order.
    pub selected: Vec<String>,
    /// Per-source completeness, in selection order.
    pub completeness: Vec<SourceCompleteness>,
    /// `true` when the deadline expired before every source answered.
    pub partial: bool,
    /// The query id minted for the wave that produced this answer (its
    /// profile's `query_id`).
    pub query_id: String,
}

/// What the dispatch wave behind an answer reported besides it: the raw
/// per-source results it merged, its accounting and its cost breakdown.
/// It goes to the requests that ran or joined the wave and is never
/// cached; it is freed when the last of them drops its outcome.
#[derive(Debug)]
pub struct WaveReport {
    /// Raw per-source results from the sources that finished, in
    /// selection order (a partial response is a prefix-consistent
    /// subset: exactly the finished sources, original order kept).
    pub per_source: Vec<SourceResult>,
    /// Aggregate accounting from the exchanges that completed.
    pub stats: QueryStats,
    /// The hierarchical cost breakdown, rooted at `serve.query`.
    pub profile: QueryProfile,
}

/// A response plus how it was served.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The (possibly shared) answer.
    pub response: Arc<ServeResponse>,
    /// The report of the wave this request ran or joined: the leader's
    /// very `Arc` for a coalesced follower, `None` for a cache hit,
    /// which ran no wave.
    pub wave: Option<Arc<WaveReport>>,
    /// Executed, coalesced, or cache hit.
    pub via: Served,
}

impl PartialEq for ServeOutcome {
    fn eq(&self, other: &Self) -> bool {
        let same_wave = match (&self.wave, &other.wave) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        self.via == other.via && Arc::ptr_eq(&self.response, &other.response) && same_wave
    }
}

/// One admitted query: keyed, planned and led on its caller's thread.
struct QueryJob {
    plan: Arc<QueryPlan>,
    key: String,
    deadline_ms: Option<u64>,
    slot: Arc<ResponseSlot>,
    query_id: String,
    /// The request's clock, started when it arrived.
    t0: Instant,
}

/// The waves the server admitted: the callers waiting for a running
/// slot and how many waves run now.
#[derive(Default)]
struct Waves {
    /// Parked callers, oldest first, each on a condition variable of
    /// its own over this state's lock.
    waiting: VecDeque<Arc<Condvar>>,
    /// Waves running now; at most `ServerInner::slots`.
    running: usize,
}

fn elapsed_us(t0: Instant) -> u64 {
    t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

struct ServerInner {
    net: Arc<SimNet>,
    catalog: Catalog,
    config: MetaConfig,
    serve: ServeConfig,
    /// Resolved `query_workers`: the bound on waves running at once.
    slots: usize,
    queue: Mutex<Waves>,
    dispatch_q: Mutex<VecDeque<Attempt>>,
    dispatch_cv: Condvar,
    flights: Singleflight,
    cache: ResultCache,
    /// Tells the dispatch pool to exit once its queue is empty.
    shutdown: AtomicBool,
}

/// The concurrent serving layer over one catalog and one network.
///
/// Spawns its dispatch pool at construction and joins it on drop, once
/// the attempts queued for it have run.
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Build over a shared network and a discovered catalog, spawning
    /// the dispatch pool.
    pub fn new(net: Arc<SimNet>, catalog: Catalog, config: MetaConfig, serve: ServeConfig) -> Self {
        config.install(net.registry());
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let slots = match serve.query_workers {
            0 => cores,
            n => n,
        };
        let dispatch_workers = match serve.dispatch_workers {
            0 => (2 * slots).max(4),
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
            slots,
            queue: Mutex::new(Waves::default()),
            dispatch_q: Mutex::new(VecDeque::new()),
            dispatch_cv: Condvar::new(),
            flights: Singleflight::default(),
            cache: ResultCache::new(cache_ttl),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..dispatch_workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-dispatch-{i}"))
                    .spawn(move || dispatch_worker(&inner))
                    .expect("spawn dispatch worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// Serve one query under the configured default deadline.
    pub fn search(&self, query: &Query) -> Result<ServeOutcome, ServeError> {
        self.search_with(query, None)
    }

    /// Serve one query, optionally overriding the wall-clock deadline
    /// (`Some(0)` waits for every source). Blocks until the response is
    /// ready or the request is shed.
    pub fn search_with(
        &self,
        query: &Query,
        deadline_ms: Option<u64>,
    ) -> Result<ServeOutcome, ServeError> {
        let inner = &self.inner;
        let obs = inner.net.registry();
        obs.counter("serve.requests").inc();
        let t0 = Instant::now();
        let _root = obs.span("serve.query");

        // The catalog is fixed for the server's life, so a selector that
        // reads only the catalog picks the same sources for the same
        // query every time: the query alone is the key, and only a miss
        // plans. A selector that reads state of its own plans first and
        // keys by the sources it picked now.
        let mut key = pipeline::normalized_query_key(query);
        let planned = (!inner.config.selector.ranks_from_catalog()).then(|| {
            let plan = pipeline::plan(&inner.catalog, &inner.config, query, obs, t0);
            key.push('|');
            key.push_str(&plan.selected.join(","));
            plan
        });

        let outcome = match inner.cache.lookup(&key, obs, false) {
            Some(response) => Ok(ServeOutcome {
                response,
                wave: None,
                via: Served::CacheHit,
            }),
            None => {
                let plan = planned.unwrap_or_else(|| {
                    pipeline::plan(&inner.catalog, &inner.config, query, obs, t0)
                });
                let slot = ResponseSlot::new();
                let job = QueryJob {
                    plan: Arc::new(plan),
                    key,
                    deadline_ms,
                    slot: Arc::clone(&slot),
                    query_id: starts_obs::next_query_id(),
                    t0,
                };
                let enqueued_us = elapsed_us(t0);
                let waited = self.admit()?;
                let queued_us = if waited {
                    elapsed_us(t0).saturating_sub(enqueued_us)
                } else {
                    0
                };
                let running = Running::taken(inner);
                run_query(inner, job, StageCost::new("queue", enqueued_us, queued_us));
                // A follower's slot is fulfilled by its flight's leader;
                // it waits for that holding no running slot.
                drop(running);
                slot.wait()
            }
        };
        if outcome.is_ok() {
            obs.histogram("serve.latency_us").observe(elapsed_us(t0));
        }
        outcome
    }

    /// Take a running slot for a miss; `Ok(true)` if the caller had to
    /// wait for it. While fewer than `query_workers` waves run, the
    /// slot is taken at once. Otherwise the caller parks, shedding the
    /// oldest waiter when the queue is full, until a wave that ends
    /// wakes it (newest first) and it finds a slot free — a fresh
    /// arrival may have taken the one that freed first — or it is shed.
    fn admit(&self) -> Result<bool, ServeError> {
        let inner = &self.inner;
        let mut waves = inner.queue.lock().expect("serve queue");
        if waves.running < inner.slots {
            waves.running += 1;
            return Ok(false);
        }
        let obs = inner.net.registry();
        if waves.waiting.len() >= inner.serve.queue_capacity {
            // Overload: shed the *oldest* waiter — it has burned the
            // most of its deadline already — and keep admitting fresh
            // work (LIFO shed).
            if let Some(oldest) = waves.waiting.pop_front() {
                obs.counter("serve.shed").inc();
                oldest.notify_one();
            }
        }
        let me = Arc::new(Condvar::new());
        waves.waiting.push_back(Arc::clone(&me));
        obs.counter("serve.queued").inc();
        let depth = obs.gauge("serve.queue_depth");
        depth.set(waves.waiting.len() as f64);
        loop {
            waves = me.wait(waves).expect("serve queue");
            let Some(at) = waves.waiting.iter().position(|w| Arc::ptr_eq(w, &me)) else {
                return Err(ServeError::Shed);
            };
            if waves.running < inner.slots {
                waves.waiting.remove(at);
                waves.running += 1;
                depth.set(waves.waiting.len() as f64);
                // Two waves may have ended before this caller woke: the
                // slot one of them freed must not sit idle.
                if waves.running < inner.slots {
                    if let Some(newest) = waves.waiting.back() {
                        newest.notify_one();
                    }
                }
                return Ok(true);
            }
        }
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
        // A dispatch worker reads the flag and parks under its queue's
        // lock: set it under that lock before waking them, or a worker
        // between its check and its wait sleeps through the wake-up and
        // the join below never returns. No caller is running or parked:
        // each borrows the server.
        {
            let _queue = self.inner.dispatch_q.lock().expect("dispatch queue");
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.dispatch_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A running slot, taken under the queue lock and counted in
/// `serve.inflight`. Dropping it — unwinding or not — frees the slot
/// and wakes the newest waiting caller to take it.
struct Running<'a>(&'a ServerInner);

impl<'a> Running<'a> {
    fn taken(inner: &'a ServerInner) -> Self {
        inner.net.registry().gauge("serve.inflight").add(1.0);
        Running(inner)
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let inner = self.0;
        inner.net.registry().gauge("serve.inflight").add(-1.0);
        let mut waves = inner.queue.lock().unwrap_or_else(PoisonError::into_inner);
        waves.running -= 1;
        // LIFO: the newest waiter has the most deadline left.
        let newest = waves.waiting.back().cloned();
        drop(waves);
        if let Some(newest) = newest {
            newest.notify_one();
        }
    }
}

/// Cache (again) → singleflight → (lead the wave) → fulfill, on the
/// caller's thread, which holds a running slot. `queue_stage` is how
/// long the caller waited for it (0 µs when one was free).
fn run_query(inner: &Arc<ServerInner>, job: QueryJob, queue_stage: StageCost) {
    let obs: &Registry = inner.net.registry();

    // The caller missed before it was admitted; an identical query's
    // wave may have landed since, and two that missed together must not
    // both dispatch.
    if let Some(hit) = inner.cache.lookup(&job.key, obs, true) {
        job.slot.fulfill(Ok(ServeOutcome {
            response: hit,
            wave: None,
            via: Served::CacheHit,
        }));
        return;
    }

    if !inner.flights.lead_or_join(&job.key, &job.slot) {
        // A wave for this exact query is already in flight: the leader
        // will fulfill our slot; this running slot is free for the next
        // miss.
        obs.counter("serve.singleflight.coalesced").inc();
        return;
    }
    obs.counter("serve.singleflight.leader").inc();

    // The merger is the caller's code: if the wave unwinds, the flight
    // still completes and everyone waiting on it is told, instead of
    // this thread unwinding with the key registered and the slots
    // unfilled.
    let led = catch_unwind(AssertUnwindSafe(|| {
        // Before dispatch: an invalidation from here on stales the response.
        let stamps = inner.cache.stamps(&job.plan.selected);
        let (response, report) = run_wave(inner, &job, queue_stage);
        let response = Arc::new(response);
        inner
            .cache
            .store(job.key.clone(), Arc::clone(&response), stamps);
        (response, Arc::new(report))
    }));
    if led.is_err() {
        obs.counter("serve.panics").inc();
    }
    let answer = |via| match &led {
        Ok((response, report)) => Ok(ServeOutcome {
            response: Arc::clone(response),
            wave: Some(Arc::clone(report)),
            via,
        }),
        Err(_) => Err(ServeError::Internal),
    };
    job.slot.fulfill(answer(Served::Executed));
    for follower in inner.flights.complete(&job.key) {
        follower.fulfill(answer(Served::Coalesced));
    }
}

/// Lead one dispatch wave — its exchanges on this thread or on the
/// shared pool, as [`wave::runs_on_leader`] says — and split what it
/// produced into the answer and the wave's report. The deadline's clock
/// starts here, when the wave takes a running slot — time spent queued
/// does not count against it.
fn run_wave(
    inner: &Arc<ServerInner>,
    job: &QueryJob,
    queue_stage: StageCost,
) -> (ServeResponse, WaveReport) {
    let obs: &Registry = inner.net.registry();
    let (plan, t0) = (&job.plan, job.t0);
    let deadline_ms = job.deadline_ms.unwrap_or(inner.serve.deadline_ms);
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
    let policy = |task: &DispatchTask| {
        let replica = inner.serve.replicas.get(&task.id).cloned();
        (hedge_delay(inner, &task.id), replica)
    };
    let here = wave::runs_on_leader(&inner.net, deadline);
    // A wave run here is decided before a hedge schedule would be read.
    let hedged = inner.serve.hedge.enabled && !here;
    let hedge = hedged.then_some(&policy as &wave::HedgePolicy<'_>);
    let client = StartsClient::new(&inner.net);
    let mut submit = |attempts: Vec<Attempt>| {
        if here {
            for attempt in attempts {
                attempt.run(&client, &inner.config.health);
            }
            return;
        }
        let mut dispatch_q = inner.dispatch_q.lock().expect("dispatch queue");
        dispatch_q.extend(attempts);
        drop(dispatch_q);
        inner.dispatch_cv.notify_all();
    };
    let wave = wave::lead(
        plan,
        &inner.config,
        obs,
        &job.query_id,
        t0,
        deadline,
        hedge,
        &mut submit,
    );
    if wave.expired {
        obs.counter("serve.partial").inc();
    }

    let mut root = StageCost::new("serve.query", 0, elapsed_us(t0))
        .with_meta("results", wave.merged.len())
        .with_meta("partial", wave.expired);
    root.children = vec![
        plan.select_stage.clone(),
        plan.adapt_stage.clone(),
        queue_stage,
        wave.dispatch_stage.with_meta("partial", wave.expired),
        wave.merge_stage,
    ];
    let profile = QueryProfile {
        query_id: job.query_id.clone(),
        root,
    };
    inner.config.recorder.record(&profile);
    inner.net.monitor().tick(obs);

    let response = ServeResponse {
        merged: wave.merged,
        selected: plan.selected.clone(),
        completeness: wave.completeness,
        partial: wave.expired,
        query_id: job.query_id.clone(),
    };
    let report = WaveReport {
        per_source: wave.per_source,
        stats: wave.stats,
        profile,
    };
    (response, report)
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

/// Dispatch-pool body: run queued attempts, whichever wave they belong
/// to. An attempt never unwinds, so the pool thread survives a
/// panicking endpoint.
fn dispatch_worker(inner: &Arc<ServerInner>) {
    loop {
        let attempt = {
            let mut queue = inner.dispatch_q.lock().expect("dispatch queue");
            loop {
                if let Some(attempt) = queue.pop_front() {
                    break attempt;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner.dispatch_cv.wait(queue).expect("dispatch queue");
            }
        };
        attempt.run(&StartsClient::new(&inner.net), &inner.config.health);
    }
}
