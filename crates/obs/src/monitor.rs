//! Continuous monitoring: windowed time series and SLO burn-rate
//! alerts for operators.
//!
//! Everything the registry exports is point-in-time: counters are
//! lifetime-cumulative and gauges are "now". An operator who has to
//! *decide* a source degraded (§3.4's continuous source tracking) needs
//! windows and thresholds instead. This module layers them on without
//! touching the metric pipeline:
//!
//! * a [`MetricStore`] samples registry [`Snapshot`]s into fixed-width
//!   ring buffers — counters are delta-encoded into per-second rates,
//!   gauges are sampled as-is, and histograms yield *windowed* p50/p99
//!   (from bucket-count deltas) plus an observation rate. Wall-clock
//!   timestamps come from a [`Clock`] so tests and the bench harness
//!   can run on a [`ManualClock`] and stay deterministic;
//! * [`SloSpec`]s declare objectives over those series (`meta.search
//!   p99 < 50ms`, per-source `error_rate < 1%`) evaluated with
//!   multi-window burn rates, the SRE alerting idiom: the fraction of
//!   bad samples in a short and a long window, each divided by the
//!   error budget `1 - objective`;
//! * an alert state machine (pending → firing → resolved, with a
//!   for-duration debounce so one bad sample never pages) appends
//!   structured events to an `alerts.jsonl` log and exports `alerts.*`
//!   and `slo.*` gauges into the registry, so the `@SStats` a host
//!   serves carries alert state for free.
//!
//! The [`Monitor`] bundles all three. `starts-net`'s `SimNet` owns one
//! and serves it at `<base>/alerts` as an `@SAlerts` object, and the
//! metasearcher ticks it after every search. Alerts are for operators:
//! source selection reads the [`HealthBoard`](crate::HealthBoard)
//! directly, never an alert.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::export::{fmt_f64, json_escape};
use crate::registry::{MetricId, Registry, Snapshot};

// ---------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------

/// A millisecond clock. The monitor never reads time directly: tests
/// and the bench harness inject a [`ManualClock`] so ring rotation,
/// burn windows, and for-duration debounce are deterministic; everyone
/// else uses the [`SystemClock`] wall clock.
pub trait Clock: Send + Sync {
    /// Milliseconds since the clock's epoch (Unix for the system
    /// clock, arbitrary for a manual one).
    fn now_ms(&self) -> u64;
}

/// The wall clock (Unix epoch milliseconds).
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64)
    }
}

/// A deterministic clock advanced by hand.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock starting at `start_ms`.
    pub fn new(start_ms: u64) -> Self {
        ManualClock(AtomicU64::new(start_ms))
    }

    /// Advance the clock by `ms`.
    pub fn advance(&self, ms: u64) {
        self.0.fetch_add(ms, Ordering::SeqCst);
    }

    /// Jump the clock to an absolute time.
    pub fn set(&self, ms: u64) {
        self.0.store(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// MetricStore: snapshots → ring-buffered series
// ---------------------------------------------------------------------

/// Which derived series of a metric a key refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Aspect {
    /// Per-second rate (counter deltas; histogram observation counts).
    Rate,
    /// The sampled value (gauges).
    Value,
    /// Windowed median from histogram bucket deltas.
    P50,
    /// Windowed 99th percentile from histogram bucket deltas.
    P99,
}

impl Aspect {
    /// Short name, used in the `@SAlerts` encoding.
    pub fn name(self) -> &'static str {
        match self {
            Aspect::Rate => "rate",
            Aspect::Value => "value",
            Aspect::P50 => "p50",
            Aspect::P99 => "p99",
        }
    }

    /// Parse a short name back into an aspect.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rate" => Some(Aspect::Rate),
            "value" => Some(Aspect::Value),
            "p50" => Some(Aspect::P50),
            "p99" => Some(Aspect::P99),
            _ => None,
        }
    }
}

/// Identity of one time series: a metric plus the derived aspect.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeriesKey {
    /// The underlying metric.
    pub id: MetricId,
    /// Which derived series of that metric.
    pub aspect: Aspect,
}

/// One sample in a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Sample timestamp (clock milliseconds).
    pub t_ms: u64,
    /// Sample value.
    pub value: f64,
}

/// Ring-buffer sizing for the [`MetricStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Minimum milliseconds between samples; ticks arriving earlier
    /// are no-ops, so callers can tick on every request.
    pub step_ms: u64,
    /// Points kept per series (the ring width).
    pub retention: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            step_ms: 1_000,
            retention: 256,
        }
    }
}

#[derive(Default)]
struct Ring {
    points: VecDeque<Point>,
}

impl Ring {
    fn push(&mut self, cap: usize, p: Point) {
        if self.points.len() == cap.max(1) {
            self.points.pop_front();
        }
        self.points.push_back(p);
    }
}

#[derive(Default)]
struct StoreInner {
    /// Timestamp of the last recorded sample.
    last_ms: Option<u64>,
    /// Whether the first (baseline) sample has been taken. Counters
    /// and histograms only emit deltas from the second sample on; a
    /// metric first seen *after* the baseline has an implicit previous
    /// value of zero (registry counters start at zero), so it emits
    /// immediately.
    primed: bool,
    prev_counters: HashMap<MetricId, u64>,
    prev_buckets: HashMap<MetricId, Vec<(u64, u64)>>,
    series: HashMap<SeriesKey, Ring>,
}

/// Samples registry snapshots into fixed-width ring-buffered series.
pub struct MetricStore {
    cfg: StoreConfig,
    clock: Arc<dyn Clock>,
    inner: Mutex<StoreInner>,
}

impl MetricStore {
    /// A store sampling on the given clock.
    pub fn new(cfg: StoreConfig, clock: Arc<dyn Clock>) -> Self {
        MetricStore {
            cfg,
            clock,
            inner: Mutex::new(StoreInner::default()),
        }
    }

    /// Sample width in milliseconds.
    pub fn step_ms(&self) -> u64 {
        self.cfg.step_ms
    }

    /// Points kept per series.
    pub fn retention(&self) -> usize {
        self.cfg.retention
    }

    /// Whether a tick right now would record a sample (a full step has
    /// elapsed, or nothing was sampled yet). Lets callers skip the
    /// snapshot cost between steps.
    pub fn due(&self) -> bool {
        let now = self.clock.now_ms();
        match self.inner.lock().last_ms {
            Some(last) => now >= last.saturating_add(self.cfg.step_ms),
            None => true,
        }
    }

    /// Record one sample from a snapshot, if a full step has elapsed.
    /// Returns the sample timestamp when one was recorded.
    ///
    /// The first tick establishes delta baselines (counters and
    /// histograms carry lifetime totals, so the first sighting cannot
    /// be turned into a rate); gauges emit from the first tick.
    pub fn tick(&self, snap: &Snapshot) -> Option<u64> {
        let mut inner = self.inner.lock();
        // Clock read under the lock: ticks serialize here, and the
        // clock is monotone, so ring timestamps never go backwards.
        let now = self.clock.now_ms();
        if let Some(last) = inner.last_ms {
            if now < last.saturating_add(self.cfg.step_ms) {
                return None;
            }
        }
        let dt_s = inner
            .last_ms
            .map(|last| (now.saturating_sub(last) as f64 / 1_000.0).max(1e-9));
        let primed = inner.primed;
        let cap = self.cfg.retention;

        for c in &snap.counters {
            let prev = inner.prev_counters.insert(c.id.clone(), c.value);
            if !primed {
                continue;
            }
            let delta = c.value.saturating_sub(prev.unwrap_or(0));
            let rate = delta as f64 / dt_s.unwrap_or(1.0);
            let key = SeriesKey {
                id: c.id.clone(),
                aspect: Aspect::Rate,
            };
            inner.series.entry(key).or_default().push(
                cap,
                Point {
                    t_ms: now,
                    value: rate,
                },
            );
        }
        for g in &snap.gauges {
            let key = SeriesKey {
                id: g.id.clone(),
                aspect: Aspect::Value,
            };
            inner.series.entry(key).or_default().push(
                cap,
                Point {
                    t_ms: now,
                    value: g.value,
                },
            );
        }
        for h in &snap.histograms {
            let prev = inner.prev_buckets.insert(h.id.clone(), h.buckets.clone());
            if !primed {
                continue;
            }
            let prev = prev.unwrap_or_default();
            let deltas = bucket_deltas(&h.buckets, &prev);
            let total: u64 = deltas.iter().map(|&(_, n)| n).sum();
            let mut put = |aspect: Aspect, value: f64| {
                let key = SeriesKey {
                    id: h.id.clone(),
                    aspect,
                };
                inner
                    .series
                    .entry(key)
                    .or_default()
                    .push(cap, Point { t_ms: now, value });
            };
            put(Aspect::Rate, total as f64 / dt_s.unwrap_or(1.0));
            if total > 0 {
                put(Aspect::P50, bucket_quantile(&deltas, total, 0.50));
                put(Aspect::P99, bucket_quantile(&deltas, total, 0.99));
            }
        }
        inner.primed = true;
        inner.last_ms = Some(now);
        Some(now)
    }

    /// The points of one series, oldest first (empty if unknown).
    pub fn series(&self, name: &str, labels: &[(&str, &str)], aspect: Aspect) -> Vec<Point> {
        let key = SeriesKey {
            id: MetricId::new(name, labels),
            aspect,
        };
        self.inner
            .lock()
            .series
            .get(&key)
            .map(|r| r.points.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All series of `metric`/`aspect` whose labels include every
    /// `fixed` pair — the wildcard-expansion primitive behind
    /// per-source SLOs. Returns `(id, points)` pairs sorted by id.
    pub fn matching(
        &self,
        metric: &str,
        aspect: Aspect,
        fixed: &[(String, String)],
    ) -> Vec<(MetricId, Vec<Point>)> {
        let inner = self.inner.lock();
        let mut out: Vec<(MetricId, Vec<Point>)> = inner
            .series
            .iter()
            .filter(|(k, _)| {
                k.aspect == aspect
                    && k.id.name == metric
                    && fixed
                        .iter()
                        .all(|(fk, fv)| k.id.labels.iter().any(|(lk, lv)| lk == fk && lv == fv))
            })
            .map(|(k, r)| (k.id.clone(), r.points.iter().copied().collect()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Per-bucket observation deltas between two cumulative bucket lists,
/// keyed by bucket upper bound (the lists may differ in which buckets
/// they materialize). Sorted by upper bound.
fn bucket_deltas(current: &[(u64, u64)], prev: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let prev: HashMap<u64, u64> = prev.iter().copied().collect();
    let mut deltas: Vec<(u64, u64)> = current
        .iter()
        .map(|&(upper, n)| {
            (
                upper,
                n.saturating_sub(prev.get(&upper).copied().unwrap_or(0)),
            )
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    deltas.sort_unstable();
    deltas
}

/// The q-quantile of a windowed bucket-delta distribution: the upper
/// bound of the bucket containing the ⌈q·total⌉-th observation.
fn bucket_quantile(deltas: &[(u64, u64)], total: u64, q: f64) -> f64 {
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(upper, n) in deltas {
        seen += n;
        if seen >= rank {
            return upper as f64;
        }
    }
    deltas.last().map_or(0.0, |&(upper, _)| upper as f64)
}

// ---------------------------------------------------------------------
// SLOs with multi-window burn rates
// ---------------------------------------------------------------------

/// The direction of an objective: the series is *good* when
/// `value op threshold` holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOp {
    /// Good when the value is strictly below the threshold.
    Lt,
    /// Good when the value is strictly above the threshold.
    Gt,
}

/// An objective over one stored series (or a per-source family of
/// them), evaluated with multi-window burn rates.
///
/// The burn rate of a window is `bad_fraction / (1 - objective)`: 1.0
/// means the error budget is being consumed exactly as provisioned,
/// higher means faster. The SLO *breaches* when both the short and the
/// long window burn at or above [`burn_threshold`] — the short window
/// makes alerts responsive, the long window keeps one bad sample after
/// a quiet hour from paging.
///
/// A label value of `"*"` is a wildcard: the spec expands to one
/// status (and one alert) per concrete series matching the remaining
/// labels, which is how "per-source error_rate < 1%" is written.
///
/// [`burn_threshold`]: SloSpec::burn_threshold
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Objective name (also the alert name).
    pub name: String,
    /// The metric the objective reads.
    pub metric: String,
    /// Label selector; `"*"` values expand per matching series.
    pub labels: Vec<(String, String)>,
    /// Which derived series of the metric.
    pub aspect: Aspect,
    /// Good-direction comparison.
    pub op: SloOp,
    /// The objective's threshold on the series value.
    pub threshold: f64,
    /// Target compliance in `(0, 1)`, e.g. `0.99` = 1% error budget.
    pub objective: f64,
    /// Short burn window, in samples.
    pub short_window: usize,
    /// Long burn window, in samples.
    pub long_window: usize,
    /// Both windows must burn at or above this to breach.
    pub burn_threshold: f64,
    /// How long the breach must persist before the alert fires.
    pub for_ms: u64,
}

impl SloSpec {
    /// An objective with the conventional defaults: 99% target, 5/30
    /// sample windows, burn threshold 1, 2-second for-duration.
    pub fn new(
        name: impl Into<String>,
        metric: impl Into<String>,
        labels: &[(&str, &str)],
        aspect: Aspect,
        op: SloOp,
        threshold: f64,
    ) -> Self {
        SloSpec {
            name: name.into(),
            metric: metric.into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            aspect,
            op,
            threshold,
            objective: 0.99,
            short_window: 5,
            long_window: 30,
            burn_threshold: 1.0,
            for_ms: 2_000,
        }
    }
}

/// The evaluated state of one (possibly wildcard-expanded) objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Objective name.
    pub slo: String,
    /// The expanded `source` label, for per-source objectives.
    pub source: Option<String>,
    /// Newest sample of the underlying series.
    pub latest: Option<f64>,
    /// Burn rate over the short window.
    pub burn_short: f64,
    /// Burn rate over the long window.
    pub burn_long: f64,
    /// Whether both windows burn at or above the spec's threshold.
    pub breaching: bool,
}

fn burn_rate(points: &[Point], window: usize, spec: &SloSpec) -> f64 {
    let tail = &points[points.len().saturating_sub(window.max(1))..];
    if tail.is_empty() {
        return 0.0;
    }
    // A sample is *bad* unless the good-direction comparison holds, so
    // NaN counts against the budget rather than for it.
    let bad = tail
        .iter()
        .filter(|p| {
            let good = match spec.op {
                SloOp::Lt => p.value < spec.threshold,
                SloOp::Gt => p.value > spec.threshold,
            };
            !good
        })
        .count();
    let budget = (1.0 - spec.objective).max(1e-9);
    (bad as f64 / tail.len() as f64) / budget
}

fn evaluate_slo(store: &MetricStore, spec: &SloSpec) -> Vec<SloStatus> {
    let fixed: Vec<(String, String)> = spec
        .labels
        .iter()
        .filter(|(_, v)| v != "*")
        .cloned()
        .collect();
    let wildcard = fixed.len() != spec.labels.len();
    let families: Vec<(Option<String>, Vec<Point>)> = if wildcard {
        store
            .matching(&spec.metric, spec.aspect, &fixed)
            .into_iter()
            .map(|(id, points)| {
                let source = id
                    .labels
                    .iter()
                    .find(|(k, _)| k == "source")
                    .map(|(_, v)| v.clone());
                (source, points)
            })
            .collect()
    } else {
        let labels: Vec<(&str, &str)> = fixed
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        vec![(None, store.series(&spec.metric, &labels, spec.aspect))]
    };
    families
        .into_iter()
        .map(|(source, points)| {
            let burn_short = burn_rate(&points, spec.short_window, spec);
            let burn_long = burn_rate(&points, spec.long_window, spec);
            SloStatus {
                slo: spec.name.clone(),
                source,
                latest: points.last().map(|p| p.value),
                burn_short,
                burn_long,
                breaching: burn_short >= spec.burn_threshold && burn_long >= spec.burn_threshold,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Alert state machine
// ---------------------------------------------------------------------

/// The lifecycle state of one alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// Condition false, nothing brewing.
    Idle,
    /// Condition true, waiting out the for-duration.
    Pending,
    /// Condition held for the for-duration.
    Firing,
    /// Condition cleared after firing.
    Resolved,
}

impl AlertState {
    /// Short name, used in events, logs, and the `@SAlerts` encoding.
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Idle => "idle",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "idle" => Some(AlertState::Idle),
            "pending" => Some(AlertState::Pending),
            "firing" => Some(AlertState::Firing),
            "resolved" => Some(AlertState::Resolved),
            _ => None,
        }
    }

    fn rank(self) -> f64 {
        match self {
            AlertState::Idle => 0.0,
            AlertState::Pending => 1.0,
            AlertState::Firing => 2.0,
            AlertState::Resolved => 3.0,
        }
    }
}

/// The current state of one alert.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertStatus {
    /// Alert name (the SLO name).
    pub name: String,
    /// The source the alert is about, for per-source alerts.
    pub source: Option<String>,
    /// Current lifecycle state.
    pub state: AlertState,
    /// When the current state was entered (clock milliseconds).
    pub since_ms: u64,
    /// The observed value behind the condition (the short-window burn
    /// rate).
    pub value: f64,
    /// The threshold the value is compared against.
    pub threshold: f64,
}

/// One state transition, as appended to the `alerts.jsonl` log.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Transition timestamp (clock milliseconds).
    pub ts_ms: u64,
    /// Alert name.
    pub alert: String,
    /// The source the alert is about, if per-source.
    pub source: Option<String>,
    /// The state entered (pending, firing, or resolved).
    pub state: AlertState,
    /// Observed value at transition time.
    pub value: f64,
    /// Condition threshold.
    pub threshold: f64,
}

impl AlertEvent {
    /// The event as one JSON line (the `alerts.jsonl` format).
    pub fn to_json(&self) -> String {
        let source = match &self.source {
            Some(s) => format!(",\"source\":\"{}\"", json_escape(s)),
            None => String::new(),
        };
        format!(
            "{{\"ts_ms\":{},\"alert\":\"{}\"{source},\"state\":\"{}\",\"value\":{},\"threshold\":{}}}",
            self.ts_ms,
            json_escape(&self.alert),
            self.state.name(),
            fmt_f64(self.value),
            fmt_f64(self.threshold),
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct AlertInstance {
    state: AlertState,
    since_ms: u64,
    value: f64,
    threshold: f64,
}

// ---------------------------------------------------------------------
// Monitor
// ---------------------------------------------------------------------

/// Everything a [`Monitor`] needs: sampling cadence, objectives, the
/// clock, and the event log.
pub struct MonitorConfig {
    /// Ring-buffer sizing for the metric store.
    pub store: StoreConfig,
    /// The objectives to evaluate each sample.
    pub slos: Vec<SloSpec>,
    /// Time source; inject a [`ManualClock`] for determinism.
    pub clock: Arc<dyn Clock>,
    /// Where to append structured alert events (JSON Lines), if
    /// anywhere.
    pub log_path: Option<PathBuf>,
    /// Transition events kept in memory for `/alerts` and dashboards.
    pub events_kept: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            store: StoreConfig::default(),
            slos: default_slos(),
            clock: Arc::new(SystemClock),
            log_path: None,
            events_kept: 256,
        }
    }
}

/// The stock objectives: federated-search latency and per-source
/// reliability, the two §3.4 cares about.
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        // meta.search p99 < 50ms, from the windowed span histogram.
        SloSpec::new(
            "meta-search-p99",
            "span.duration_us",
            &[("span", "meta.search")],
            Aspect::P99,
            SloOp::Lt,
            50_000.0,
        ),
        // Per-source error rate < 1%, from the health board's gauges.
        SloSpec::new(
            "source-error-rate",
            "health.error_rate",
            &[("source", "*")],
            Aspect::Value,
            SloOp::Lt,
            0.01,
        ),
        // Serving-layer end-to-end p99 < 100ms, from the executor's
        // windowed latency histogram (`starts-serve`). Burns nothing on
        // nets that never serve: an absent series never breaches.
        SloSpec::new(
            "serve-p99",
            "serve.latency_us",
            &[],
            Aspect::P99,
            SloOp::Lt,
            100_000.0,
        ),
        // Admission-queue sheds should be rare: the shed rate (events
        // per second over the sampling window) staying under 1/s is the
        // stock overload objective.
        SloSpec::new(
            "serve-shed-rate",
            "serve.shed",
            &[],
            Aspect::Rate,
            SloOp::Lt,
            1.0,
        ),
    ]
}

#[derive(Default)]
struct MonitorState {
    alerts: BTreeMap<(String, Option<String>), AlertInstance>,
    events: VecDeque<AlertEvent>,
    events_kept: usize,
    events_total: u64,
    log_path: Option<PathBuf>,
    last_slo: Vec<SloStatus>,
}

/// The time-series and alerting layer: samples a registry on
/// [`tick`], evaluates SLO burn rates, advances the alert state
/// machine, logs transitions, and exports `slo.*` / `alerts.*` gauges
/// back into the registry.
///
/// [`tick`]: Monitor::tick
pub struct Monitor {
    store: MetricStore,
    slos: Vec<SloSpec>,
    state: Mutex<MonitorState>,
}

impl Default for Monitor {
    fn default() -> Self {
        Monitor::new(MonitorConfig::default())
    }
}

impl Monitor {
    /// Build a monitor from a configuration.
    pub fn new(cfg: MonitorConfig) -> Self {
        Monitor {
            store: MetricStore::new(cfg.store, cfg.clock),
            slos: cfg.slos,
            state: Mutex::new(MonitorState {
                alerts: BTreeMap::new(),
                events: VecDeque::new(),
                events_kept: cfg.events_kept.max(1),
                events_total: 0,
                log_path: cfg.log_path,
                last_slo: Vec::new(),
            }),
        }
    }

    /// The underlying time-series store (for dashboards).
    pub fn store(&self) -> &MetricStore {
        &self.store
    }

    /// Point the structured event log at a file (JSON Lines, append).
    pub fn set_log(&self, path: impl Into<PathBuf>) {
        self.state.lock().log_path = Some(path.into());
    }

    /// Sample the registry and run one evaluation pass, if a full step
    /// has elapsed since the last sample. Returns whether a sample was
    /// recorded. Cheap to call on every request: between steps it is a
    /// clock read.
    pub fn tick(&self, reg: &Registry) -> bool {
        if !self.store.due() {
            return false;
        }
        let snap = reg.snapshot();
        let Some(now) = self.store.tick(&snap) else {
            return false;
        };
        self.evaluate(reg, now);
        true
    }

    fn evaluate(&self, reg: &Registry, now: u64) {
        let mut st = self.state.lock();

        // 1. Objectives → burn rates: one status, and one alert, per
        // (possibly wildcard-expanded) objective.
        let statuses: Vec<(&SloSpec, SloStatus)> = self
            .slos
            .iter()
            .flat_map(|spec| {
                evaluate_slo(&self.store, spec)
                    .into_iter()
                    .map(move |status| (spec, status))
            })
            .collect();

        // 2. Advance the state machine, collecting transition events.
        let mut events: Vec<AlertEvent> = Vec::new();
        for (spec, status) in &statuses {
            let key = (status.slo.clone(), status.source.clone());
            let inst = st.alerts.entry(key).or_insert(AlertInstance {
                state: AlertState::Idle,
                since_ms: now,
                value: 0.0,
                threshold: spec.burn_threshold,
            });
            inst.value = status.burn_short;
            inst.threshold = spec.burn_threshold;
            let mut enter = |inst: &mut AlertInstance, state: AlertState, emit: bool| {
                inst.state = state;
                inst.since_ms = now;
                if emit {
                    events.push(AlertEvent {
                        ts_ms: now,
                        alert: status.slo.clone(),
                        source: status.source.clone(),
                        state,
                        value: status.burn_short,
                        threshold: spec.burn_threshold,
                    });
                }
            };
            match (inst.state, status.breaching) {
                (AlertState::Idle | AlertState::Resolved, true) => {
                    enter(inst, AlertState::Pending, true);
                    if spec.for_ms == 0 {
                        enter(inst, AlertState::Firing, true);
                    }
                }
                (AlertState::Pending, true) if now.saturating_sub(inst.since_ms) >= spec.for_ms => {
                    enter(inst, AlertState::Firing, true);
                }
                // A blip shorter than the for-duration dies silently:
                // this is the flap suppression.
                (AlertState::Pending, false) => enter(inst, AlertState::Idle, false),
                (AlertState::Firing, false) => enter(inst, AlertState::Resolved, true),
                _ => {}
            }
        }

        // 3. Log and retain the events.
        if !events.is_empty() {
            if let Some(path) = st.log_path.clone() {
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                {
                    for e in &events {
                        let _ = writeln!(f, "{}", e.to_json());
                    }
                }
            }
            st.events_total += events.len() as u64;
            for e in events {
                if st.events.len() == st.events_kept {
                    st.events.pop_front();
                }
                st.events.push_back(e);
            }
        }

        // 4. Export slo.* / alerts.* gauges so every exporter — and
        // the /stats endpoint — carries alerting state.
        for (_, s) in &statuses {
            let mut labels: Vec<(&str, &str)> = vec![("slo", s.slo.as_str())];
            if let Some(src) = &s.source {
                labels.push(("source", src.as_str()));
            }
            reg.gauge_with("slo.burn_short", &labels).set(s.burn_short);
            reg.gauge_with("slo.burn_long", &labels).set(s.burn_long);
            reg.gauge_with("slo.breaching", &labels)
                .set(if s.breaching { 1.0 } else { 0.0 });
        }
        let firing = st
            .alerts
            .values()
            .filter(|a| a.state == AlertState::Firing)
            .count();
        let pending = st
            .alerts
            .values()
            .filter(|a| a.state == AlertState::Pending)
            .count();
        reg.gauge("alerts.firing").set(firing as f64);
        reg.gauge("alerts.pending").set(pending as f64);
        reg.gauge("alerts.events").set(st.events_total as f64);
        for ((name, source), inst) in &st.alerts {
            let mut labels: Vec<(&str, &str)> = vec![("alert", name.as_str())];
            if let Some(src) = source {
                labels.push(("source", src.as_str()));
            }
            reg.gauge_with("alerts.state", &labels)
                .set(inst.state.rank());
        }

        st.last_slo = statuses.into_iter().map(|(_, s)| s).collect();
    }

    /// The objectives' most recent evaluation.
    pub fn slo_status(&self) -> Vec<SloStatus> {
        self.state.lock().last_slo.clone()
    }

    /// Every alert's current state, sorted by (name, source).
    pub fn alerts(&self) -> Vec<AlertStatus> {
        self.state
            .lock()
            .alerts
            .iter()
            .map(|((name, source), inst)| AlertStatus {
                name: name.clone(),
                source: source.clone(),
                state: inst.state,
                since_ms: inst.since_ms,
                value: inst.value,
                threshold: inst.threshold,
            })
            .collect()
    }

    /// The alerts currently firing.
    pub fn firing(&self) -> Vec<AlertStatus> {
        self.alerts()
            .into_iter()
            .filter(|a| a.state == AlertState::Firing)
            .collect()
    }

    /// Whether any alert about `source` is firing. For operators and
    /// tests: selection judges a source by its health-board score alone.
    pub fn is_source_firing(&self, source: &str) -> bool {
        self.state.lock().alerts.iter().any(|((_, src), inst)| {
            inst.state == AlertState::Firing && src.as_deref() == Some(source)
        })
    }

    /// Recent transition events, oldest first.
    pub fn recent_events(&self) -> Vec<AlertEvent> {
        self.state.lock().events.iter().cloned().collect()
    }

    /// Total transition events emitted since construction.
    pub fn events_total(&self) -> u64 {
        self.state.lock().events_total
    }

    /// One human line summarizing SLO and alert state, e.g. for the
    /// quickstart example or a CLI status dump.
    pub fn summary_line(&self) -> String {
        let st = self.state.lock();
        let objectives = st.last_slo.len();
        let breaching = st.last_slo.iter().filter(|s| s.breaching).count();
        let firing = st
            .alerts
            .values()
            .filter(|a| a.state == AlertState::Firing)
            .count();
        let pending = st
            .alerts
            .values()
            .filter(|a| a.state == AlertState::Pending)
            .count();
        format!(
            "slo: {objectives} objectives, {breaching} breaching | alerts: {firing} firing, \
             {pending} pending | {} events",
            st.events_total
        )
    }

    /// A self-contained snapshot of alerting state (for `/alerts`).
    pub fn snapshot_alerts(&self) -> AlertsSnapshot {
        let st = self.state.lock();
        AlertsSnapshot {
            generated_ms: self.store.clock.now_ms(),
            slos: st.last_slo.clone(),
            alerts: st
                .alerts
                .iter()
                .map(|((name, source), inst)| AlertStatus {
                    name: name.clone(),
                    source: source.clone(),
                    state: inst.state,
                    since_ms: inst.since_ms,
                    value: inst.value,
                    threshold: inst.threshold,
                })
                .collect(),
            events: st.events.iter().cloned().collect(),
        }
    }
}

// ---------------------------------------------------------------------
// @SAlerts: alert state in the protocol's own object model
// ---------------------------------------------------------------------

/// A decoded `/alerts` payload: current alert states, the latest SLO
/// evaluation, and recent transition events. Its wire form, the
/// `@SAlerts` object, is written and read in [`crate::export`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertsSnapshot {
    /// When the snapshot was taken (clock milliseconds).
    pub generated_ms: u64,
    /// Latest SLO evaluation.
    pub slos: Vec<SloStatus>,
    /// Every alert's current state.
    pub alerts: Vec<AlertStatus>,
    /// Recent transition events, oldest first.
    pub events: Vec<AlertEvent>,
}

impl AlertsSnapshot {
    /// The alerts currently firing.
    pub fn firing(&self) -> Vec<&AlertStatus> {
        self.alerts
            .iter()
            .filter(|a| a.state == AlertState::Firing)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_soif::ParseMode;

    fn manual() -> (Arc<ManualClock>, Arc<dyn Clock>) {
        let c = Arc::new(ManualClock::new(1_000_000));
        (Arc::clone(&c), c.clone() as Arc<dyn Clock>)
    }

    fn store(clock: Arc<dyn Clock>, step_ms: u64, retention: usize) -> MetricStore {
        MetricStore::new(StoreConfig { step_ms, retention }, clock)
    }

    #[test]
    fn counters_delta_encode_into_rates() {
        let (clock, dynck) = manual();
        let store = store(dynck, 1_000, 16);
        let reg = Registry::new();
        let c = reg.counter("requests");
        c.add(100); // pre-baseline history must not become a rate spike
        assert!(store.tick(&reg.snapshot()).is_some());
        assert!(store.series("requests", &[], Aspect::Rate).is_empty());

        c.add(50);
        clock.advance(1_000);
        assert!(store.tick(&reg.snapshot()).is_some());
        let pts = store.series("requests", &[], Aspect::Rate);
        assert_eq!(pts.len(), 1);
        assert!((pts[0].value - 50.0).abs() < 1e-9, "{pts:?}");

        // A counter born after the baseline emits from zero at once.
        reg.counter("late").add(10);
        clock.advance(2_000);
        assert!(store.tick(&reg.snapshot()).is_some());
        let late = store.series("late", &[], Aspect::Rate);
        assert_eq!(late.len(), 1);
        assert!((late[0].value - 5.0).abs() < 1e-9, "{late:?}");
    }

    #[test]
    fn ticks_between_steps_are_no_ops() {
        let (clock, dynck) = manual();
        let store = store(dynck, 1_000, 16);
        let reg = Registry::new();
        reg.gauge("g").set(1.0);
        assert!(store.tick(&reg.snapshot()).is_some());
        clock.advance(400);
        assert!(!store.due());
        assert!(store.tick(&reg.snapshot()).is_none());
        clock.advance(600);
        assert!(store.due());
        assert!(store.tick(&reg.snapshot()).is_some());
        assert_eq!(store.series("g", &[], Aspect::Value).len(), 2);
    }

    #[test]
    fn rings_rotate_at_retention() {
        let (clock, dynck) = manual();
        let store = store(dynck, 100, 4);
        let reg = Registry::new();
        for i in 0..10 {
            reg.gauge("g").set(i as f64);
            store.tick(&reg.snapshot());
            clock.advance(100);
        }
        let pts = store.series("g", &[], Aspect::Value);
        assert_eq!(pts.len(), 4);
        let values: Vec<f64> = pts.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![6.0, 7.0, 8.0, 9.0]);
        assert!(pts.windows(2).all(|w| w[0].t_ms < w[1].t_ms));
    }

    #[test]
    fn histograms_yield_windowed_quantiles() {
        let (clock, dynck) = manual();
        let store = store(dynck, 1_000, 16);
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for v in [10, 10, 10] {
            h.observe(v);
        }
        store.tick(&reg.snapshot()); // baseline
                                     // A window full of 5_000s: the *windowed* p99 must reflect it
                                     // even though the lifetime histogram is still mostly 10s.
        for _ in 0..10 {
            h.observe(5_000);
        }
        clock.advance(1_000);
        store.tick(&reg.snapshot());
        let p99 = store.series("lat", &[], Aspect::P99).last().unwrap().value;
        assert!(p99 >= 5_000.0, "windowed p99 {p99}");
        let rate = store.series("lat", &[], Aspect::Rate).last().unwrap().value;
        assert!((rate - 10.0).abs() < 1e-9, "rate {rate}");
    }

    fn error_rate_slo(for_ms: u64) -> SloSpec {
        SloSpec {
            objective: 0.9,
            short_window: 2,
            long_window: 4,
            for_ms,
            ..SloSpec::new(
                "source-error-rate",
                "health.error_rate",
                &[("source", "*")],
                Aspect::Value,
                SloOp::Lt,
                0.01,
            )
        }
    }

    fn monitor_with(clock: Arc<dyn Clock>, slos: Vec<SloSpec>) -> Monitor {
        Monitor::new(MonitorConfig {
            store: StoreConfig {
                step_ms: 1_000,
                retention: 32,
            },
            slos,
            clock,
            log_path: None,
            events_kept: 64,
        })
    }

    /// The pinned lifecycle: an injected degradation walks
    /// pending → firing → resolved, and a sub-for-duration blip never
    /// fires (flap suppression).
    #[test]
    fn alert_state_machine_lifecycle_and_flap_suppression() {
        let (clock, dynck) = manual();
        let monitor = monitor_with(dynck, vec![error_rate_slo(2_000)]);
        let reg = Registry::new();
        let gauge = reg.gauge_with("health.error_rate", &[("source", "S1")]);

        let step = |value: f64| {
            gauge.set(value);
            clock.advance(1_000);
            assert!(monitor.tick(&reg));
        };

        // Healthy samples: no alerts, no events.
        for _ in 0..4 {
            step(0.0);
        }
        assert!(monitor.firing().is_empty());
        assert_eq!(monitor.events_total(), 0);

        // One bad sample, then recovery: pending only, suppressed.
        step(0.5);
        let a = &monitor.alerts()[0];
        assert_eq!(a.state, AlertState::Pending);
        step(0.0);
        // Recovery needs the short window (2 samples) to clear.
        step(0.0);
        assert_eq!(monitor.alerts()[0].state, AlertState::Idle);
        let states: Vec<AlertState> = monitor.recent_events().iter().map(|e| e.state).collect();
        assert!(
            !states.contains(&AlertState::Firing),
            "a one-sample blip must not fire: {states:?}"
        );

        // Sustained degradation: pending, then firing after for_ms.
        step(0.5); // pending again
        step(0.5); // 1s pending
        step(0.5); // 2s pending -> firing
        assert_eq!(monitor.alerts()[0].state, AlertState::Firing);
        assert!(monitor.is_source_firing("S1"));
        assert!(!monitor.is_source_firing("S2"));

        // Recovery: both windows drain, then the alert resolves.
        step(0.0);
        step(0.0);
        assert_eq!(monitor.alerts()[0].state, AlertState::Resolved);
        assert!(!monitor.is_source_firing("S1"));
        let states: Vec<AlertState> = monitor.recent_events().iter().map(|e| e.state).collect();
        assert_eq!(
            states,
            vec![
                AlertState::Pending, // the suppressed blip
                AlertState::Pending,
                AlertState::Firing,
                AlertState::Resolved,
            ]
        );
    }

    #[test]
    fn firing_alerts_export_through_sstats() {
        let (clock, dynck) = manual();
        let monitor = monitor_with(dynck, vec![error_rate_slo(0)]);
        let reg = Registry::new();
        let gauge = reg.gauge_with("health.error_rate", &[("source", "bad")]);
        for _ in 0..3 {
            gauge.set(1.0);
            clock.advance(1_000);
            monitor.tick(&reg);
        }
        assert!(monitor.is_source_firing("bad"));
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("alerts.firing", &[]), 1.0);
        assert_eq!(
            snap.gauge(
                "alerts.state",
                &[("alert", "source-error-rate"), ("source", "bad")]
            ),
            AlertState::Firing.rank()
        );
        assert_eq!(
            snap.gauge(
                "slo.breaching",
                &[("slo", "source-error-rate"), ("source", "bad")]
            ),
            1.0
        );
        // @SStats carries the gauges.
        let back = Snapshot::from_soif_bytes(&snap.to_soif_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(back.gauge("alerts.firing", &[]), 1.0);
    }

    #[test]
    fn events_append_to_jsonl_log() {
        let (clock, dynck) = manual();
        let path =
            std::env::temp_dir().join(format!("starts_monitor_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let monitor = monitor_with(dynck, vec![error_rate_slo(0)]);
        monitor.set_log(&path);
        let reg = Registry::new();
        let gauge = reg.gauge_with("health.error_rate", &[("source", "S1")]);
        for v in [1.0, 1.0, 0.0, 0.0] {
            gauge.set(v);
            clock.advance(1_000);
            monitor.tick(&reg);
        }
        let text = std::fs::read_to_string(&path).expect("alert log written");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "{lines:?}");
        assert!(lines[0].contains("\"state\":\"pending\""), "{}", lines[0]);
        assert!(lines[1].contains("\"state\":\"firing\""), "{}", lines[1]);
        assert!(
            lines.last().unwrap().contains("\"state\":\"resolved\""),
            "{text}"
        );
        for line in &lines {
            assert!(line.starts_with("{\"ts_ms\":"), "{line}");
            assert!(line.contains("\"alert\":\"source-error-rate\""), "{line}");
            assert!(line.contains("\"source\":\"S1\""), "{line}");
        }
    }

    #[test]
    fn salerts_round_trips_through_the_parser() {
        let snap = AlertsSnapshot {
            generated_ms: 123_456,
            slos: vec![SloStatus {
                slo: "source-error-rate".to_string(),
                source: Some("S one \"quoted\"".to_string()),
                latest: Some(0.25),
                burn_short: 2.5,
                burn_long: 1.25,
                breaching: true,
            }],
            alerts: vec![AlertStatus {
                name: "source-error-rate".to_string(),
                source: Some("S one \"quoted\"".to_string()),
                state: AlertState::Firing,
                since_ms: 120_000,
                value: 2.5,
                threshold: 1.0,
            }],
            events: vec![AlertEvent {
                ts_ms: 120_000,
                alert: "source-error-rate".to_string(),
                source: None,
                state: AlertState::Pending,
                value: 2.5,
                threshold: 1.0,
            }],
        };
        let bytes = snap.to_soif_bytes();
        let obj = starts_soif::parse_one(&bytes, ParseMode::Strict).unwrap();
        assert_eq!(obj.template, crate::export::SALERTS_TEMPLATE);
        let back = AlertsSnapshot::from_soif_bytes(&bytes, ParseMode::Strict).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.firing().len(), 1);
    }

    #[test]
    fn salerts_rejects_wrong_template() {
        assert!(AlertsSnapshot::from_soif_bytes(b"@SQuery{\n}\n", ParseMode::Strict).is_err());
    }

    #[test]
    fn aspect_names_round_trip() {
        for a in [Aspect::Rate, Aspect::Value, Aspect::P50, Aspect::P99] {
            assert_eq!(Aspect::parse(a.name()), Some(a));
        }
        assert_eq!(Aspect::parse("nope"), None);
    }
}
