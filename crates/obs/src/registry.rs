//! The metric registry: a process-local table of named instruments.
//!
//! Lookup hashes the borrowed name and labels, takes a `parking_lot`
//! read lock and clones an `Arc` handle: finding an existing instrument
//! allocates nothing. The write lock, and the one [`MetricId`] built,
//! come only the first time a `(name, labels)` pair is seen. Updates
//! through a handle touch no lock at all.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::{Mutex, RwLock};

use crate::metrics::{Counter, Gauge, Histogram, HistogramValues};
use crate::span::{Span, SpanEvent, SpanHandle, SpanLog};

/// A metric identity: a dotted name plus label pairs (sorted by key, so
/// label order at the call site does not matter).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId {
    /// Dotted metric name, e.g. `net.latency_ms`.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Build an id, canonicalizing label order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

/// Whether a name or label key character is written behind a `\`:
/// the ones the `name{k="v"}` form gives a meaning to, and whitespace.
fn escaped_in_part(c: char) -> bool {
    matches!(c, '\\' | '{' | '}' | '=' | ',' | '"') || c.is_whitespace()
}

fn write_part(f: &mut fmt::Formatter<'_>, part: &str) -> fmt::Result {
    for c in part.chars() {
        if escaped_in_part(c) {
            f.write_str("\\")?;
        }
        f.write_char(c)?;
    }
    Ok(())
}

impl fmt::Display for MetricId {
    /// `name` or `name{k="v",k2="v2"}`, with `\` and `"` escaped in
    /// values, and in names and keys every character the form gives a
    /// meaning to — `\ { } = , "` and whitespace — so that any id
    /// reads back. This is the form the SOIF exporter parses back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_part(f, &self.name)?;
        if self.labels.is_empty() {
            return Ok(());
        }
        f.write_str("{")?;
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write_part(f, k)?;
            write!(f, "=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""))?;
        }
        f.write_str("}")
    }
}

/// One counter in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Metric identity.
    pub id: MetricId,
    /// Counter value.
    pub value: u64,
}

/// One gauge in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric identity.
    pub id: MetricId,
    /// Gauge value.
    pub value: f64,
}

/// One histogram in a [`Snapshot`], with pre-computed quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric identity.
    pub id: MetricId,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn from_values(id: MetricId, v: &HistogramValues) -> Self {
        HistogramSnapshot {
            id,
            count: v.count,
            sum: v.sum,
            min: v.min,
            max: v.max,
            p50: v.percentile(0.50),
            p95: v.percentile(0.95),
            p99: v.percentile(0.99),
            buckets: v
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (crate::metrics::bucket_upper_bound(i), n))
                .collect(),
        }
    }
}

/// A point-in-time copy of every instrument in a registry, sorted by
/// metric id for deterministic export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value by name + labels (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let id = MetricId::new(name, labels);
        self.counters
            .iter()
            .find(|c| c.id == id)
            .map_or(0, |c| c.value)
    }

    /// Gauge value by name + labels (0 when absent).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        let id = MetricId::new(name, labels);
        self.gauges
            .iter()
            .find(|g| g.id == id)
            .map_or(0.0, |g| g.value)
    }

    /// Histogram by name + labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let id = MetricId::new(name, labels);
        self.histograms.iter().find(|h| h.id == id)
    }
}

/// A pull-time exporter of whole-system state: something whose gauges
/// describe a structure as a whole (a health scoreboard, a recorder, an
/// index footprint) rather than one request. Registered collectors run
/// at the start of every [`Registry::snapshot`], so such state is
/// condensed when someone looks — per scrape — not on every query.
pub trait Collector: Send + Sync {
    /// Publish current state into `reg`. Must not call
    /// [`Registry::snapshot`] on `reg` (that would recurse).
    fn collect(&self, reg: &Registry);
}

/// The registry. Cheap to share (`SimNet` holds one in an `Arc`); the
/// process-wide default is [`Registry::global`].
#[derive(Default)]
pub struct Registry {
    counters: Table<Counter>,
    gauges: Table<Gauge>,
    histograms: Table<Histogram>,
    pub(crate) spans: SpanLog,
    /// Held weakly: a collector lives exactly as long as its owner.
    collectors: Mutex<Vec<Weak<dyn Collector>>>,
}

/// How many labels a lookup sorts on the stack; a longer list is
/// sorted in a `Vec`.
const STACK_LABELS: usize = 8;

/// One kind of instrument, bucketed by a hash of its id's parts, so
/// that finding an existing instrument hashes and compares the caller's
/// borrowed name and labels and builds no [`MetricId`].
#[derive(Default)]
struct Table<M> {
    hasher: RandomState,
    /// Ids whose hashes collide share a bucket.
    buckets: RwLock<HashMap<u64, Vec<(MetricId, M)>>>,
}

impl<M: Clone + Default> Table<M> {
    /// The instrument for `name` and `labels`, made on first use.
    fn get_or_insert(&self, name: &str, labels: &[(&str, &str)]) -> M {
        // Canonical label order without allocating, as `MetricId::new`
        // sorts its owned copy.
        let mut stack = [("", ""); STACK_LABELS];
        let mut spill;
        let sorted = if labels.len() <= STACK_LABELS {
            let sorted = &mut stack[..labels.len()];
            sorted.copy_from_slice(labels);
            sorted
        } else {
            spill = labels.to_vec();
            &mut spill[..]
        };
        sorted.sort_unstable();
        let sorted = &*sorted;

        let mut h = self.hasher.build_hasher();
        name.hash(&mut h);
        for (k, v) in sorted {
            k.hash(&mut h);
            v.hash(&mut h);
        }
        let hash = h.finish();
        let is = |id: &MetricId| {
            let labels = id.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
            id.name == name && labels.eq(sorted.iter().copied())
        };
        let find = |bucket: Option<&Vec<(MetricId, M)>>| {
            let (_, m) = bucket?.iter().find(|(id, _)| is(id))?;
            Some(m.clone())
        };
        if let Some(m) = find(self.buckets.read().get(&hash)) {
            return m;
        }
        let mut buckets = self.buckets.write();
        let bucket = buckets.entry(hash).or_default();
        if let Some(m) = find(Some(bucket)) {
            return m;
        }
        let id = MetricId {
            name: name.to_string(),
            labels: sorted
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        let m = M::default();
        bucket.push((id, m.clone()));
        m
    }

    /// Every instrument with its id, sorted by id.
    fn sorted(&self) -> Vec<(MetricId, M)> {
        let mut all: Vec<(MetricId, M)> = self.buckets.read().values().flatten().cloned().collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Zero every instrument in place, so every handle stays live.
    fn zero(&self, zero: fn(&M)) {
        for (_, m) in self.buckets.read().values().flatten() {
            zero(m);
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide default registry, used by the bare
    /// `span!("name")` form.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::default)
    }

    /// An unlabeled counter handle.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// A labeled counter handle.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counters.get_or_insert(name, labels)
    }

    /// An unlabeled gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// A labeled gauge handle.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauges.get_or_insert(name, labels)
    }

    /// An unlabeled histogram handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// A labeled histogram handle.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histograms.get_or_insert(name, labels)
    }

    /// Open a span nested under this thread's current span (if any).
    pub fn span(&self, name: &str) -> Span<'_> {
        self.span_with(name, Vec::new())
    }

    /// Open a span with structured fields.
    pub fn span_with(&self, name: &str, fields: Vec<(&'static str, String)>) -> Span<'_> {
        Span::enter(self, name, None, fields)
    }

    /// Open a span under an explicit parent — the cross-thread (and
    /// cross-wire) form, for fan-out workers whose logical parent lives
    /// on the dispatching thread, or for a source whose logical parent
    /// arrived inside a query's trace-context attribute.
    pub fn span_under(
        &self,
        name: &str,
        parent: &SpanHandle,
        fields: Vec<(&'static str, String)>,
    ) -> Span<'_> {
        Span::enter(self, name, Some(parent), fields)
    }

    /// The most recent completed spans, oldest first (bounded ring).
    pub fn recent_spans(&self) -> Vec<SpanEvent> {
        self.spans.recent()
    }

    /// Run `collector` at the start of every [`Registry::snapshot`]
    /// for as long as its owner keeps it alive. Registering the same
    /// object again is a no-op, so two components sharing one
    /// scoreboard export it once.
    pub fn register_collector<C: Collector + 'static>(&self, collector: &Arc<C>) {
        let addr = Arc::as_ptr(collector).cast::<()>();
        let mut collectors = self.collectors.lock();
        // A dead `Weak` still pins its allocation, so a live address
        // match is the same object, never a recycled one.
        collectors.retain(|w| w.strong_count() > 0);
        if collectors.iter().all(|w| w.as_ptr().cast::<()>() != addr) {
            let weak: Weak<C> = Arc::downgrade(collector);
            collectors.push(weak);
        }
    }

    /// Copy every instrument out, after giving every live
    /// [`Collector`] the chance to refresh its gauges. Collectors run
    /// with no registry lock held, so they may create instruments.
    pub fn snapshot(&self) -> Snapshot {
        let live: Vec<Arc<dyn Collector>> = {
            let mut collectors = self.collectors.lock();
            collectors.retain(|w| w.strong_count() > 0);
            collectors.iter().filter_map(Weak::upgrade).collect()
        };
        for collector in live {
            collector.collect(self);
        }
        Snapshot {
            counters: self
                .counters
                .sorted()
                .into_iter()
                .map(|(id, c)| CounterSnapshot { id, value: c.get() })
                .collect(),
            gauges: self
                .gauges
                .sorted()
                .into_iter()
                .map(|(id, g)| GaugeSnapshot { id, value: g.get() })
                .collect(),
            histograms: self
                .histograms
                .sorted()
                .into_iter()
                .map(|(id, h)| HistogramSnapshot::from_values(id, &h.snapshot_values()))
                .collect(),
        }
    }

    /// Zero every counter, gauge and histogram in place and drop the
    /// recorded spans (between experiment runs). Every handle handed
    /// out before the reset stays live and counts on, so a snapshot
    /// lists every series that already existed, at zero. Collectors
    /// stay registered: they describe live components, and repopulate
    /// their gauges at the next snapshot.
    pub fn reset(&self) {
        self.counters.zero(Counter::zero);
        self.gauges.zero(Gauge::zero);
        self.histograms.zero(Histogram::zero);
        self.spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    #[test]
    fn handles_are_shared_by_identity() {
        let reg = Registry::new();
        reg.counter_with("hits", &[("src", "a")]).inc();
        reg.counter_with("hits", &[("src", "a")]).inc();
        reg.counter_with("hits", &[("src", "b")]).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits", &[("src", "a")]), 2);
        assert_eq!(snap.counter("hits", &[("src", "b")]), 1);
        assert_eq!(snap.counter("hits", &[]), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        reg.counter_with("c", &[("a", "1"), ("b", "2")]).inc();
        reg.counter_with("c", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.snapshot().counter("c", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    fn metric_id_display_escapes_values() {
        let id = MetricId::new("m", &[("url", r#"a"b\c"#)]);
        assert_eq!(id.to_string(), r#"m{url="a\"b\\c"}"#);
        assert_eq!(MetricId::new("m", &[]).to_string(), "m");
    }

    /// Publishes how often it ran, under a gauge id that is new each
    /// time — so every run takes the gauge table's write lock.
    #[derive(Default)]
    struct CountingCollector {
        runs: AtomicU64,
    }

    impl Collector for CountingCollector {
        fn collect(&self, reg: &Registry) {
            let run = self.runs.fetch_add(1, Ordering::Relaxed) + 1;
            reg.gauge_with("collector.run", &[("n", &run.to_string())])
                .set(run as f64);
        }
    }

    #[test]
    fn collectors_run_once_per_snapshot_and_may_create_instruments() {
        let reg = Registry::new();
        let collector = Arc::new(CountingCollector::default());
        reg.register_collector(&collector);
        // Registering the same object again must not export it twice.
        reg.register_collector(&collector);
        // A fresh id per run: `snapshot` would deadlock here if it ran
        // collectors while holding a table lock.
        let snap = reg.snapshot();
        assert_eq!(collector.runs.load(Ordering::Relaxed), 1);
        assert_eq!(snap.gauge("collector.run", &[("n", "1")]), 1.0);
        let snap = reg.snapshot();
        assert_eq!(collector.runs.load(Ordering::Relaxed), 2);
        assert_eq!(snap.gauge("collector.run", &[("n", "2")]), 2.0);
        // A second, distinct collector is its own registration.
        let other = Arc::new(CountingCollector::default());
        reg.register_collector(&other);
        reg.snapshot();
        assert_eq!(collector.runs.load(Ordering::Relaxed), 3);
        assert_eq!(other.runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_dropped_collector_stops_being_collected() {
        let reg = Registry::new();
        let collector = Arc::new(CountingCollector::default());
        let watch = Arc::downgrade(&collector);
        reg.register_collector(&collector);
        reg.snapshot();
        drop(collector);
        // The registry held it weakly: the owner's drop freed it…
        assert!(watch.upgrade().is_none());
        // …and later snapshots neither run it nor keep its slot.
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("collector.run", &[("n", "2")]), 0.0);
        assert!(reg.collectors.lock().is_empty());
    }

    #[test]
    fn a_handle_taken_before_a_reset_counts_after_it_and_collectors_survive() {
        let reg = Registry::new();
        let collector = Arc::new(CountingCollector::default());
        reg.register_collector(&collector);
        let held = reg.counter("c");
        let gauge = reg.gauge("g");
        let histogram = reg.histogram("h");
        held.add(5);
        gauge.set(2.5);
        histogram.observe(9);
        reg.reset();
        held.inc();
        gauge.add(1.0);
        histogram.observe(3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c", &[]), 1);
        assert_eq!(snap.gauge("g", &[]), 1.0);
        let h = snap.histogram("h", &[]).unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (1, 3, 3, 3));
        // The handle and a fresh lookup are one instrument.
        reg.counter("c").inc();
        assert_eq!(held.get(), 2);
        // The collector survived and repopulated its gauge.
        assert_eq!(snap.gauge("collector.run", &[("n", "1")]), 1.0);
    }

    #[test]
    fn snapshot_is_sorted_and_resettable() {
        let reg = Registry::new();
        reg.counter("z").inc();
        reg.counter("a").inc();
        reg.histogram("h").observe(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].id.name, "a");
        assert_eq!(snap.counters[1].id.name, "z");
        assert_eq!(snap.histogram("h", &[]).unwrap().count, 1);
        reg.reset();
        // Every series is still listed, in order, at zero.
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.id.name.as_str()).collect();
        assert_eq!(names, ["a", "z"]);
        assert!(snap.counters.iter().all(|c| c.value == 0));
        let empty = HistogramSnapshot::from_values(
            MetricId::new("h", &[]),
            &Histogram::default().snapshot_values(),
        );
        assert_eq!(snap.histograms, [empty]);
    }
}
