//! The query flight recorder: per-query [`QueryProfile`] retention with
//! automatic slow-query capture.
//!
//! The metasearcher produces one [`QueryProfile`] per federated search
//! (client-side select/adapt/dispatch/merge stages, with each host's
//! `XQueryProfile` breakdown grafted under the dispatching stage). This
//! module keeps them useful after the fact:
//!
//! * a **lock-light ring** of the last N profiles ([`FlightRecorder::recent`]),
//! * **slow-query capture**: a query whose total exceeds the rolling p99
//!   of everything recorded so far (after a warmup) or an absolute
//!   budget is copied to a separate slow ring
//!   ([`FlightRecorder::drain_slow`]) and appended, one JSON object per
//!   line, to an optional slow-log file — crash-tolerant by
//!   construction, because each line is self-contained and a reader can
//!   skip a torn tail,
//! * **export**: [`FlightRecorder::export_to`] publishes `recorder.*`
//!   gauges into a [`Registry`] — at snapshot time, once the recorder
//!   is registered as a [`Collector`] — so a snapshot and `/stats`
//!   carry the recorder's state.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use starts_proto::{QueryProfile, StageCost};

use crate::metrics::Histogram;
use crate::registry::{Collector, Registry};

/// Profiles kept in the main ring by default.
pub const DEFAULT_CAPACITY: usize = 256;

/// Slow profiles kept between drains.
const SLOW_CAPACITY: usize = 64;

/// Recorded queries required before the rolling-p99 trigger arms (an
/// empty distribution flags everything; a tiny one flags noise).
pub const P99_WARMUP: u64 = 32;

/// Mint a process-unique query id for a profile (`q-000001`, …).
pub fn next_query_id() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    format!("q-{:06}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// A bounded recorder of recent query profiles with slow-query capture.
///
/// `record` packs the profile into one buffer and takes one short mutex
/// hold per ring touched plus a few relaxed atomics — cheap enough to
/// stay always-on in the search path.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<Packed>>,
    slow: Mutex<VecDeque<Packed>>,
    capacity: usize,
    /// Rolling distribution of total query wall-clock, for the p99
    /// trigger (exact-extreme clamping keeps the threshold honest).
    totals: Histogram,
    /// Absolute slow budget in µs; `u64::MAX` disables it.
    budget_us: AtomicU64,
    recorded: AtomicU64,
    slow_seen: AtomicU64,
    last_total_us: AtomicU64,
    slow_log: Mutex<Option<PathBuf>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last [`DEFAULT_CAPACITY`] profiles.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// A recorder keeping the last `capacity` profiles.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY))),
            slow: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            totals: Histogram::default(),
            budget_us: AtomicU64::new(u64::MAX),
            recorded: AtomicU64::new(0),
            slow_seen: AtomicU64::new(0),
            last_total_us: AtomicU64::new(0),
            slow_log: Mutex::new(None),
        }
    }

    /// Set the absolute slow budget: any query slower than `us` is
    /// captured regardless of the rolling p99.
    pub fn set_budget_us(&self, us: u64) {
        self.budget_us.store(us, Ordering::Relaxed);
    }

    /// The absolute slow budget, or `None` when disabled.
    pub fn budget_us(&self) -> Option<u64> {
        match self.budget_us.load(Ordering::Relaxed) {
            u64::MAX => None,
            us => Some(us),
        }
    }

    /// Append captured slow queries to `path` as JSON Lines (one
    /// self-contained object per query). The file is opened per capture,
    /// so a crash can lose at most the line being written.
    pub fn set_slow_log(&self, path: impl Into<PathBuf>) {
        *self.slow_log.lock() = Some(path.into());
    }

    /// The configured slow-log path, if any.
    pub fn slow_log_path(&self) -> Option<PathBuf> {
        self.slow_log.lock().clone()
    }

    /// Record one profile. Returns `true` when the query was captured as
    /// slow (over the absolute budget, or — once [`P99_WARMUP`] queries
    /// have been seen — over the rolling p99 of all recorded totals).
    pub fn record(&self, profile: &QueryProfile) -> bool {
        let total = profile.total_us();
        let seen = self.recorded.fetch_add(1, Ordering::Relaxed);
        self.last_total_us.store(total, Ordering::Relaxed);
        // Threshold from the distribution *before* this observation, so
        // one outlier cannot raise the bar it is judged against.
        let p99 = self.totals.percentile(0.99);
        self.totals.observe(total);
        let over_budget = total > self.budget_us.load(Ordering::Relaxed);
        let over_p99 = seen >= P99_WARMUP && total > p99;
        let slow = over_budget || over_p99;
        let packed = Packed::new(profile);
        if slow {
            self.slow_seen.fetch_add(1, Ordering::Relaxed);
            {
                let mut slow_ring = self.slow.lock();
                if slow_ring.len() == SLOW_CAPACITY {
                    slow_ring.pop_front();
                }
                slow_ring.push_back(packed.clone());
            }
            if let Some(path) = self.slow_log.lock().as_deref() {
                // Best-effort: a failing sink must not fail the query.
                let _ = append_slow_log(path, profile);
            }
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(packed);
        slow
    }

    /// The retained profiles, oldest first.
    pub fn recent(&self) -> Vec<QueryProfile> {
        self.ring.lock().iter().map(Packed::unpack).collect()
    }

    /// Take the captured slow profiles, clearing the slow ring.
    pub fn drain_slow(&self) -> Vec<QueryProfile> {
        self.slow.lock().drain(..).map(|p| p.unpack()).collect()
    }

    /// Total queries recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Total queries captured as slow over the recorder's lifetime.
    pub fn slow_seen(&self) -> u64 {
        self.slow_seen.load(Ordering::Relaxed)
    }

    /// Publish the recorder's state as `recorder.*` gauges, so every
    /// snapshot (and therefore `@SStats` at `/stats`) carries it.
    pub fn export_to(&self, reg: &Registry) {
        let totals = self.totals.snapshot_values();
        reg.gauge("recorder.queries")
            .set(self.recorded.load(Ordering::Relaxed) as f64);
        reg.gauge("recorder.slow_queries")
            .set(self.slow_seen.load(Ordering::Relaxed) as f64);
        reg.gauge("recorder.last_total_us")
            .set(self.last_total_us.load(Ordering::Relaxed) as f64);
        reg.gauge("recorder.p50_us")
            .set(totals.percentile(0.50) as f64);
        reg.gauge("recorder.p99_us")
            .set(totals.percentile(0.99) as f64);
        if let Some(budget) = self.budget_us() {
            reg.gauge("recorder.budget_us").set(budget as f64);
        }
    }
}

impl Collector for FlightRecorder {
    fn collect(&self, reg: &Registry) {
        self.export_to(reg);
    }
}

/// A retained profile as one buffer instead of a tree of strings: per
/// stage in preorder its start, duration, name, meta pairs and child
/// count, integers little-endian and strings length-prefixed. A served
/// miss's profile is a few dozen stages of short strings, so the tree
/// costs a hundred-odd allocations and several times the bytes; the
/// ring keeps hundreds of them, written by whichever thread led each
/// query.
#[derive(Clone)]
struct Packed(Box<[u8]>);

impl Packed {
    fn new(profile: &QueryProfile) -> Self {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        fn put_stage(out: &mut Vec<u8>, stage: &StageCost) {
            out.extend_from_slice(&stage.start_us.to_le_bytes());
            out.extend_from_slice(&stage.duration_us.to_le_bytes());
            put_str(out, &stage.name);
            out.extend_from_slice(&(stage.meta.len() as u32).to_le_bytes());
            for (key, value) in &stage.meta {
                put_str(out, key);
                put_str(out, value);
            }
            out.extend_from_slice(&(stage.children.len() as u32).to_le_bytes());
            for child in &stage.children {
                put_stage(out, child);
            }
        }
        fn stage_len(stage: &StageCost) -> usize {
            let meta: usize = stage.meta.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
            let children: usize = stage.children.iter().map(stage_len).sum();
            28 + stage.name.len() + meta + children
        }
        let len = 4 + profile.query_id.len() + stage_len(&profile.root);
        let mut out = Vec::with_capacity(len);
        put_str(&mut out, &profile.query_id);
        put_stage(&mut out, &profile.root);
        debug_assert_eq!(out.len(), len);
        Packed(out.into_boxed_slice())
    }

    fn unpack(&self) -> QueryProfile {
        struct Reader<'a>(&'a [u8]);
        impl Reader<'_> {
            fn bytes<const N: usize>(&mut self) -> [u8; N] {
                let (head, rest) = self.0.split_at(N);
                self.0 = rest;
                head.try_into().expect("N bytes")
            }
            fn u32(&mut self) -> usize {
                u32::from_le_bytes(self.bytes()) as usize
            }
            fn u64(&mut self) -> u64 {
                u64::from_le_bytes(self.bytes())
            }
            fn string(&mut self) -> String {
                let len = self.u32();
                let (head, rest) = self.0.split_at(len);
                self.0 = rest;
                String::from_utf8(head.to_vec()).expect("packed from a str")
            }
            fn stage(&mut self) -> StageCost {
                let (start_us, duration_us) = (self.u64(), self.u64());
                let mut stage = StageCost::new(self.string(), start_us, duration_us);
                stage.meta = (0..self.u32())
                    .map(|_| (self.string(), self.string()))
                    .collect();
                stage.children = (0..self.u32()).map(|_| self.stage()).collect();
                stage
            }
        }
        let mut reader = Reader(&self.0);
        QueryProfile {
            query_id: reader.string(),
            root: reader.stage(),
        }
    }
}

fn append_slow_log(path: &Path, profile: &QueryProfile) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut line = profile_to_json(profile);
    line.push('\n');
    file.write_all(line.as_bytes())
}

/// One profile as a single-line JSON object (the slow-log format):
/// `{"query_id":…,"total_us":…,"critical_path":…,"root":{…}}` with the
/// stage tree nested under `root`.
pub fn profile_to_json(profile: &QueryProfile) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"query_id\":\"{}\",\"total_us\":{},\"critical_path\":\"{}\",\"root\":",
        crate::export::json_escape(&profile.query_id),
        profile.total_us(),
        crate::export::json_escape(&profile.critical_path_summary()),
    ));
    stage_to_json(&profile.root, &mut out);
    out.push('}');
    out
}

fn stage_to_json(stage: &StageCost, out: &mut String) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"start_us\":{},\"duration_us\":{}",
        crate::export::json_escape(&stage.name),
        stage.start_us,
        stage.duration_us
    ));
    if !stage.meta.is_empty() {
        let metas: Vec<String> = stage
            .meta
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{}\":\"{}\"",
                    crate::export::json_escape(k),
                    crate::export::json_escape(v)
                )
            })
            .collect();
        out.push_str(&format!(",\"meta\":{{{}}}", metas.join(",")));
    }
    if !stage.children.is_empty() {
        out.push_str(",\"children\":[");
        for (i, c) in stage.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            stage_to_json(c, out);
        }
        out.push(']');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(id: &str, total_us: u64) -> QueryProfile {
        let mut root = StageCost::new("meta.search", 0, total_us);
        root.children = vec![StageCost::new("dispatch", 0, total_us / 2)];
        QueryProfile {
            query_id: id.to_string(),
            root,
        }
    }

    #[test]
    fn a_packed_profile_unpacks_to_itself() {
        let mut root = StageCost::new("serve.query", 0, 900).with_meta("results", 10);
        let mut dispatch = StageCost::new("dispatch", 40, 700).with_meta("partial", false);
        dispatch.children = vec![
            StageCost::new("source", 41, 300)
                .with_meta("source", "Gen 3=x")
                .with_meta("", "ünï"),
            StageCost::new("", u64::MAX, 0),
        ];
        root.children = vec![StageCost::new("select", 0, 12), dispatch];
        for profile in [
            QueryProfile {
                query_id: "q-000042".to_string(),
                root,
            },
            QueryProfile::default(),
        ] {
            assert_eq!(Packed::new(&profile).unpack(), profile);
        }
    }

    #[test]
    fn query_ids_are_unique_and_ordered() {
        let (a, b) = (next_query_id(), next_query_id());
        assert!(a.starts_with("q-") && a < b, "{a} then {b}");
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            rec.record(&profile(&format!("q-{i}"), 100));
        }
        let recent = rec.recent();
        assert_eq!(recent.len(), 3);
        let ids: Vec<&str> = recent.iter().map(|p| p.query_id.as_str()).collect();
        assert_eq!(ids, ["q-2", "q-3", "q-4"]);
        assert_eq!(rec.recorded(), 5);
    }

    #[test]
    fn absolute_budget_captures_slow_queries() {
        let rec = FlightRecorder::new();
        rec.set_budget_us(1_000);
        assert!(!rec.record(&profile("q-fast", 500)));
        assert!(rec.record(&profile("q-slow", 2_000)));
        assert_eq!(rec.slow_seen(), 1);
        let slow = rec.drain_slow();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].query_id, "q-slow");
        // Draining clears the slow ring but not the counters.
        assert!(rec.drain_slow().is_empty());
        assert_eq!(rec.slow_seen(), 1);
    }

    #[test]
    fn rolling_p99_arms_after_warmup() {
        let rec = FlightRecorder::new();
        // Uniform baseline: nothing is slow during or after warmup,
        // because the p99 threshold equals the observed value.
        for i in 0..40 {
            assert!(!rec.record(&profile(&format!("q-{i}"), 100)), "query {i}");
        }
        // A 100× outlier trips the trigger with no budget configured.
        assert!(rec.record(&profile("q-outlier", 10_000)));
        assert_eq!(rec.drain_slow()[0].query_id, "q-outlier");
    }

    #[test]
    fn p99_trigger_stays_quiet_during_warmup() {
        let rec = FlightRecorder::new();
        assert!(!rec.record(&profile("q-a", 100)));
        // Far over the (single-sample) p99, but the trigger is not armed.
        assert!(!rec.record(&profile("q-b", 1_000_000)));
    }

    #[test]
    fn slow_log_appends_one_json_line_per_capture() {
        let dir = std::env::temp_dir().join(format!("starts-fr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = FlightRecorder::new();
        rec.set_budget_us(1_000);
        rec.set_slow_log(&path);
        rec.record(&profile("q-ok", 10));
        rec.record(&profile("q-slow-1", 5_000));
        rec.record(&profile("q-slow-2", 9_000));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"query_id\":\"q-slow-1\""));
        assert!(lines[1].contains("\"query_id\":\"q-slow-2\""));
        assert!(lines[0].contains("\"total_us\":5000"));
        assert!(lines[0].contains("\"critical_path\":"));
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn export_publishes_recorder_gauges() {
        let rec = FlightRecorder::new();
        rec.set_budget_us(50_000);
        for i in 0..10 {
            rec.record(&profile(&format!("q-{i}"), 200));
        }
        let reg = Registry::new();
        rec.export_to(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("recorder.queries", &[]), 10.0);
        assert_eq!(snap.gauge("recorder.slow_queries", &[]), 0.0);
        assert_eq!(snap.gauge("recorder.last_total_us", &[]), 200.0);
        // Exact-extreme clamping: the p-gauges are the observed value.
        assert_eq!(snap.gauge("recorder.p50_us", &[]), 200.0);
        assert_eq!(snap.gauge("recorder.p99_us", &[]), 200.0);
        assert_eq!(snap.gauge("recorder.budget_us", &[]), 50_000.0);
    }
}
