//! Per-source health scoreboard.
//!
//! STARTS §3.3 makes choosing *which* sources to query the
//! metasearcher's core job, and real sources differ wildly in
//! availability and responsiveness. The [`HealthBoard`] keeps a rolling
//! window of recent exchange outcomes per source — success/failure,
//! simulated timeout, latency — and condenses them into an
//! availability figure, a timeout rate, latency quantiles, and a single
//! `[0, 1]` health score the selection strategy can consult (see
//! `HealthAware` in `starts-meta`).
//!
//! Outcomes carry timestamps (from a [`Clock`], so tests stay
//! deterministic): a source that stops receiving traffic does not keep
//! its last score forever — once the newest outcome is older than the
//! staleness horizon, the score decays toward the `0.5` unknown-prior,
//! and the age is exported as a `health.age_s` gauge.
//!
//! The board exports itself as plain `health.*` gauges into a
//! [`Registry`] — as a snapshot-time [`Collector`] once registered —
//! so a snapshot's `@SStats` form — the `<base>/stats` admin endpoint
//! — carries health for free.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::monitor::{Clock, SystemClock};
use crate::registry::{Collector, Registry};

/// Default rolling-window size (outcomes kept per source).
pub const DEFAULT_WINDOW: usize = 64;

/// Default staleness horizon: a score older than this starts decaying
/// toward the unknown-prior.
pub const DEFAULT_STALE_HORIZON_MS: u64 = 300_000;

/// The neutral score of a source we know nothing current about. Stale
/// scores decay toward this, not toward 0 — silence is not failure.
const UNKNOWN_PRIOR: f64 = 0.5;

/// The outcome of one exchange with a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceOutcome {
    /// Whether the exchange produced a usable answer.
    pub ok: bool,
    /// Whether the exchange exceeded the caller's timeout budget.
    pub timed_out: bool,
    /// Observed round-trip latency in milliseconds (0 when the
    /// exchange failed before any answer).
    pub latency_ms: u64,
}

impl SourceOutcome {
    /// A successful exchange with the given latency.
    pub fn ok(latency_ms: u64) -> Self {
        SourceOutcome {
            ok: true,
            timed_out: false,
            latency_ms,
        }
    }

    /// A failed exchange (transport or protocol error).
    pub fn failed() -> Self {
        SourceOutcome {
            ok: false,
            timed_out: false,
            latency_ms: 0,
        }
    }

    /// An exchange that exceeded the timeout budget. It may still have
    /// produced an answer (`ok`), but it blew the latency contract.
    pub fn timed_out(latency_ms: u64, ok: bool) -> Self {
        SourceOutcome {
            ok,
            timed_out: true,
            latency_ms,
        }
    }
}

/// A condensed view of one source's rolling window.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceHealth {
    /// Source id.
    pub source: String,
    /// Number of outcomes in the window.
    pub samples: usize,
    /// Fraction of exchanges that succeeded (`[0, 1]`).
    pub availability: f64,
    /// Fraction of exchanges that failed (`1 - availability`).
    pub error_rate: f64,
    /// Number of timeouts in the window.
    pub timeouts: u64,
    /// Median latency over successful exchanges (ms).
    pub latency_p50_ms: u64,
    /// 95th-percentile latency over successful exchanges (ms).
    pub latency_p95_ms: u64,
    /// Seconds since the newest outcome was recorded.
    pub age_s: f64,
    /// Overall health score in `[0, 1]`; see [`HealthBoard::score`].
    /// Decayed toward `0.5` once the window is stale.
    pub score: f64,
}

#[derive(Default)]
struct Window {
    outcomes: VecDeque<(SourceOutcome, u64)>,
}

impl Window {
    fn push(&mut self, cap: usize, outcome: (SourceOutcome, u64)) {
        if self.outcomes.len() == cap {
            self.outcomes.pop_front();
        }
        self.outcomes.push_back(outcome);
    }
}

/// Rolling per-source health, maintained by the metasearcher on every
/// exchange. Thread-safe: dispatch workers record concurrently.
pub struct HealthBoard {
    window: usize,
    stale_horizon_ms: u64,
    clock: Arc<dyn Clock>,
    sources: Mutex<HashMap<String, Window>>,
}

impl Default for HealthBoard {
    fn default() -> Self {
        HealthBoard::new(DEFAULT_WINDOW)
    }
}

impl HealthBoard {
    /// A board keeping the last `window` outcomes per source, on the
    /// wall clock with the default staleness horizon.
    pub fn new(window: usize) -> Self {
        HealthBoard::with_clock(window, DEFAULT_STALE_HORIZON_MS, Arc::new(SystemClock))
    }

    /// A board with an explicit staleness horizon and clock — the
    /// deterministic form for tests and the bench harness.
    pub fn with_clock(window: usize, stale_horizon_ms: u64, clock: Arc<dyn Clock>) -> Self {
        HealthBoard {
            window: window.max(1),
            stale_horizon_ms: stale_horizon_ms.max(1),
            clock,
            sources: Mutex::new(HashMap::new()),
        }
    }

    /// Record one exchange outcome for `source`.
    pub fn record(&self, source: &str, outcome: SourceOutcome) {
        let now = self.clock.now_ms();
        let mut sources = self.sources.lock();
        // This runs once per exchange: copy the id only the first time
        // the source is seen.
        match sources.get_mut(source) {
            Some(w) => w.push(self.window, (outcome, now)),
            None => sources
                .entry(source.to_string())
                .or_default()
                .push(self.window, (outcome, now)),
        }
    }

    /// The condensed health of one source (`None` if never seen).
    pub fn health(&self, source: &str) -> Option<SourceHealth> {
        let now = self.clock.now_ms();
        let sources = self.sources.lock();
        sources
            .get(source)
            .map(|w| self.condense(source, &w.outcomes, now))
    }

    /// Health for every known source, sorted by id.
    pub fn all(&self) -> Vec<SourceHealth> {
        let now = self.clock.now_ms();
        let sources = self.sources.lock();
        let mut out: Vec<SourceHealth> = sources
            .iter()
            .map(|(id, w)| self.condense(id, &w.outcomes, now))
            .collect();
        out.sort_by(|a, b| a.source.cmp(&b.source));
        out
    }

    /// A single health score in `[0, 1]` for `source`: availability,
    /// discounted by the timeout rate and by slow p95 latency
    /// (`1000ms` p95 costs ~half). Unknown sources score `1.0` —
    /// untried is not unhealthy, and §3.3 wants new sources explored.
    /// Once the newest outcome is older than the staleness horizon the
    /// score decays toward `0.5`: evidence expires in both directions,
    /// so a silent source is neither trusted nor condemned forever.
    pub fn score(&self, source: &str) -> f64 {
        self.health(source).map_or(1.0, |h| h.score)
    }

    /// Export the board as `health.*` gauges (labeled by source) into a
    /// registry, so a snapshot — and its `@SStats` form — carries the
    /// scoreboard. This condenses every
    /// source's window: the metasearcher and the serving layer register
    /// the board as a [`Collector`] so it runs per snapshot, never per
    /// query.
    pub fn export_to(&self, reg: &Registry) {
        for h in self.all() {
            let labels = [("source", h.source.as_str())];
            reg.gauge_with("health.availability", &labels)
                .set(h.availability);
            reg.gauge_with("health.error_rate", &labels)
                .set(h.error_rate);
            reg.gauge_with("health.timeouts", &labels)
                .set(h.timeouts as f64);
            reg.gauge_with("health.latency_p50_ms", &labels)
                .set(h.latency_p50_ms as f64);
            reg.gauge_with("health.latency_p95_ms", &labels)
                .set(h.latency_p95_ms as f64);
            reg.gauge_with("health.age_s", &labels).set(h.age_s);
            reg.gauge_with("health.score", &labels).set(h.score);
            reg.gauge_with("health.samples", &labels)
                .set(h.samples as f64);
        }
    }

    fn condense(
        &self,
        source: &str,
        outcomes: &VecDeque<(SourceOutcome, u64)>,
        now: u64,
    ) -> SourceHealth {
        let samples = outcomes.len();
        let ok = outcomes.iter().filter(|(o, _)| o.ok).count();
        let timeouts = outcomes.iter().filter(|(o, _)| o.timed_out).count() as u64;
        let availability = if samples == 0 {
            1.0
        } else {
            ok as f64 / samples as f64
        };
        let mut latencies: Vec<u64> = outcomes
            .iter()
            .filter(|(o, _)| o.ok)
            .map(|(o, _)| o.latency_ms)
            .collect();
        latencies.sort_unstable();
        let pick = |q: f64| -> u64 {
            if latencies.is_empty() {
                0
            } else {
                let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
                latencies[idx.min(latencies.len() - 1)]
            }
        };
        let latency_p50_ms = pick(0.50);
        let latency_p95_ms = pick(0.95);
        let timeout_rate = if samples == 0 {
            0.0
        } else {
            timeouts as f64 / samples as f64
        };
        // Availability is the dominant term; timeouts and a slow p95
        // shave the rest. A 1000ms p95 halves the latency factor.
        let latency_factor = 1000.0 / (1000.0 + latency_p95_ms as f64);
        let fresh_score =
            (availability * (1.0 - timeout_rate) * (0.5 + 0.5 * latency_factor)).clamp(0.0, 1.0);
        let newest = outcomes.iter().map(|&(_, t)| t).max().unwrap_or(now);
        let age_ms = now.saturating_sub(newest);
        // Evidence ages out: past the horizon the score slides toward
        // the unknown-prior in proportion to how stale it is (2x the
        // horizon -> halfway there is already gone).
        let score = if age_ms <= self.stale_horizon_ms {
            fresh_score
        } else {
            let keep = self.stale_horizon_ms as f64 / age_ms as f64;
            UNKNOWN_PRIOR + (fresh_score - UNKNOWN_PRIOR) * keep
        };
        SourceHealth {
            source: source.to_string(),
            samples,
            availability,
            error_rate: 1.0 - availability,
            timeouts,
            latency_p50_ms,
            latency_p95_ms,
            age_s: age_ms as f64 / 1_000.0,
            score,
        }
    }
}

impl Collector for HealthBoard {
    fn collect(&self, reg: &Registry) {
        self.export_to(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::ManualClock;

    fn manual_board(window: usize, horizon_ms: u64) -> (Arc<ManualClock>, HealthBoard) {
        let clock = Arc::new(ManualClock::new(1_000_000));
        let board = HealthBoard::with_clock(window, horizon_ms, clock.clone());
        (clock, board)
    }

    #[test]
    fn unknown_sources_score_full() {
        let board = HealthBoard::default();
        assert_eq!(board.score("never-seen"), 1.0);
        assert!(board.health("never-seen").is_none());
        assert!(board.all().is_empty());
    }

    #[test]
    fn availability_tracks_the_window() {
        let board = HealthBoard::new(4);
        for _ in 0..4 {
            board.record("S1", SourceOutcome::failed());
        }
        assert_eq!(board.health("S1").unwrap().availability, 0.0);
        // Four successes push the failures out of the window.
        for _ in 0..4 {
            board.record("S1", SourceOutcome::ok(10));
        }
        let h = board.health("S1").unwrap();
        assert_eq!(h.availability, 1.0);
        assert_eq!(h.error_rate, 0.0);
        assert_eq!(h.samples, 4);
    }

    #[test]
    fn latency_quantiles_and_timeouts() {
        let board = HealthBoard::default();
        for ms in [10, 20, 30, 40, 400] {
            board.record("S2", SourceOutcome::ok(ms));
        }
        board.record("S2", SourceOutcome::timed_out(5_000, false));
        let h = board.health("S2").unwrap();
        assert_eq!(h.timeouts, 1);
        assert_eq!(h.latency_p50_ms, 30);
        assert_eq!(h.latency_p95_ms, 400);
        assert!(h.availability > 0.8 && h.availability < 0.9);
    }

    #[test]
    fn score_orders_healthy_above_degraded() {
        let board = HealthBoard::default();
        for _ in 0..10 {
            board.record("fast", SourceOutcome::ok(10));
            board.record("slow", SourceOutcome::ok(2_000));
            board.record("flaky", SourceOutcome::failed());
            board.record("flaky", SourceOutcome::ok(10));
        }
        let fast = board.score("fast");
        let slow = board.score("slow");
        let flaky = board.score("flaky");
        assert!(fast > slow, "fast={fast} slow={slow}");
        assert!(fast > flaky, "fast={fast} flaky={flaky}");
        assert!((0.0..=1.0).contains(&slow));
        assert!((0.0..=1.0).contains(&flaky));
    }

    #[test]
    fn stale_scores_decay_toward_the_unknown_prior() {
        let (clock, board) = manual_board(8, 10_000);
        for _ in 0..8 {
            board.record("good", SourceOutcome::ok(10));
            board.record("bad", SourceOutcome::failed());
        }
        let fresh_good = board.score("good");
        let fresh_bad = board.score("bad");
        assert!(fresh_good > 0.9);
        assert!(fresh_bad < 0.1);
        assert_eq!(board.health("good").unwrap().age_s, 0.0);

        // Within the horizon: nothing changes.
        clock.advance(10_000);
        assert_eq!(board.score("good"), fresh_good);
        assert_eq!(board.score("bad"), fresh_bad);

        // Past the horizon: both slide toward 0.5, from both sides.
        clock.advance(30_000);
        let stale_good = board.score("good");
        let stale_bad = board.score("bad");
        assert!(stale_good < fresh_good && stale_good > 0.5, "{stale_good}");
        assert!(stale_bad > fresh_bad && stale_bad < 0.5, "{stale_bad}");
        assert_eq!(board.health("good").unwrap().age_s, 40.0);

        // Far past: both approach the prior.
        clock.advance(10_000_000);
        assert!((board.score("good") - 0.5).abs() < 0.01);
        assert!((board.score("bad") - 0.5).abs() < 0.01);

        // Fresh traffic restores the un-decayed score.
        for _ in 0..8 {
            board.record("good", SourceOutcome::ok(10));
        }
        assert_eq!(board.score("good"), fresh_good);
    }

    #[test]
    fn exports_gauges_through_the_registry() {
        let (clock, board) = manual_board(DEFAULT_WINDOW, 10_000);
        board.record("S1", SourceOutcome::ok(25));
        board.record("S1", SourceOutcome::failed());
        clock.advance(2_500);
        let reg = Registry::new();
        board.export_to(&reg);
        let snap = reg.snapshot();
        assert!((snap.gauge("health.availability", &[("source", "S1")]) - 0.5).abs() < 1e-9);
        assert!((snap.gauge("health.error_rate", &[("source", "S1")]) - 0.5).abs() < 1e-9);
        assert_eq!(
            snap.gauge("health.latency_p50_ms", &[("source", "S1")]),
            25.0
        );
        assert_eq!(snap.gauge("health.samples", &[("source", "S1")]), 2.0);
        assert_eq!(snap.gauge("health.age_s", &[("source", "S1")]), 2.5);
        let score = snap.gauge("health.score", &[("source", "S1")]);
        assert!(score > 0.0 && score < 1.0, "score={score}");
        // And therefore through @SStats.
        let bytes = snap.to_soif_bytes();
        let back = crate::Snapshot::from_soif_bytes(&bytes, starts_soif::ParseMode::Strict);
        assert_eq!(back, Ok(snap));
    }
}
