//! Property-based tests for the monitor's metric store: ring rotation
//! keeps exactly the newest `retention` points in timestamp order, and
//! counter delta-encoding is exact even when the increments land from
//! 8 concurrent writer threads.

use std::sync::Arc;

use proptest::prelude::*;
use starts_obs::monitor::{Aspect, ManualClock, MetricStore, Point, StoreConfig};
use starts_obs::Registry;

fn store(clock: Arc<ManualClock>, step_ms: u64, retention: usize) -> MetricStore {
    MetricStore::new(StoreConfig { step_ms, retention }, clock)
}

proptest! {
    /// After any sequence of gauge samples, each ring holds exactly the
    /// newest `min(samples, retention)` points, strictly ordered by
    /// timestamp, with the values the gauge had at those instants.
    #[test]
    fn rings_keep_the_newest_points_in_order(
        values in proptest::collection::vec(-1e6f64..1e6, 1..40),
        retention in 1usize..12,
        step_ms in 1u64..5_000,
    ) {
        let clock = Arc::new(ManualClock::new(1_000_000));
        let store = store(clock.clone(), step_ms, retention);
        let reg = Registry::new();
        for &v in &values {
            reg.gauge("g").set(v);
            prop_assert!(store.tick(&reg.snapshot()).is_some());
            clock.advance(step_ms);
        }
        let pts = store.series("g", &[], Aspect::Value);
        let expected: Vec<f64> = values
            .iter()
            .copied()
            .skip(values.len().saturating_sub(retention))
            .collect();
        prop_assert_eq!(pts.len(), expected.len());
        for (p, want) in pts.iter().zip(&expected) {
            prop_assert_eq!(p.value, *want);
        }
        for w in pts.windows(2) {
            prop_assert!(w[0].t_ms < w[1].t_ms);
        }
    }

    /// Counter delta-encoding is exact: the rate points integrate back
    /// to the total counted after the baseline, for any increment
    /// schedule and step width.
    #[test]
    fn counter_deltas_integrate_back_to_the_total(
        increments in proptest::collection::vec(0u64..1_000, 1..30),
        step_ms in 1u64..5_000,
    ) {
        let clock = Arc::new(ManualClock::new(5_000_000));
        let store = store(clock.clone(), step_ms, 64);
        let reg = Registry::new();
        let c = reg.counter("events");
        c.add(17); // pre-baseline history must never appear as a rate
        prop_assert!(store.tick(&reg.snapshot()).is_some());
        for &n in &increments {
            c.add(n);
            clock.advance(step_ms);
            prop_assert!(store.tick(&reg.snapshot()).is_some());
        }
        let pts = store.series("events", &[], Aspect::Rate);
        let kept = increments.len().min(64);
        prop_assert_eq!(pts.len(), kept);
        // Each point is delta/dt; multiplying back by dt recovers the
        // per-step increment exactly (dt is the same for every step).
        let dt_s = step_ms as f64 / 1_000.0;
        let recovered: f64 = pts.iter().map(|p| p.value * dt_s).sum();
        let expected: u64 = increments[increments.len() - kept..].iter().sum();
        prop_assert!(
            (recovered - expected as f64).abs() < 1e-6 * (1.0 + expected as f64),
            "recovered {} expected {}", recovered, expected
        );
    }
}

/// Delta correctness under contention: 8 writer threads hammer one
/// counter between ticks; every increment must be attributed to
/// exactly one sample (the rates integrate to the exact total).
#[test]
fn counter_deltas_are_exact_under_8_concurrent_writers() {
    const WRITERS: usize = 8;
    const ROUNDS: usize = 20;
    const PER_ROUND: u64 = 500;

    let clock = Arc::new(ManualClock::new(1_000_000));
    let store = store(clock.clone(), 1_000, ROUNDS + 1);
    let reg = Registry::new();
    reg.counter("hits").add(0);
    assert!(store.tick(&reg.snapshot()).is_some()); // baseline

    for _ in 0..ROUNDS {
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                let c = reg.counter("hits");
                s.spawn(move || {
                    for _ in 0..PER_ROUND {
                        c.inc();
                    }
                });
            }
        });
        clock.advance(1_000);
        assert!(store.tick(&reg.snapshot()).is_some());
    }

    let pts: Vec<Point> = store.series("hits", &[], Aspect::Rate);
    assert_eq!(pts.len(), ROUNDS);
    // dt is exactly 1s per step, so rate == per-step delta.
    let total: f64 = pts.iter().map(|p| p.value).sum();
    let expected = (WRITERS as u64 * ROUNDS as u64 * PER_ROUND) as f64;
    assert_eq!(total, expected, "every increment attributed exactly once");
    // And with a synchronized schedule, each sample saw a full round.
    for p in &pts {
        assert_eq!(p.value, (WRITERS as u64 * PER_ROUND) as f64);
    }
}

/// Ring rotation under contention: 8 threads each tick their own
/// labeled gauge series through one shared store; no series loses or
/// duplicates points.
#[test]
fn rings_rotate_correctly_under_8_concurrent_writers() {
    const WRITERS: usize = 8;
    const SAMPLES: usize = 50;
    const RETENTION: usize = 16;

    let clock = Arc::new(ManualClock::new(1_000_000));
    let store = Arc::new(store(clock.clone(), 0, RETENTION));
    let reg = Arc::new(Registry::new());

    // step_ms = 0 lets every tick record, so writers can race freely.
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let store = Arc::clone(&store);
            let reg = Arc::clone(&reg);
            let clock = Arc::clone(&clock);
            s.spawn(move || {
                let id = format!("w{w}");
                for i in 0..SAMPLES {
                    reg.gauge_with("per_writer", &[("writer", &id)])
                        .set(i as f64);
                    clock.advance(1);
                    store.tick(&reg.snapshot());
                }
            });
        }
    });
    // A tick records the snapshot its thread took *before* it won the
    // store's lock, so a writer's older view of another writer's gauge
    // can land last. Once every writer has joined each gauge holds its
    // final value: one more tick makes "newest point" well defined.
    store.tick(&reg.snapshot());

    for w in 0..WRITERS {
        let id = format!("w{w}");
        let pts = store.series("per_writer", &[("writer", &id)], Aspect::Value);
        assert_eq!(pts.len(), RETENTION, "writer {w}");
        // Timestamps never go backwards, and values never decrease
        // below a later writer's earlier sample within this series.
        for pair in pts.windows(2) {
            assert!(pair[0].t_ms <= pair[1].t_ms, "writer {w}: {pts:?}");
        }
        // Every stored point is one of the values actually written.
        for p in &pts {
            assert!(
                p.value >= 0.0 && p.value < SAMPLES as f64,
                "writer {w}: stray value {p:?}"
            );
        }
        let last = pts.last().unwrap().value;
        assert_eq!(
            last,
            (SAMPLES - 1) as f64,
            "writer {w}: final sample must be the last value written"
        );
    }
}
