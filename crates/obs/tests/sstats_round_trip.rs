//! The `@SStats` exporter round-trips through the real SOIF framing: a
//! populated registry's snapshot, written with `to_soif_bytes` and read
//! back with `from_soif_bytes` (and framed by `starts_soif::parse`),
//! reproduces every counter, gauge, and histogram exactly.

use starts_obs::export::SSTATS_TEMPLATE;
use starts_obs::{Registry, Snapshot};
use starts_soif::ParseMode;

fn populated_registry() -> Registry {
    let reg = Registry::new();
    reg.counter("meta.searches").inc();
    reg.counter_with("net.requests", &[("url", "starts://s1/query")])
        .add(42);
    // Labels exercising the value-escaping rules: quotes, backslashes,
    // braces, spaces, and non-ASCII text.
    reg.counter_with(
        "tricky",
        &[("q", r#"say "hi" \ {now}"#), ("lang", "français")],
    )
    .add(7);
    reg.gauge("meta.query_cost").set(3.25);
    reg.gauge_with("net.cost", &[("url", "starts://s2/query")])
        .add(0.125);
    let h = reg.histogram_with("meta.source_latency_ms", &[("source", "S1")]);
    for v in [0u64, 1, 3, 50, 50, 700, 1_000_000] {
        h.observe(v);
    }
    reg
}

#[test]
fn sstats_round_trips_through_real_soif() {
    let reg = populated_registry();
    let snap = reg.snapshot();

    let bytes = snap.to_soif_bytes();

    // Through the full parser, strict mode.
    let objects = starts_soif::parse(&bytes, ParseMode::Strict).unwrap();
    assert_eq!(objects.len(), 1);
    assert_eq!(objects[0].template, SSTATS_TEMPLATE);
    let back = Snapshot::from_soif_bytes(&bytes, ParseMode::Strict).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn sstats_survives_a_stream_with_other_objects() {
    // A stats object embedded in a stream next to unrelated SOIF
    // objects parses out cleanly by template name.
    let reg = populated_registry();
    let snap = reg.snapshot();
    let mut bytes = Vec::new();
    let other = starts_soif::SoifObject {
        template: "SQuery".to_string(),
        url: None,
        attrs: vec![starts_soif::SoifAttr {
            name: "Version".to_string(),
            value: b"STARTS 1.0".to_vec(),
        }],
    };
    bytes.extend_from_slice(&starts_soif::write_object(&other));
    bytes.push(b'\n');
    bytes.extend_from_slice(&snap.to_soif_bytes());
    bytes.push(b'\n');

    let objects = starts_soif::parse(&bytes, ParseMode::Strict).unwrap();
    let stats = objects
        .iter()
        .find(|o| o.template == SSTATS_TEMPLATE)
        .expect("stats object present");
    let found = starts_soif::write_object(stats);
    assert_eq!(
        Snapshot::from_soif_bytes(&found, ParseMode::Strict),
        Ok(snap)
    );
}

#[test]
fn quantiles_survive_the_round_trip() {
    let reg = Registry::new();
    let h = reg.histogram("lat");
    for v in 1..=100u64 {
        h.observe(v);
    }
    let snap = reg.snapshot();
    let back = Snapshot::from_soif_bytes(&snap.to_soif_bytes(), ParseMode::Strict).unwrap();
    let hist = back.histogram("lat", &[]).unwrap();
    assert_eq!(hist.count, 100);
    assert_eq!(hist.sum, (1..=100u64).sum::<u64>());
    assert_eq!(hist.min, 1);
    assert_eq!(hist.max, 100);
    // p50 of 1..=100 is 50 exactly; the log buckets report ≤ 2× that.
    assert!(hist.p50 >= 50 && hist.p50 <= 100);
    assert!(hist.p95 >= 95 && hist.p95 <= 100);
    assert_eq!(hist.p99, 100);
}
