//! Hostile input and round trips for the two observability wire
//! decoders: `AlertsSnapshot::from_soif` (the `@SAlerts` object a host
//! serves at `<base>/alerts`) and `export::snapshot_from_soif` (the
//! `@SStats` object at `<base>/stats`). Each must
//!
//! * answer `Ok` or `Err`, never panic, for arbitrary bytes that
//!   `starts_soif::parse` reads as objects;
//! * answer `Ok` or `Err`, never panic, for every attribute of a real
//!   payload flipped, dropped, duplicated, cut short or renamed, and for
//!   the payload cut or bit-flipped anywhere; and
//! * read back exactly the snapshot it wrote, for any snapshot whose
//!   numbers are finite.
//!
//! The named cases at the end pin where the wire form is lossy on
//! purpose — a non-finite `@SAlerts` number is written as `0` — and
//! that an attribute value that is not UTF-8, or a malformed `@SAlerts`
//! number, is refused rather than skipped or read as `0` or `false`.

use std::sync::Arc;

use proptest::prelude::*;
use starts_obs::export::{snapshot_from_soif, to_soif};
use starts_obs::monitor::{
    AlertEvent, Aspect, ManualClock, MonitorConfig, SloOp, SloSpec, StoreConfig,
};
use starts_obs::{
    AlertState, AlertStatus, AlertsSnapshot, CounterSnapshot, GaugeSnapshot, HistogramSnapshot,
    MetricId, Monitor, Registry, SloStatus, Snapshot,
};
use starts_soif::{parse, write_object, write_stream, ParseMode, SoifAttr, SoifObject};

const MODES: [ParseMode; 2] = [ParseMode::Strict, ParseMode::Lenient];

/// Run both decoders over every object `bytes` parses to, in both
/// framing modes. A decoder may refuse anything; it may not panic.
fn decode_all(bytes: &[u8]) {
    for mode in MODES {
        for object in parse(bytes, mode).unwrap_or_default() {
            let _ = AlertsSnapshot::from_soif(&object);
            let _ = snapshot_from_soif(&object);
        }
    }
}

/// Attribute `at` of a one-object payload flipped, dropped, duplicated
/// (as is, or followed by a shorter repeat), cut short, or renamed.
fn attribute_mutations(object: &SoifObject, at: usize) -> Vec<SoifObject> {
    if object.attrs.is_empty() {
        return Vec::new();
    }
    let j = at % object.attrs.len();
    let edited = |edit: &dyn Fn(&mut Vec<SoifAttr>)| {
        let mut object = object.clone();
        edit(&mut object.attrs);
        object
    };
    vec![
        edited(&|attrs| {
            attrs.remove(j);
        }),
        edited(&|attrs| attrs.insert(j, attrs[j].clone())),
        edited(&|attrs| {
            let mut repeat = attrs[j].clone();
            repeat.value.truncate(repeat.value.len() / 2);
            attrs.insert(j + 1, repeat);
        }),
        edited(&|attrs| {
            let value = &mut attrs[j].value;
            value.truncate(value.len() / 2);
        }),
        edited(&|attrs| {
            if let Some(b) = attrs[j].value.get_mut(at % 11) {
                *b ^= 1 << (at % 8);
            }
        }),
        edited(&|attrs| {
            if let Some(b) = attrs[j].value.get_mut(at % 5) {
                *b = b" =\"\\,{}:-\n"[at % 10];
            }
        }),
        edited(&|attrs| attrs[j].name.make_ascii_uppercase()),
        edited(&|attrs| attrs[j].name.push('x')),
    ]
}

/// Every attribute mutation of `object`, and its encoding cut short and
/// bit-flipped at every byte.
fn check_every_mutation(object: &SoifObject) {
    for at in 0..object.attrs.len() * 11 {
        for m in attribute_mutations(object, at) {
            decode_all(&write_object(&m));
        }
    }
    let bytes = write_object(object);
    for at in 0..bytes.len() {
        decode_all(&bytes[..at]);
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << (at % 8);
        decode_all(&flipped);
    }
}

/// A registry walked through a real alert lifecycle: one source's error
/// rate breaches, fires and resolves while the other stays healthy, and
/// a histogram and a counter move alongside.
fn real_payloads() -> (AlertsSnapshot, Snapshot) {
    let clock = Arc::new(ManualClock::new(1_000_000));
    let monitor = Monitor::new(MonitorConfig {
        store: StoreConfig {
            step_ms: 1_000,
            retention: 32,
        },
        slos: vec![SloSpec {
            short_window: 2,
            long_window: 4,
            for_ms: 1_000,
            ..SloSpec::new(
                "source-error-rate",
                "health.error_rate",
                &[("source", "*")],
                Aspect::Value,
                SloOp::Lt,
                0.01,
            )
        }],
        clock: clock.clone(),
        log_path: None,
        events_kept: 64,
    });
    let reg = Registry::new();
    let bad = reg.gauge_with("health.error_rate", &[("source", "S \"one\"")]);
    let good = reg.gauge_with("health.error_rate", &[("source", "S2")]);
    let latency = reg.histogram_with("span.duration_us", &[("span", "meta.search")]);
    for (i, v) in [0.0, 0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0]
        .into_iter()
        .enumerate()
    {
        bad.set(v);
        good.set(0.0);
        latency.observe(100 + 37 * i as u64);
        reg.counter("meta.searches").inc();
        clock.advance(1_000);
        monitor.tick(&reg);
    }
    let alerts = monitor.snapshot_alerts();
    assert!(
        alerts
            .events
            .iter()
            .any(|e| e.state == AlertState::Resolved),
        "the walk reaches every state: {alerts:?}"
    );
    (alerts, reg.snapshot())
}

fn reparse(object: &SoifObject) -> SoifObject {
    let objects = parse(&write_object(object), ParseMode::Strict).expect("a valid encoding");
    assert_eq!(objects.len(), 1);
    objects.into_iter().next().unwrap()
}

fn alerts_round_trip(snap: &AlertsSnapshot) -> AlertsSnapshot {
    AlertsSnapshot::from_soif(&reparse(&snap.to_soif())).expect("decodes what it wrote")
}

fn stats_round_trip(snap: &Snapshot) -> Snapshot {
    snapshot_from_soif(&reparse(&to_soif(snap))).expect("decodes what it wrote")
}

#[test]
fn real_payloads_round_trip_and_survive_every_mutation() {
    let (alerts, stats) = real_payloads();
    assert_eq!(alerts_round_trip(&alerts), alerts);
    assert_eq!(stats_round_trip(&stats), stats);
    check_every_mutation(&alerts.to_soif());
    check_every_mutation(&to_soif(&stats));
    // The two templates side by side in one stream.
    let stream = write_stream(&[alerts.to_soif(), to_soif(&stats)]);
    for at in (0..stream.len()).step_by(7) {
        decode_all(&stream[..at]);
    }
}

/// Text, including the characters the two line formats treat specially.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9_.-]{0,10}",
        "[ -~]{0,12}",
        "[ a=\"\\\\,{}\n\té€]{0,8}",
    ]
}

/// A finite number, integers and extremes included.
fn arb_finite() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e12f64..1e12,
        (0u32..1_000).prop_map(f64::from),
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
    ]
}

fn arb_state() -> impl Strategy<Value = AlertState> {
    prop_oneof![
        Just(AlertState::Idle),
        Just(AlertState::Pending),
        Just(AlertState::Firing),
        Just(AlertState::Resolved),
    ]
}

fn arb_alerts() -> impl Strategy<Value = AlertsSnapshot> {
    let slo = (
        arb_text(),
        proptest::option::of(arb_text()),
        proptest::option::of(arb_finite()),
        arb_finite(),
        arb_finite(),
        any::<bool>(),
    )
        .prop_map(
            |(slo, source, latest, burn_short, burn_long, breaching)| SloStatus {
                slo,
                source,
                latest,
                burn_short,
                burn_long,
                breaching,
            },
        );
    let alert = (
        arb_text(),
        proptest::option::of(arb_text()),
        arb_state(),
        any::<u64>(),
        arb_finite(),
        arb_finite(),
    )
        .prop_map(
            |(name, source, state, since_ms, value, threshold)| AlertStatus {
                name,
                source,
                state,
                since_ms,
                value,
                threshold,
            },
        );
    let event = (
        any::<u64>(),
        arb_text(),
        proptest::option::of(arb_text()),
        arb_state(),
        arb_finite(),
        arb_finite(),
    )
        .prop_map(
            |(ts_ms, alert, source, state, value, threshold)| AlertEvent {
                ts_ms,
                alert,
                source,
                state,
                value,
                threshold,
            },
        );
    (
        any::<u64>(),
        proptest::collection::vec(slo, 0..4),
        proptest::collection::vec(alert, 0..4),
        proptest::collection::vec(event, 0..4),
    )
        .prop_map(|(generated_ms, slos, alerts, events)| AlertsSnapshot {
            generated_ms,
            slos,
            alerts,
            events,
        })
}

/// Any metric id the registry accepts: a name of any non-empty text,
/// and label keys and values of any text — the characters the
/// `name{k="v"}` form gives a meaning to, whitespace and non-ASCII
/// included.
fn arb_id() -> impl Strategy<Value = MetricId> {
    (
        prop_oneof![
            "[a-z][a-z0-9_.]{0,12}",
            "[ a=\"\\,{}\n\té€]{1,8}",
            "\\PC{1,8}",
        ],
        proptest::collection::vec((prop_oneof![arb_text(), "\\PC{0,6}"], arb_text()), 0..3),
    )
        .prop_map(|(name, labels)| {
            let labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            MetricId::new(&name, &labels)
        })
}

fn arb_stats() -> impl Strategy<Value = Snapshot> {
    let counter = (arb_id(), any::<u64>()).prop_map(|(id, value)| CounterSnapshot { id, value });
    let gauge = (arb_id(), arb_finite()).prop_map(|(id, value)| GaugeSnapshot { id, value });
    let histogram = (
        arb_id(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..5),
    )
        .prop_map(
            |(id, (count, sum, min, max), (p50, p95, p99), buckets)| HistogramSnapshot {
                id,
                count,
                sum,
                min,
                max,
                p50,
                p95,
                p99,
                buckets,
            },
        );
    (
        proptest::collection::vec(counter, 0..4),
        proptest::collection::vec(gauge, 0..4),
        proptest::collection::vec(histogram, 0..3),
    )
        .prop_map(|(counters, gauges, histograms)| Snapshot {
            counters,
            gauges,
            histograms,
        })
}

proptest! {
    #[test]
    fn salerts_reads_back_what_it_wrote(snap in arb_alerts(), at in any::<usize>()) {
        prop_assert_eq!(alerts_round_trip(&snap), snap.clone());
        for m in attribute_mutations(&snap.to_soif(), at) {
            decode_all(&write_object(&m));
        }
    }

    #[test]
    fn sstats_reads_back_what_it_wrote(snap in arb_stats(), at in any::<usize>()) {
        prop_assert_eq!(stats_round_trip(&snap), snap.clone());
        for m in attribute_mutations(&to_soif(&snap), at) {
            decode_all(&write_object(&m));
        }
    }

    /// Arbitrary bytes, and text shaped like the two objects.
    #[test]
    fn decoders_never_panic_on_any_input(
        junk in proptest::collection::vec(any::<u8>(), 0..200),
        shaped in "(@S(Alerts|Stats)\\{\n((Slo|Alert|Event|Counter|Gauge|Histogram|Generated)\\{[0-9]{1,2}\\}: [ -~]{0,24}\n){0,5}\\}\n){0,2}",
    ) {
        decode_all(&junk);
        decode_all(shaped.as_bytes());
    }
}

#[test]
fn a_non_finite_alert_number_is_written_as_zero() {
    let snap = AlertsSnapshot {
        generated_ms: 7,
        slos: vec![SloStatus {
            slo: "s".to_string(),
            source: None,
            latest: Some(f64::NAN),
            burn_short: f64::INFINITY,
            burn_long: f64::NEG_INFINITY,
            breaching: true,
        }],
        alerts: vec![AlertStatus {
            name: "s".to_string(),
            source: None,
            state: AlertState::Firing,
            since_ms: 1,
            value: f64::NAN,
            threshold: f64::INFINITY,
        }],
        events: Vec::new(),
    };
    let back = alerts_round_trip(&snap);
    let slo = &back.slos[0];
    assert_eq!(
        (slo.latest, slo.burn_short, slo.burn_long),
        (Some(0.0), 0.0, 0.0)
    );
    assert_eq!((back.alerts[0].value, back.alerts[0].threshold), (0.0, 0.0));
}

#[test]
fn a_non_utf8_attribute_is_refused() {
    let (alerts, stats) = real_payloads();
    for name in ["Generated", "Slo", "Alert", "Event"] {
        let mut object = alerts.to_soif();
        let attr = object.attrs.iter_mut().find(|a| a.name == name).unwrap();
        attr.value = vec![0xff, 0xfe];
        assert!(
            AlertsSnapshot::from_soif(&reparse(&object)).is_err(),
            "{name}"
        );
    }
    for name in ["Counter", "Gauge", "Histogram"] {
        let mut object = to_soif(&stats);
        let attr = object.attrs.iter_mut().find(|a| a.name == name).unwrap();
        attr.value = vec![0xff, 0xfe];
        assert!(snapshot_from_soif(&reparse(&object)).is_err(), "{name}");
    }
}

#[test]
fn a_malformed_alert_number_is_refused_not_defaulted() {
    let (alerts, _) = real_payloads();
    for (name, from, to) in [
        ("Generated", None, "soon"),
        ("Slo", Some("breaching=0"), "breaching=no"),
        ("Alert", Some("since="), "since=-"),
        ("Event", Some("ts="), "ts=1e3"),
    ] {
        let mut object = alerts.to_soif();
        let attr = object.attrs.iter_mut().find(|a| a.name == name).unwrap();
        let value = String::from_utf8(attr.value.clone()).unwrap();
        let edited = match from {
            Some(from) => {
                assert!(value.contains(from), "{value}");
                value.replacen(from, to, 1)
            }
            None => to.to_string(),
        };
        attr.value = edited.clone().into_bytes();
        assert!(
            AlertsSnapshot::from_soif(&reparse(&object)).is_err(),
            "{name}: {edited:?}"
        );
    }
}
