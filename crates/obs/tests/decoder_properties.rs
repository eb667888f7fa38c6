//! The `@SStats` and `@SAlerts` codecs against the codecs they
//! replaced. `oracle` is the earlier implementation, kept verbatim:
//! every snapshot went through a `SoifObject` on the way out and on the
//! way in. `Snapshot` and `AlertsSnapshot` now write and read the wire
//! form directly (`to_soif_bytes` / `from_soif_bytes`), so each must
//!
//! * write the very bytes the oracle writes, for any snapshot, and read
//!   them back to the snapshot, for any snapshot whose numbers are
//!   finite; and
//! * on any input — arbitrary bytes, text shaped like the two objects,
//!   or a real payload with one attribute flipped, dropped, duplicated,
//!   cut short or renamed, or with its bytes cut short or bit-flipped
//!   anywhere — fail exactly when `parse_one` and the oracle fail,
//!   decode exactly what the oracle decodes, and never panic, under
//!   both framing modes. The oracle's errors were text and the new
//!   ones are `ProtoError`s, so only whether a decode failed is
//!   compared, not why.
//!
//! **The carve-out: a template that matches only ignoring case.** The
//! oracle compared the template case-sensitively; every other template
//! decoder compares it ignoring ASCII case, and so do these two now. An
//! input that frames as an object whose template is `SStats` or
//! `SAlerts` in another case (a bit flip of `0x20` makes one) is kept
//! out of that template's comparison by `template_differs_only_in_case`:
//! the decoder must only not panic on it, and
//! `the_template_is_matched_ignoring_case` pins the new rule.
//!
//! The named cases at the end pin where the wire form is lossy on
//! purpose — a non-finite `@SAlerts` number is written as `0` — and
//! that an attribute value that is not UTF-8, or a malformed `@SAlerts`
//! number, is refused rather than skipped or read as `0` or `false`.

use std::fmt::Debug;
use std::sync::Arc;

use proptest::prelude::*;
use starts_obs::monitor::{
    AlertEvent, Aspect, ManualClock, MonitorConfig, SloOp, SloSpec, StoreConfig,
};
use starts_obs::{
    AlertState, AlertStatus, AlertsSnapshot, CounterSnapshot, GaugeSnapshot, HistogramSnapshot,
    MetricId, Monitor, Registry, SloStatus, Snapshot,
};
use starts_proto::ProtoError;
use starts_soif::{parse_one, write_object, ParseError, ParseMode, SoifAttr, SoifObject};

/// The `SoifObject`-based codecs as they were.
mod oracle {
    use starts_obs::monitor::AlertEvent;
    use starts_obs::{
        AlertState, AlertStatus, AlertsSnapshot, CounterSnapshot, GaugeSnapshot, HistogramSnapshot,
        MetricId, SloStatus, Snapshot,
    };
    use starts_soif::SoifObject;

    const SSTATS_TEMPLATE: &str = "SStats";
    const SALERTS_TEMPLATE: &str = "SAlerts";

    /// Encode a snapshot as an `@SStats` SOIF object: one `Counter`,
    /// `Gauge`, or `Histogram` attribute per metric (SOIF allows repeated
    /// attribute names; the decoder reads them back in order).
    pub fn to_soif(snap: &Snapshot) -> SoifObject {
        let mut obj = SoifObject::new(SSTATS_TEMPLATE);
        obj.push_str("Version", "STARTS 1.0");
        for c in &snap.counters {
            obj.push_str("Counter", format!("{} {}", c.id, c.value));
        }
        for g in &snap.gauges {
            obj.push_str("Gauge", format!("{} {}", g.id, g.value));
        }
        for h in &snap.histograms {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(upper, n)| format!("{upper}:{n}"))
                .collect();
            obj.push_str(
                "Histogram",
                format!(
                    "{} count={} sum={} min={} max={} p50={} p95={} p99={} buckets={}",
                    h.id,
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.p50,
                    h.p95,
                    h.p99,
                    buckets.join(",")
                ),
            );
        }
        obj
    }

    /// Decode an `@SStats` object back into a snapshot.
    pub fn snapshot_from_soif(obj: &SoifObject) -> Result<Snapshot, String> {
        if obj.template != SSTATS_TEMPLATE {
            return Err(format!(
                "expected @{SSTATS_TEMPLATE}, got @{}",
                obj.template
            ));
        }
        let mut snap = Snapshot::default();
        for value in all_text(obj, "Counter") {
            let (id, rest) = parse_metric_id(value?)?;
            let value = rest
                .trim()
                .parse::<u64>()
                .map_err(|e| format!("counter {}: {e}", id.name))?;
            snap.counters.push(CounterSnapshot { id, value });
        }
        for value in all_text(obj, "Gauge") {
            let (id, rest) = parse_metric_id(value?)?;
            let value = rest
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("gauge {}: {e}", id.name))?;
            snap.gauges.push(GaugeSnapshot { id, value });
        }
        for value in all_text(obj, "Histogram") {
            let (id, rest) = parse_metric_id(value?)?;
            snap.histograms.push(parse_histogram(id, rest)?);
        }
        Ok(snap)
    }

    fn parse_histogram(id: MetricId, rest: &str) -> Result<HistogramSnapshot, String> {
        let mut h = HistogramSnapshot {
            id,
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p95: 0,
            p99: 0,
            buckets: Vec::new(),
        };
        for token in rest.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("histogram {}: bad token {token:?}", h.id.name))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|e| format!("histogram {}: {key}: {e}", h.id.name))
            };
            match key {
                "count" => h.count = num(value)?,
                "sum" => h.sum = num(value)?,
                "min" => h.min = num(value)?,
                "max" => h.max = num(value)?,
                "p50" => h.p50 = num(value)?,
                "p95" => h.p95 = num(value)?,
                "p99" => h.p99 = num(value)?,
                "buckets" => {
                    for pair in value.split(',').filter(|p| !p.is_empty()) {
                        let (upper, n) = pair.split_once(':').ok_or_else(|| {
                            format!("histogram {}: bad bucket {pair:?}", h.id.name)
                        })?;
                        h.buckets.push((num(upper)?, num(n)?));
                    }
                }
                _ => return Err(format!("histogram {}: unknown key {key:?}", h.id.name)),
            }
        }
        Ok(h)
    }

    /// Parse `name` or `name{k="v",...}` off the front of a metric line;
    /// returns the id and the remainder of the line.
    fn parse_metric_id(line: &str) -> Result<(MetricId, &str), String> {
        let line = line.trim_start();
        let bytes = line.as_bytes();
        let (name, mut i) = read_part(line, 0, b"{ ")?;
        if name.is_empty() {
            return Err(format!("empty metric name in {line:?}"));
        }
        if bytes.get(i) != Some(&b'{') {
            return Ok((MetricId::new(&name, &[]), &line[i..]));
        }
        i += 1;
        let mut labels: Vec<(String, String)> = Vec::new();
        loop {
            match bytes.get(i) {
                None => return Err(format!("unterminated labels in {line:?}")),
                Some(b'}') => {
                    i += 1;
                    break;
                }
                Some(_) => {}
            }
            let (key, at) = read_part(line, i, b"=")?;
            if bytes.get(at..at + 2) != Some(b"=\"") {
                return Err(format!("expected quoted label value in {line:?}"));
            }
            let (value, at) = read_part(line, at + 2, b"\"")?;
            if bytes.get(at) != Some(&b'"') {
                return Err(format!("unterminated label value in {line:?}"));
            }
            labels.push((key, value));
            i = at + 1;
            if bytes.get(i) == Some(&b',') {
                i += 1;
            }
        }
        let label_refs: Vec<(&str, &str)> = labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        Ok((MetricId::new(&name, &label_refs), &line[i..]))
    }

    /// Read a name, label key or label value from `line[at..]` up to the
    /// first unescaped byte in `stop` (or the end): `\X` stands for `X`.
    /// Returns it with the offset where it stopped.
    fn read_part(line: &str, mut at: usize, stop: &[u8]) -> Result<(String, usize), String> {
        let bytes = line.as_bytes();
        let mut part = Vec::new();
        while let Some(&b) = bytes.get(at) {
            if stop.contains(&b) {
                break;
            }
            if b == b'\\' {
                at += 1;
                let escaped = bytes
                    .get(at)
                    .ok_or_else(|| format!("dangling escape in {line:?}"))?;
                part.push(*escaped);
            } else {
                part.push(b);
            }
            at += 1;
        }
        let part = String::from_utf8(part).map_err(|_| format!("non-UTF-8 text in {line:?}"))?;
        Ok((part, at))
    }

    /// Every value of attribute `name` as text, in order. A value that is
    /// not UTF-8 fails the decode instead of vanishing from it.
    fn all_text<'a>(
        obj: &'a SoifObject,
        name: &'a str,
    ) -> impl Iterator<Item = Result<&'a str, String>> + 'a {
        obj.iter()
            .filter(move |a| a.name.eq_ignore_ascii_case(name))
            .map(move |a| std::str::from_utf8(&a.value).map_err(|_| format!("{name}: not UTF-8")))
    }

    /// Encode as an `@SAlerts` SOIF object (repeated `Slo` / `Alert` /
    /// `Event` attributes, like `@SStats` repeats `Counter`).
    pub fn alerts_to_soif(snap: &AlertsSnapshot) -> SoifObject {
        let mut obj = SoifObject::new(SALERTS_TEMPLATE);
        obj.push_str("Version", "STARTS 1.0");
        obj.push_str("Generated", snap.generated_ms.to_string());
        for s in &snap.slos {
            let mut line = format!("slo={}", kv_quote(&s.slo));
            if let Some(src) = &s.source {
                line.push_str(&format!(" source={}", kv_quote(src)));
            }
            line.push_str(&format!(
                " latest={} burn_short={} burn_long={} breaching={}",
                s.latest.map_or("-".to_string(), fmt_f64),
                fmt_f64(s.burn_short),
                fmt_f64(s.burn_long),
                u8::from(s.breaching),
            ));
            obj.push_str("Slo", line);
        }
        for a in &snap.alerts {
            let mut line = format!("alert={}", kv_quote(&a.name));
            if let Some(src) = &a.source {
                line.push_str(&format!(" source={}", kv_quote(src)));
            }
            line.push_str(&format!(
                " state={} since={} value={} threshold={}",
                a.state.name(),
                a.since_ms,
                fmt_f64(a.value),
                fmt_f64(a.threshold),
            ));
            obj.push_str("Alert", line);
        }
        for e in &snap.events {
            let mut line = format!("alert={}", kv_quote(&e.alert));
            if let Some(src) = &e.source {
                line.push_str(&format!(" source={}", kv_quote(src)));
            }
            line.push_str(&format!(
                " state={} ts={} value={} threshold={}",
                e.state.name(),
                e.ts_ms,
                fmt_f64(e.value),
                fmt_f64(e.threshold),
            ));
            obj.push_str("Event", line);
        }
        obj
    }

    /// Decode an `@SAlerts` object.
    pub fn alerts_from_soif(obj: &SoifObject) -> Result<AlertsSnapshot, String> {
        if obj.template != SALERTS_TEMPLATE {
            return Err(format!(
                "expected @{SALERTS_TEMPLATE}, got @{}",
                obj.template
            ));
        }
        let mut snap = AlertsSnapshot {
            generated_ms: match all_text(obj, "Generated").next().transpose()? {
                Some(s) => s.trim().parse().map_err(|e| format!("Generated: {e}"))?,
                None => 0,
            },
            ..AlertsSnapshot::default()
        };
        for line in all_text(obj, "Slo") {
            let kv = parse_kv(line?)?;
            snap.slos.push(SloStatus {
                slo: kv_str(&kv, "slo")?,
                source: kv_opt(&kv, "source"),
                latest: match kv.iter().find(|(k, _)| k == "latest") {
                    Some((_, v)) if v != "-" => Some(kv_num(&kv, "latest")?),
                    _ => None,
                },
                burn_short: kv_num(&kv, "burn_short")?,
                burn_long: kv_num(&kv, "burn_long")?,
                breaching: match kv_str(&kv, "breaching")?.as_str() {
                    "1" => true,
                    "0" => false,
                    other => return Err(format!("breaching: {other:?} is not 0 or 1")),
                },
            });
        }
        for line in all_text(obj, "Alert") {
            let kv = parse_kv(line?)?;
            snap.alerts.push(AlertStatus {
                name: kv_str(&kv, "alert")?,
                source: kv_opt(&kv, "source"),
                state: parse_state(&kv)?,
                since_ms: kv_num(&kv, "since")?,
                value: kv_num(&kv, "value")?,
                threshold: kv_num(&kv, "threshold")?,
            });
        }
        for line in all_text(obj, "Event") {
            let kv = parse_kv(line?)?;
            snap.events.push(AlertEvent {
                alert: kv_str(&kv, "alert")?,
                source: kv_opt(&kv, "source"),
                state: parse_state(&kv)?,
                ts_ms: kv_num(&kv, "ts")?,
                value: kv_num(&kv, "value")?,
                threshold: kv_num(&kv, "threshold")?,
            });
        }
        Ok(snap)
    }

    /// `AlertState::parse`, which is private to its crate.
    fn alert_state_parse(s: &str) -> Option<AlertState> {
        match s {
            "idle" => Some(AlertState::Idle),
            "pending" => Some(AlertState::Pending),
            "firing" => Some(AlertState::Firing),
            "resolved" => Some(AlertState::Resolved),
            _ => None,
        }
    }

    fn parse_state(kv: &[(String, String)]) -> Result<AlertState, String> {
        let s = kv_str(kv, "state")?;
        alert_state_parse(&s).ok_or_else(|| format!("unknown alert state {s:?}"))
    }

    /// Render a float so it parses back (JSON has no NaN/inf literals).
    fn fmt_f64(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "0".to_string()
        }
    }

    /// Quote a kv value: bare when it has no specials, else `"..."` with
    /// backslash escapes.
    fn kv_quote(v: &str) -> String {
        if !v.is_empty()
            && v.chars()
                .all(|c| !c.is_whitespace() && c != '"' && c != '\\' && c != '=')
        {
            v.to_string()
        } else {
            let mut out = String::with_capacity(v.len() + 2);
            out.push('"');
            for c in v.chars() {
                match c {
                    '"' | '\\' => {
                        out.push('\\');
                        out.push(c);
                    }
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
    }

    /// Parse a `key=value key="quoted value"` line into pairs.
    fn parse_kv(line: &str) -> Result<Vec<(String, String)>, String> {
        let mut out = Vec::new();
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() {
                break;
            }
            let key_start = i;
            while i < bytes.len() && bytes[i] != b'=' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err(format!("token without '=' in {line:?}"));
            }
            let key = line[key_start..i].to_string();
            i += 1; // '='
            let value = if bytes.get(i) == Some(&b'"') {
                i += 1;
                let mut v = Vec::new();
                loop {
                    match bytes.get(i) {
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            match bytes.get(i + 1) {
                                Some(b'n') => v.push(b'\n'),
                                Some(&c) => v.push(c),
                                None => return Err(format!("dangling escape in {line:?}")),
                            }
                            i += 2;
                        }
                        Some(&c) => {
                            v.push(c);
                            i += 1;
                        }
                        None => return Err(format!("unterminated quote in {line:?}")),
                    }
                }
                String::from_utf8(v).map_err(|_| format!("non-UTF-8 value in {line:?}"))?
            } else {
                let start = i;
                while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                line[start..i].to_string()
            };
            out.push((key, value));
        }
        Ok(out)
    }

    fn kv_str(kv: &[(String, String)], key: &str) -> Result<String, String> {
        kv.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    fn kv_opt(kv: &[(String, String)], key: &str) -> Option<String> {
        kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }

    /// The value of `key`, parsed as the field it fills: timestamps as
    /// `u64`, so they come back exact past 2^53.
    fn kv_num<T: std::str::FromStr>(kv: &[(String, String)], key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        kv_str(kv, key)?.parse().map_err(|e| format!("{key}: {e}"))
    }
}

const MODES: [ParseMode; 2] = [ParseMode::Strict, ParseMode::Lenient];

/// Whether `object` framed with a template that is `expected` only
/// ignoring ASCII case: the carve-out of the module doc.
fn template_differs_only_in_case(object: &Result<SoifObject, ParseError>, expected: &str) -> bool {
    object
        .as_ref()
        .is_ok_and(|o| o.template != expected && o.template.eq_ignore_ascii_case(expected))
}

/// What a decode came to, compared across the two codecs: the value (by
/// its `Debug` form, so a decoded NaN equals itself), or that it failed.
fn outcome<T: Debug, E>(decoded: Result<T, E>) -> Result<String, ()> {
    decoded.map(|v| format!("{v:?}")).map_err(|_| ())
}

/// `decoded` against what `parse_one` and then `oracle` make of the
/// same bytes, unless the carve-out applies.
fn agree<T: Debug>(
    template: &str,
    decoded: Result<T, ProtoError>,
    object: &Result<SoifObject, ParseError>,
    oracle: fn(&SoifObject) -> Result<T, String>,
) {
    if template_differs_only_in_case(object, template) {
        return;
    }
    let expected = match object {
        Ok(o) => outcome(oracle(o)),
        Err(_) => Err(()),
    };
    assert_eq!(outcome(decoded), expected, "@{template}: {object:?}");
}

/// Decode `bytes` as both templates, both ways, in both framing modes,
/// and require the same outcomes.
fn check_decoders_agree(bytes: &[u8]) {
    for mode in MODES {
        let object = parse_one(bytes, mode);
        let stats = Snapshot::from_soif_bytes(bytes, mode);
        agree("SStats", stats, &object, oracle::snapshot_from_soif);
        let alerts = AlertsSnapshot::from_soif_bytes(bytes, mode);
        agree("SAlerts", alerts, &object, oracle::alerts_from_soif);
    }
}

/// The object `bytes` hold, for a test to edit.
fn object_of(bytes: &[u8]) -> SoifObject {
    parse_one(bytes, ParseMode::Strict).expect("a valid encoding")
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

/// Every attribute mutation of the one object `bytes` hold, and the
/// bytes cut short and bit-flipped at every byte, through both codecs.
fn check_every_mutation(bytes: &[u8]) {
    let object = object_of(bytes);
    for at in 0..object.attrs.len() * 11 {
        for m in attribute_mutations(&object, at) {
            check_decoders_agree(&write_object(&m));
        }
    }
    for at in 0..bytes.len() {
        check_decoders_agree(&bytes[..at]);
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 1 << (at % 8);
        check_decoders_agree(&flipped);
    }
}

/// The new encoder writes what the oracle writes, and the two decoders
/// agree on it.
fn check_stats(snap: &Snapshot) {
    let bytes = snap.to_soif_bytes();
    let expected = write_object(&oracle::to_soif(snap));
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&expected)
    );
    check_decoders_agree(&bytes);
}

fn check_alerts(snap: &AlertsSnapshot) {
    let bytes = snap.to_soif_bytes();
    let expected = write_object(&oracle::alerts_to_soif(snap));
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&expected)
    );
    check_decoders_agree(&bytes);
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

fn alerts_round_trip(snap: &AlertsSnapshot) -> AlertsSnapshot {
    AlertsSnapshot::from_soif_bytes(&snap.to_soif_bytes(), ParseMode::Strict)
        .expect("decodes what it wrote")
}

fn stats_round_trip(snap: &Snapshot) -> Snapshot {
    Snapshot::from_soif_bytes(&snap.to_soif_bytes(), ParseMode::Strict)
        .expect("decodes what it wrote")
}

#[test]
fn real_payloads_round_trip_and_survive_every_mutation() {
    let (alerts, stats) = real_payloads();
    assert_eq!(alerts_round_trip(&alerts), alerts);
    assert_eq!(stats_round_trip(&stats), stats);
    check_alerts(&alerts);
    check_stats(&stats);
    check_every_mutation(&alerts.to_soif_bytes());
    check_every_mutation(&stats.to_soif_bytes());
    // The two templates side by side in one stream: one object is
    // expected, so a cut that keeps more than the first one fails.
    let mut stream = alerts.to_soif_bytes();
    stream.push(b'\n');
    stream.extend_from_slice(&stats.to_soif_bytes());
    for at in (0..stream.len()).step_by(7) {
        check_decoders_agree(&stream[..at]);
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
        check_alerts(&snap);
        for m in attribute_mutations(&object_of(&snap.to_soif_bytes()), at) {
            check_decoders_agree(&write_object(&m));
        }
    }

    #[test]
    fn sstats_reads_back_what_it_wrote(snap in arb_stats(), at in any::<usize>()) {
        prop_assert_eq!(stats_round_trip(&snap), snap.clone());
        check_stats(&snap);
        for m in attribute_mutations(&object_of(&snap.to_soif_bytes()), at) {
            check_decoders_agree(&write_object(&m));
        }
    }

    /// Arbitrary bytes, and text shaped like the two objects.
    #[test]
    fn decoders_never_panic_on_any_input(
        junk in proptest::collection::vec(any::<u8>(), 0..200),
        shaped in "(@S(Alerts|Stats)\\{\n((Slo|Alert|Event|Counter|Gauge|Histogram|Generated)\\{[0-9]{1,2}\\}: [ -~]{0,24}\n){0,5}\\}\n){0,2}",
    ) {
        check_decoders_agree(&junk);
        check_decoders_agree(shaped.as_bytes());
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
    check_alerts(&snap);
    let back = alerts_round_trip(&snap);
    let slo = &back.slos[0];
    assert_eq!(
        (slo.latest, slo.burn_short, slo.burn_long),
        (Some(0.0), 0.0, 0.0)
    );
    assert_eq!((back.alerts[0].value, back.alerts[0].threshold), (0.0, 0.0));
}

/// `bytes` with the value of their first `name` attribute replaced.
fn with_value(bytes: &[u8], name: &str, value: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let mut object = object_of(bytes);
    let attr = object.attrs.iter_mut().find(|a| a.name == name).unwrap();
    attr.value = value(&attr.value);
    write_object(&object)
}

#[test]
fn a_non_utf8_attribute_is_refused() {
    let (alerts, stats) = real_payloads();
    for name in ["Generated", "Slo", "Alert", "Event"] {
        let bytes = with_value(&alerts.to_soif_bytes(), name, |_| vec![0xff, 0xfe]);
        assert!(
            AlertsSnapshot::from_soif_bytes(&bytes, ParseMode::Strict).is_err(),
            "{name}"
        );
    }
    for name in ["Counter", "Gauge", "Histogram"] {
        let bytes = with_value(&stats.to_soif_bytes(), name, |_| vec![0xff, 0xfe]);
        assert!(
            Snapshot::from_soif_bytes(&bytes, ParseMode::Strict).is_err(),
            "{name}"
        );
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
        let bytes = with_value(&alerts.to_soif_bytes(), name, |value| {
            let value = String::from_utf8(value.to_vec()).unwrap();
            let edited = match from {
                Some(from) => {
                    assert!(value.contains(from), "{value}");
                    value.replacen(from, to, 1)
                }
                None => to.to_string(),
            };
            edited.into_bytes()
        });
        assert!(
            AlertsSnapshot::from_soif_bytes(&bytes, ParseMode::Strict).is_err(),
            "{name}: {:?}",
            String::from_utf8_lossy(&bytes)
        );
    }
}

/// The template is compared ignoring ASCII case, as every other
/// template decoder compares it; another template is refused.
#[test]
fn the_template_is_matched_ignoring_case() {
    let (alerts, stats) = real_payloads();
    let retemplated = |bytes: Vec<u8>, template: &str| {
        let mut object = object_of(&bytes);
        object.template = template.to_string();
        write_object(&object)
    };
    for template in ["sstats", "SSTATS", "sStats"] {
        let bytes = retemplated(stats.to_soif_bytes(), template);
        let decoded = Snapshot::from_soif_bytes(&bytes, ParseMode::Strict);
        assert_eq!(decoded.as_ref(), Ok(&stats), "{template}");
    }
    for template in ["salerts", "SALERTS", "sAlerts"] {
        let bytes = retemplated(alerts.to_soif_bytes(), template);
        let decoded = AlertsSnapshot::from_soif_bytes(&bytes, ParseMode::Strict);
        assert_eq!(decoded.as_ref(), Ok(&alerts), "{template}");
    }
    let wrong = |found: &str, expected| ProtoError::WrongTemplate {
        expected,
        found: found.to_string(),
    };
    let query = retemplated(stats.to_soif_bytes(), "SQuery");
    assert_eq!(
        Snapshot::from_soif_bytes(&query, ParseMode::Strict),
        Err(wrong("SQuery", "SStats"))
    );
    assert_eq!(
        AlertsSnapshot::from_soif_bytes(&query, ParseMode::Strict),
        Err(wrong("SQuery", "SAlerts"))
    );
    // Each template is refused by the other's decoder.
    assert_eq!(
        Snapshot::from_soif_bytes(&alerts.to_soif_bytes(), ParseMode::Strict),
        Err(wrong("SAlerts", "SStats"))
    );
    assert_eq!(
        AlertsSnapshot::from_soif_bytes(&stats.to_soif_bytes(), ParseMode::Strict),
        Err(wrong("SStats", "SAlerts"))
    );
}
