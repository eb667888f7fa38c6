//! The telemetry wire form: a registry [`Snapshot`] as an `@SStats`
//! SOIF object, and a monitor's [`AlertsSnapshot`] as an `@SAlerts`
//! object — what a host serves at `<base>/stats` and `<base>/alerts`.
//!
//! Both keep telemetry inside the protocol's own object model (§2's
//! "attribute-value pairs carried in objects"), so a metasearcher can
//! serve its own state the same way sources serve `@SMetaAttributes`.
//! Like the protocol's templates, each has one encoder body and one
//! decoder body that reads the bytes in place, by the rules of
//! [`starts_proto::codec`], and each round-trips: `from_soif_bytes` of
//! `to_soif_bytes` reproduces the snapshot exactly (an `@SAlerts`
//! number that is not finite is written as `0`).

use std::fmt::Write as _;

use starts_proto::codec::{decode_one, text, FirstWins};
use starts_proto::ProtoError;
use starts_soif::{AttrSink, ParseMode, SoifReader, SoifWriter, STARTS_VERSION, VERSION_ATTR};

use crate::monitor::{AlertEvent, AlertState, AlertStatus, AlertsSnapshot, SloStatus};
use crate::registry::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricId, Snapshot};

/// The SOIF template name for exported stats.
pub const SSTATS_TEMPLATE: &str = "SStats";

/// The SOIF template name for exported alert state.
pub const SALERTS_TEMPLATE: &str = "SAlerts";

/// The `@SStats` attributes, one per metric.
const METRIC_ATTRS: &[&str] = &["Counter", "Gauge", "Histogram"];

/// The repeated `@SAlerts` attributes, one per entry.
const ALERT_ATTRS: &[&str] = &["Slo", "Alert", "Event"];

impl Snapshot {
    /// The wire form of the `@SStats` object: one `Counter`, `Gauge` or
    /// `Histogram` attribute per metric, in the snapshot's order.
    pub fn to_soif_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        SoifWriter::new(&mut out).object(SSTATS_TEMPLATE, |w| self.encode(w));
        out
    }

    /// Decode the one `@SStats` object that `bytes` hold.
    pub fn from_soif_bytes(bytes: &[u8], mode: ParseMode) -> Result<Snapshot, ProtoError> {
        decode_one(bytes, mode, SSTATS_TEMPLATE, Self::decode)
    }

    fn encode(&self, sink: &mut impl AttrSink) {
        sink.attr(VERSION_ATTR, STARTS_VERSION.as_bytes());
        for c in &self.counters {
            sink.attr_fmt("Counter", |v| {
                let _ = write!(v, "{} {}", c.id, c.value);
            });
        }
        for g in &self.gauges {
            sink.attr_fmt("Gauge", |v| {
                let _ = write!(v, "{} {}", g.id, g.value);
            });
        }
        for h in &self.histograms {
            sink.attr_fmt("Histogram", |v| {
                let _ = write!(
                    v,
                    "{} count={} sum={} min={} max={} p50={} p95={} p99={} buckets=",
                    h.id, h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
                );
                for (i, (upper, n)) in h.buckets.iter().enumerate() {
                    let _ = write!(v, "{}{upper}:{n}", if i > 0 { "," } else { "" });
                }
            });
        }
    }

    /// Every `Counter`, `Gauge` and `Histogram` is read, in order, and
    /// must be UTF-8; anything else is skipped unread.
    fn decode(reader: &mut SoifReader<'_>) -> Result<Snapshot, ProtoError> {
        let mut snap = Snapshot::default();
        for attr in reader.attrs() {
            let (name, value) = attr?;
            let Some(&attr) = METRIC_ATTRS.iter().find(|n| n.eq_ignore_ascii_case(name)) else {
                continue;
            };
            let invalid = |e: String| ProtoError::invalid(attr, e);
            let (id, rest) = parse_metric_id(text(attr, value)?).map_err(invalid)?;
            match attr {
                "Counter" => {
                    let value = rest.trim().parse::<u64>();
                    let value = value.map_err(|e| invalid(format!("counter {}: {e}", id.name)))?;
                    snap.counters.push(CounterSnapshot { id, value });
                }
                "Gauge" => {
                    let value = rest.trim().parse::<f64>();
                    let value = value.map_err(|e| invalid(format!("gauge {}: {e}", id.name)))?;
                    snap.gauges.push(GaugeSnapshot { id, value });
                }
                _ => snap
                    .histograms
                    .push(parse_histogram(id, rest).map_err(invalid)?),
            }
        }
        Ok(snap)
    }
}

impl AlertsSnapshot {
    /// The wire form of the `@SAlerts` object: `Generated`, then one
    /// `Slo`, `Alert` or `Event` attribute per entry, in order (like
    /// `@SStats` repeats `Counter`).
    pub fn to_soif_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        SoifWriter::new(&mut out).object(SALERTS_TEMPLATE, |w| self.encode(w));
        out
    }

    /// Decode the one `@SAlerts` object that `bytes` hold.
    pub fn from_soif_bytes(bytes: &[u8], mode: ParseMode) -> Result<AlertsSnapshot, ProtoError> {
        decode_one(bytes, mode, SALERTS_TEMPLATE, Self::decode)
    }

    fn encode(&self, sink: &mut impl AttrSink) {
        sink.attr(VERSION_ATTR, STARTS_VERSION.as_bytes());
        sink.attr_fmt("Generated", |v| {
            let _ = write!(v, "{}", self.generated_ms);
        });
        for s in &self.slos {
            sink.attr_fmt("Slo", |v| {
                write_subject(v, "slo", &s.slo, s.source.as_deref());
                let _ = write!(
                    v,
                    " latest={} burn_short={} burn_long={} breaching={}",
                    s.latest.map_or("-".to_string(), fmt_f64),
                    fmt_f64(s.burn_short),
                    fmt_f64(s.burn_long),
                    u8::from(s.breaching),
                );
            });
        }
        for a in &self.alerts {
            sink.attr_fmt("Alert", |v| {
                write_subject(v, "alert", &a.name, a.source.as_deref());
                let _ = write!(
                    v,
                    " state={} since={} value={} threshold={}",
                    a.state.name(),
                    a.since_ms,
                    fmt_f64(a.value),
                    fmt_f64(a.threshold),
                );
            });
        }
        for e in &self.events {
            sink.attr_fmt("Event", |v| {
                write_subject(v, "alert", &e.alert, e.source.as_deref());
                let _ = write!(
                    v,
                    " state={} ts={} value={} threshold={}",
                    e.state.name(),
                    e.ts_ms,
                    fmt_f64(e.value),
                    fmt_f64(e.threshold),
                );
            });
        }
    }

    /// The first `Generated` is read (absent, it reads 0); every `Slo`,
    /// `Alert` and `Event` is read, in order. What is read must be
    /// UTF-8; anything else is skipped unread.
    fn decode(reader: &mut SoifReader<'_>) -> Result<AlertsSnapshot, ProtoError> {
        let mut snap = AlertsSnapshot::default();
        let mut first = FirstWins::new(&["Generated"]);
        for attr in reader.attrs() {
            let (name, value) = attr?;
            let line = ALERT_ATTRS.iter().find(|n| n.eq_ignore_ascii_case(name));
            let Some(attr) = line.copied().or_else(|| first.claim(name)) else {
                continue;
            };
            let v = text(attr, value)?;
            let invalid = |e: String| ProtoError::invalid(attr, e);
            match attr {
                "Generated" => {
                    let ms = v.trim().parse();
                    snap.generated_ms = ms.map_err(|e| invalid(format!("{e}")))?;
                }
                "Slo" => snap.slos.push(decode_slo(v).map_err(invalid)?),
                "Alert" => snap.alerts.push(decode_alert(v, "since").map_err(invalid)?),
                _ => {
                    let a = decode_alert(v, "ts").map_err(invalid)?;
                    snap.events.push(AlertEvent {
                        ts_ms: a.since_ms,
                        alert: a.name,
                        source: a.source,
                        state: a.state,
                        value: a.value,
                        threshold: a.threshold,
                    });
                }
            }
        }
        Ok(snap)
    }
}

/// `key=<name>`, then ` source=<source>` when there is one, kv-quoted:
/// how every `@SAlerts` line begins.
fn write_subject(v: &mut String, key: &str, name: &str, source: Option<&str>) {
    let _ = write!(v, "{key}={}", kv_quote(name));
    if let Some(src) = source {
        let _ = write!(v, " source={}", kv_quote(src));
    }
}

fn decode_slo(line: &str) -> Result<SloStatus, String> {
    let kv = parse_kv(line)?;
    Ok(SloStatus {
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
    })
}

/// An `Alert` line, or an `Event` line: the two differ only in the key
/// of their timestamp, `at` (`since` and `ts`).
fn decode_alert(line: &str, at: &str) -> Result<AlertStatus, String> {
    let kv = parse_kv(line)?;
    Ok(AlertStatus {
        name: kv_str(&kv, "alert")?,
        source: kv_opt(&kv, "source"),
        state: parse_state(&kv)?,
        since_ms: kv_num(&kv, at)?,
        value: kv_num(&kv, "value")?,
        threshold: kv_num(&kv, "threshold")?,
    })
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
                    let (upper, n) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("histogram {}: bad bucket {pair:?}", h.id.name))?;
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

fn parse_state(kv: &[(String, String)]) -> Result<AlertState, String> {
    let s = kv_str(kv, "state")?;
    AlertState::parse(&s).ok_or_else(|| format!("unknown alert state {s:?}"))
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

/// Escape `s` for a JSON string (the alert log and the slow-query log
/// are JSON lines).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a float so it parses back (JSON has no NaN/inf literals).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter_with("net.requests", &[("url", "starts://db/query")])
            .add(3);
        reg.gauge_with("net.cost", &[("url", "starts://db/query")])
            .add(2.5);
        let h = reg.histogram_with("net.latency_ms", &[("url", "starts://db/query")]);
        for v in [10, 50, 300] {
            h.observe(v);
        }
        reg
    }

    #[test]
    fn soif_round_trip_exact() {
        let snap = sample_registry().snapshot();
        let bytes = snap.to_soif_bytes();
        let obj = starts_soif::parse_one(&bytes, ParseMode::Strict).expect("parses");
        assert_eq!(obj.template, SSTATS_TEMPLATE);
        let back = Snapshot::from_soif_bytes(&bytes, ParseMode::Strict).expect("decodes");
        assert_eq!(back, snap);
    }

    #[test]
    fn metric_id_with_tricky_label_round_trips() {
        let reg = Registry::new();
        reg.counter_with("c", &[("k", r#"quote " and \ slash"#)])
            .inc();
        let snap = reg.snapshot();
        let back = Snapshot::from_soif_bytes(&snap.to_soif_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn rejects_wrong_template() {
        assert!(Snapshot::from_soif_bytes(b"@SQuery{\n}\n", ParseMode::Strict).is_err());
    }
}
