//! Snapshot exporters: Prometheus text, JSON, and a SOIF `@SStats`
//! object.
//!
//! The SOIF form keeps stats inside the protocol's own object model
//! (§2's "attribute-value pairs carried in objects"), so a metasearcher
//! can serve its own telemetry the same way sources serve
//! `@SMetaAttributes`. It round-trips: [`to_soif`] → `write_object` →
//! `starts_soif::parse` → [`snapshot_from_soif`] reproduces the
//! snapshot exactly.

use starts_soif::SoifObject;

use crate::registry::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricId, Snapshot};

/// The SOIF template name for exported stats.
pub const SSTATS_TEMPLATE: &str = "SStats";

// ---------------------------------------------------------------------
// Prometheus text format
// ---------------------------------------------------------------------

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
            _ => '_',
        })
        .collect()
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            format!(
                "{}=\"{}\"",
                prom_name(k),
                v.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            )
        })
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!(
            "{}=\"{}\"",
            prom_name(k),
            v.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        ));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Render a snapshot in the Prometheus text exposition format.
/// Histograms are rendered as summaries with `quantile` labels plus
/// `_sum`/`_count` series.
pub fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        if last_family != name {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_family = name.to_string();
        }
    };
    for c in &snap.counters {
        let name = prom_name(&c.id.name);
        type_line(&mut out, &name, "counter");
        out.push_str(&format!(
            "{name}{} {}\n",
            prom_labels(&c.id.labels, None),
            c.value
        ));
    }
    for g in &snap.gauges {
        let name = prom_name(&g.id.name);
        type_line(&mut out, &name, "gauge");
        out.push_str(&format!(
            "{name}{} {}\n",
            prom_labels(&g.id.labels, None),
            g.value
        ));
    }
    for h in &snap.histograms {
        let name = prom_name(&h.id.name);
        type_line(&mut out, &name, "summary");
        for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            out.push_str(&format!(
                "{name}{} {v}\n",
                prom_labels(&h.id.labels, Some(("quantile", q)))
            ));
        }
        out.push_str(&format!(
            "{name}_sum{} {}\n",
            prom_labels(&h.id.labels, None),
            h.sum
        ));
        out.push_str(&format!(
            "{name}_count{} {}\n",
            prom_labels(&h.id.labels, None),
            h.count
        ));
    }
    out
}

// ---------------------------------------------------------------------
// JSON (for the bench binaries' --stats-json flag)
// ---------------------------------------------------------------------

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

fn json_labels(labels: &[(String, String)]) -> String {
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

/// Render a snapshot as a JSON document (no external serializer: the
/// build environment is offline, and the shape is small and fixed).
pub fn json(snap: &Snapshot) -> String {
    let counters: Vec<String> = snap
        .counters
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                json_escape(&c.id.name),
                json_labels(&c.id.labels),
                c.value
            )
        })
        .collect();
    let gauges: Vec<String> = snap
        .gauges
        .iter()
        .map(|g| {
            format!(
                "{{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                json_escape(&g.id.name),
                json_labels(&g.id.labels),
                g.value
            )
        })
        .collect();
    let histograms: Vec<String> = snap
        .histograms
        .iter()
        .map(|h| {
            format!(
                "{{\"name\":\"{}\",\"labels\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_escape(&h.id.name),
                json_labels(&h.id.labels),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99
            )
        })
        .collect();
    format!(
        "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
    )
}

// ---------------------------------------------------------------------
// SOIF @SStats
// ---------------------------------------------------------------------

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

/// Every value of attribute `name` as text, in order. A value that is
/// not UTF-8 fails the decode instead of vanishing from it.
pub(crate) fn all_text<'a>(
    obj: &'a SoifObject,
    name: &'a str,
) -> impl Iterator<Item = Result<&'a str, String>> + 'a {
    obj.iter()
        .filter(move |a| a.name.eq_ignore_ascii_case(name))
        .map(move |a| std::str::from_utf8(&a.value).map_err(|_| format!("{name}: not UTF-8")))
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
    fn prometheus_text_shape() {
        let text = prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE net_requests counter"));
        assert!(text.contains("net_requests{url=\"starts://db/query\"} 3"));
        assert!(text.contains("# TYPE net_cost gauge"));
        assert!(text.contains("# TYPE net_latency_ms summary"));
        assert!(text.contains("quantile=\"0.95\""));
        assert!(text.contains("net_latency_ms_count{url=\"starts://db/query\"} 3"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let doc = json(&sample_registry().snapshot());
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"name\":\"net.latency_ms\""));
        assert!(doc.contains("\"count\":3"));
        // Balanced braces (a cheap structural check without a parser).
        let open = doc.matches('{').count();
        let close = doc.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn soif_round_trip_exact() {
        let snap = sample_registry().snapshot();
        let bytes = starts_soif::write_object(&to_soif(&snap));
        let obj = starts_soif::parse_one(&bytes, starts_soif::ParseMode::Strict).expect("parses");
        assert_eq!(obj.template, SSTATS_TEMPLATE);
        let back = snapshot_from_soif(&obj).expect("decodes");
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        // Source ids are attacker-ish input as far as the exposition
        // format is concerned: backslashes, quotes, and newlines in a
        // label value must come out escaped, never raw.
        let reg = Registry::new();
        let hostile = "evil\\source\"with\nnewline";
        reg.counter_with("src.queries", &[("source", hostile)])
            .inc();
        reg.histogram_with("src.latency_ms", &[("source", hostile)])
            .observe(7);
        let text = prometheus(&reg.snapshot());
        assert!(
            text.contains(r#"source="evil\\source\"with\nnewline""#),
            "expected escaped label in:\n{text}"
        );
        // No line may contain a raw (unescaped) quote-break or newline
        // inside a label value: every line must end after the sample
        // value, so the line count is exactly the series count.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.ends_with(|c: char| c.is_ascii_digit()),
                "line broken by unescaped newline: {line:?}"
            );
        }
        // quantile labels on the histogram summary stay well-formed too.
        assert!(text.contains(r#"quantile="0.95""#));
    }

    #[test]
    fn metric_id_with_tricky_label_round_trips() {
        let reg = Registry::new();
        reg.counter_with("c", &[("k", r#"quote " and \ slash"#)])
            .inc();
        let snap = reg.snapshot();
        let obj = to_soif(&snap);
        let back = snapshot_from_soif(&obj).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn rejects_wrong_template() {
        let obj = SoifObject::new("SQuery");
        assert!(snapshot_from_soif(&obj).is_err());
    }
}
