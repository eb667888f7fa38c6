//! Output: the `workload metric value unit` lines, the result files
//! under `benchmark/out/`, and the one-line JSON result the driver reads.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A JSON value, rendered by hand (the sandbox has no serde).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("write to string"),
            // `{}` prints the shortest digits that round-trip; JSON has
            // no NaN or infinity, so those degrade to null.
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("write to string"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("write to string")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// One measured value with the name and unit `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Print `workload metric value unit`, one line per metric.
pub fn print_lines(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

/// `benchmark/out/`, beside this package's manifest (git-ignored).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// The commit the benchmark ran on, when the checkout is a git repository.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Look a workload's digest up in `expected_digests.json`: a flat object
/// of `"workload": "0x…"` pairs.
pub fn expected_digest(table: &str, workload: &str) -> Option<u64> {
    let key = format!("\"{workload}\"");
    let rest = &table[table.find(&key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let hex = rest.strip_prefix("\"0x")?;
    u64::from_str_radix(&hex[..hex.find('"')?], 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_nested_values_and_escapes() {
        let j = Json::obj([
            ("a", Json::Int(3)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Num(1.5)])),
            ("c", Json::str("q\"\\\n")),
            ("d", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a": 3, "b": [true, 1.5], "c": "q\"\\\n", "d": null}"#
        );
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(Json::Num(1.2034567891234).render(), "1.2034567891234");
        assert_eq!(Json::Num(1e-7).render(), "0.0000001");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 0, 0, &[metric("qps", "1/s", 10.5)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"qps": {"value": 10.5, "unit": "1/s"}}}"#
        );
    }

    #[test]
    fn expected_digest_reads_the_flat_table() {
        let table = "{\n  \"fed_zipf\": \"0x00ff\",\n  \"big_tree\" : \"0xdeadbeefdeadbeef\"\n}";
        assert_eq!(expected_digest(table, "fed_zipf"), Some(0xff));
        assert_eq!(
            expected_digest(table, "big_tree"),
            Some(0xdead_beef_dead_beef)
        );
        assert_eq!(expected_digest(table, "hot_repeat"), None);
    }
}
