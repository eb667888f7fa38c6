//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The traced run is single-threaded, so a span stack is enough to know
//! each span's cause. Spans stay in memory and are written out once, at
//! exit. Nothing in here touches the program: the spans wrap calls to
//! its public functions from the benchmark's side.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The request this span belongs to.
    pub q: u32,
    /// 1-based; `parent == 0` marks a root.
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    anchor: Instant,
    q: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            anchor: Instant::now(),
            q: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_request(&mut self, q: u32) {
        self.q = q;
    }

    /// Run `f` inside a span named `name`, nested under the span open on
    /// this tracer (if any).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            q: self.q,
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(id);
        let start = self.anchor.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.anchor.elapsed().as_nanos() as u64;
        self.stack.pop();
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = start;
        span.end_ns = end;
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Well-formedness: ids are 1..=n in order, every parent exists, and
/// every span lies inside its parent in time and shares its request.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.id as usize != i + 1 {
            return Err(format!("span #{i} carries id {}", s.id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.id));
        }
        if s.parent == 0 {
            continue;
        }
        let Some(p) = spans.get(s.parent as usize - 1).filter(|_| s.parent < s.id) else {
            return Err(format!("span {} names missing parent {}", s.id, s.parent));
        };
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.q != p.q {
            return Err(format!("span {} is not contained in parent {}", s.id, p.id));
        }
    }
    Ok(())
}

/// Per span name: how often it ran, total duration, total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Stat {
    /// Mean duration per call, µs.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Stat> {
    let mut table: BTreeMap<&'static str, Stat> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let stat = table.entry(span.name).or_default();
        stat.count += 1;
        stat.total_ns += span.duration_ns();
        stat.self_ns += self_ns;
    }
    table
}

/// Durations of every span called `name`, ascending.
pub fn durations_sorted(spans: &[Span], name: &str) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect();
    v.sort_unstable();
    v
}

/// One JSON object per line: `{q, id, parent, name, start_ns, end_ns}`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"q\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.q, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            q: 0,
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(1, 0, 0, 100),   // root
            span(2, 1, 10, 40),   // child a
            span(3, 2, 15, 25),   // grandchild: comes off a, not off root
            span(4, 1, 50, 70),   // child b, sibling of a
            span(5, 1, 60, 80),   // child c overlaps b: 50..80 counts once
            span(6, 0, 200, 230), // second root, no children
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 20, 20, 30]);
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let mut t = Tracer::new();
        t.set_request(7);
        let out = t.span("outer", |t| {
            t.span("first", |_| ());
            t.span("second", |t| t.span("inner", |_| 42))
        });
        assert_eq!(out, 42);
        let parents: Vec<(&str, u32)> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![("outer", 0), ("first", 1), ("second", 1), ("inner", 3)]
        );
        assert!(t.spans.iter().all(|s| s.q == 7));
        validate(&t.spans).unwrap();
        let total: u64 = self_times(&t.spans).iter().sum();
        assert_eq!(total, t.spans[0].duration_ns());
    }

    #[test]
    fn validate_rejects_orphans_and_escapes() {
        assert!(validate(&[span(1, 0, 0, 10), span(2, 1, 2, 8)]).is_ok());
        assert!(validate(&[span(1, 0, 0, 10), span(2, 5, 2, 8)]).is_err());
        assert!(validate(&[span(1, 0, 0, 10), span(2, 1, 2, 12)]).is_err());
        assert!(validate(&[span(2, 0, 0, 10)]).is_err());
        assert!(validate(&[span(1, 1, 0, 10)]).is_err());
    }

    #[test]
    fn by_name_totals_duration_and_self_time() {
        let mut spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 50, 70)];
        spans[0].name = "root";
        let table = by_name(&spans);
        assert_eq!(
            table["root"],
            Stat {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(table["x"].count, 2);
        assert_eq!(table["x"].total_ns, 50);
        assert!((table["x"].mean_us() - 0.025).abs() < 1e-12);
    }
}
