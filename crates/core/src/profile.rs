//! Per-query cost profiles carried inside protocol objects.
//!
//! STARTS §3.4 standardizes *static* source metadata, and §4.3 lets a
//! source "export more information than what is required" via extension
//! attributes that consumers must ignore when they do not understand
//! them. We use that headroom a second time (the first was
//! [`XTraceContext`](crate::trace)): a host that executed a traced query
//! attaches a structured breakdown of *where the time went* — rewrite,
//! translate, execute, per-shard search, prune counters — and the
//! metasearcher grafts those host-side stages under its own
//! select/adapt/dispatch/merge stages, producing one hierarchical
//! [`QueryProfile`] per federated query.
//!
//! The profile rides in a single optional attribute, [`PROFILE_ATTR`]
//! (`XQueryProfile`), on `@SQResults`. Sources that predate the
//! attribute never emit it and their encodings are byte-identical to the
//! paper's Examples 6–8; decoding is deliberately lenient, so a
//! malformed value degrades to "no profile" rather than an error —
//! profiling must never break a query.
//!
//! Stage offsets are microseconds relative to the *profile root's*
//! start, so a consumer can rebase an entire subtree by shifting the
//! root: the metasearcher does exactly that ([`StageCost::rebased`])
//! when it grafts a host-side profile under the client-side stage that
//! timed the exchange.

/// The extension attribute carrying the query profile on `@SQResults`.
pub const PROFILE_ATTR: &str = "XQueryProfile";

/// One timed stage of query processing: a named interval plus metadata
/// counters and nested sub-stages.
///
/// Invariant (checked by [`StageCost::is_consistent`], not enforced at
/// construction): every child interval lies within its parent's.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageCost {
    /// Stage name (no whitespace), e.g. `execute` or `shard-3`.
    pub name: String,
    /// Start offset in microseconds from the profile root's start.
    pub start_us: u64,
    /// Wall-clock duration of the stage in microseconds.
    pub duration_us: u64,
    /// Metadata counters (`key=value`; neither side may contain
    /// whitespace or `=`), e.g. `skipped_docs=812`.
    pub meta: Vec<(String, String)>,
    /// Nested sub-stages, each contained in this stage's interval.
    pub children: Vec<StageCost>,
}

impl StageCost {
    /// A leaf stage covering `[start_us, start_us + duration_us)`.
    pub fn new(name: impl Into<String>, start_us: u64, duration_us: u64) -> StageCost {
        StageCost {
            name: name.into(),
            start_us,
            duration_us,
            meta: Vec::new(),
            children: Vec::new(),
        }
    }

    /// End offset (exclusive) in microseconds from the root's start.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.duration_us)
    }

    /// Attach a metadata counter (builder-style).
    pub fn with_meta(mut self, key: impl Into<String>, value: impl ToString) -> StageCost {
        self.meta.push((key.into(), value.to_string()));
        self
    }

    /// Look up a metadata value.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// This stage and all descendants moved `delta_us` later, if the
    /// moved stage is consistent and ends by `end_us`; `None` otherwise.
    /// This is how a host-side profile (offsets relative to the host
    /// root) joins the client-side timeline. The arithmetic is checked,
    /// so offsets decoded from the wire cannot overflow.
    pub fn rebased(mut self, delta_us: u64, end_us: u64) -> Option<StageCost> {
        let start = self.start_us.checked_add(delta_us)?;
        let end = start.checked_add(self.duration_us)?;
        if end > end_us || !self.is_consistent() {
            return None;
        }
        // Consistent: every descendant ends by this stage's end, so no
        // shifted offset exceeds `end`.
        self.shift(delta_us);
        Some(self)
    }

    fn shift(&mut self, delta_us: u64) {
        self.start_us += delta_us;
        for c in &mut self.children {
            c.shift(delta_us);
        }
    }

    /// Whether every descendant's interval nests inside its parent's.
    pub fn is_consistent(&self) -> bool {
        self.children.iter().all(|c| {
            c.start_us >= self.start_us && c.end_us() <= self.end_us() && c.is_consistent()
        })
    }

    /// Depth-first search for the first stage with `name`.
    pub fn find(&self, name: &str) -> Option<&StageCost> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn encode_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{} {} {} {}",
            depth, self.start_us, self.duration_us, self.name
        );
        for (k, v) in &self.meta {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for c in &self.children {
            c.encode_into(depth + 1, out);
        }
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", self.name);
        let _ = write!(out, "{label:<42} {:>10}us", self.duration_us);
        if !self.meta.is_empty() {
            let metas: Vec<String> = self.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = write!(out, "  [{}]", metas.join(" "));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

/// The full cost accounting of one federated query: a stage tree rooted
/// at the outermost client- or host-side stage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// The metasearcher-minted query id (e.g. `q-000042`), or the empty
    /// string for profiles produced outside a traced exchange.
    pub query_id: String,
    /// The root stage (its `start_us` is 0 by convention).
    pub root: StageCost,
}

impl QueryProfile {
    /// Total wall-clock of the profiled query in microseconds.
    pub fn total_us(&self) -> u64 {
        self.root.duration_us
    }

    /// Whether every stage nests inside its parent (see
    /// [`StageCost::is_consistent`]).
    pub fn is_consistent(&self) -> bool {
        self.root.is_consistent()
    }

    /// Depth-first search for the first stage with `name`.
    pub fn find(&self, name: &str) -> Option<&StageCost> {
        self.root.find(name)
    }

    /// Encode as the attribute value: a first line holding the query id
    /// followed by one preorder line per stage,
    /// `<depth> <start_us> <duration_us> <name> [key=value]*`.
    /// All-integer and whitespace-delimited, so the encoding round-trips
    /// exactly (no float formatting ambiguity).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Append [`QueryProfile::encode`]'s value to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        out.push_str(&self.query_id);
        out.push('\n');
        self.root.encode_into(0, out);
        // Drop the trailing newline: SOIF values are exact byte strings
        // and a symmetric codec is easier to reason about.
        out.pop();
    }

    /// Decode an attribute value. Lenient: anything that does not parse
    /// into a well-formed stage tree yields `None` (per §4.3, unknown or
    /// unusable extension data must not affect query processing).
    pub fn decode(value: &str) -> Option<QueryProfile> {
        let mut lines = value.lines();
        let query_id = lines.next()?.trim();
        if query_id.contains(char::is_whitespace) {
            return None;
        }
        // Parse stage lines into (depth, stage) pairs.
        let mut flat: Vec<(usize, StageCost)> = Vec::with_capacity(value.lines().count());
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_whitespace();
            let depth: usize = tok.next()?.parse().ok()?;
            let start_us: u64 = tok.next()?.parse().ok()?;
            let duration_us: u64 = tok.next()?.parse().ok()?;
            let name = tok.next()?;
            let mut stage = StageCost::new(name, start_us, duration_us);
            for kv in tok {
                let (k, v) = kv.split_once('=')?;
                if k.is_empty() {
                    return None;
                }
                stage.meta.push((k.to_string(), v.to_string()));
            }
            flat.push((depth, stage));
        }
        // Rebuild the tree from depths: exactly one root at depth 0,
        // every later line at most one level deeper than its parent.
        let mut iter = flat.into_iter();
        let (d0, root) = iter.next()?;
        if d0 != 0 {
            return None;
        }
        let mut stack: Vec<StageCost> = vec![root];
        for (depth, stage) in iter {
            if depth == 0 || depth > stack.len() {
                return None; // second root, or a skipped level
            }
            while stack.len() > depth {
                let done = stack.pop()?;
                stack.last_mut()?.children.push(done);
            }
            stack.push(stage);
        }
        while stack.len() > 1 {
            let done = stack.pop()?;
            stack.last_mut()?.children.push(done);
        }
        Some(QueryProfile {
            query_id: query_id.to_string(),
            root: stack.pop()?,
        })
    }

    /// The chain of stages that bounded the query's wall-clock: from the
    /// root, repeatedly descend into the most expensive child. With a
    /// parallel fan-out this is the slowest worker (they start
    /// together); with a sequential pipeline it is the dominant stage,
    /// not merely the last one to finish.
    pub fn critical_path(&self) -> Vec<&StageCost> {
        let mut path = vec![&self.root];
        let mut cur = &self.root;
        while let Some(next) = cur.children.iter().max_by_key(|c| c.duration_us) {
            path.push(next);
            cur = next;
        }
        path
    }

    /// One-line critical path: `meta.search (81204us) → dispatch … `.
    pub fn critical_path_summary(&self) -> String {
        self.critical_path()
            .iter()
            .map(|s| format!("{} ({}us)", s.name, s.duration_us))
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// Render the stage tree as an indented, human-readable cost table —
    /// what `examples/quickstart.rs` prints for a federated query.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.query_id.is_empty() {
            out.push_str(&format!("query {}\n", self.query_id));
        }
        self.root.render_into(0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryProfile {
        let mut execute = StageCost::new("execute", 30, 400)
            .with_meta("shards", 4)
            .with_meta("skipped_docs", 812);
        execute.children = vec![
            StageCost::new("shard-0", 40, 120),
            StageCost::new("shard-1", 40, 350),
        ];
        QueryProfile {
            query_id: "q-000007".to_string(),
            root: StageCost {
                name: "source.execute".to_string(),
                start_us: 0,
                duration_us: 450,
                meta: vec![("source".to_string(), "S1".to_string())],
                children: vec![
                    StageCost::new("rewrite", 0, 10),
                    StageCost::new("translate", 10, 20),
                    execute,
                ],
            },
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = sample();
        let encoded = p.encode();
        assert_eq!(
            encoded,
            "q-000007\n\
             0 0 450 source.execute source=S1\n\
             1 0 10 rewrite\n\
             1 10 20 translate\n\
             1 30 400 execute shards=4 skipped_docs=812\n\
             2 40 120 shard-0\n\
             2 40 350 shard-1"
        );
        assert_eq!(QueryProfile::decode(&encoded), Some(p));
    }

    #[test]
    fn malformed_values_decode_to_none() {
        for bad in [
            "",
            "q-1\n1 0 10 child-without-root",
            "q-1\n0 0 10 a\n2 0 5 skipped-a-level",
            "q-1\n0 0 10 a\n0 0 5 second-root",
            "q-1\n0 x 10 bad-number",
            "q-1\n0 0 10 a badmeta",
            "q-1\n0 0 10 a =emptykey",
            "two words\n0 0 10 a",
        ] {
            assert_eq!(QueryProfile::decode(bad), None, "input {bad:?}");
        }
    }

    #[test]
    fn empty_query_id_is_allowed() {
        // Standalone host profiles (untraced benches) have no query id.
        let p = QueryProfile {
            query_id: String::new(),
            root: StageCost::new("source.execute", 0, 5),
        };
        assert_eq!(QueryProfile::decode(&p.encode()), Some(p));
    }

    #[test]
    fn consistency_checks_nesting() {
        let p = sample();
        assert!(p.is_consistent());
        let mut bad = p.clone();
        bad.root.children[2].children[1].duration_us = 10_000; // overruns parent
        assert!(!bad.is_consistent());
    }

    #[test]
    fn critical_path_follows_latest_finisher() {
        let p = sample();
        let names: Vec<&str> = p.critical_path().iter().map(|s| s.name.as_str()).collect();
        // execute ends at 430 (latest top-level child); shard-1 ends at
        // 390 vs shard-0 at 160.
        assert_eq!(names, ["source.execute", "execute", "shard-1"]);
        let summary = p.critical_path_summary();
        assert!(summary.starts_with("source.execute (450us) → execute (400us)"));
    }

    #[test]
    fn rebase_moves_the_whole_subtree_into_its_window() {
        let root = sample().root.rebased(1_000, 1_450).expect("fits exactly");
        assert_eq!(root.start_us, 1_000);
        assert_eq!(root.children[2].children[1].start_us, 1_040);
        assert!(root.is_consistent());
        // One microsecond too long for the window: dropped.
        assert_eq!(sample().root.rebased(1_000, 1_449), None);
    }

    #[test]
    fn rebase_drops_hostile_offsets_instead_of_overflowing() {
        let hostile = QueryProfile::decode("q-1\n0 18446744073709551615 5 x").unwrap();
        assert_eq!(hostile.root.clone().rebased(0, u64::MAX), None);
        assert_eq!(hostile.root.rebased(7, u64::MAX), None);
        // A child far outside its root cannot ride in on a fitting root.
        let mut root = StageCost::new("source.execute", 0, 10);
        root.children.push(StageCost::new("execute", u64::MAX, 1));
        assert_eq!(root.rebased(7, 100), None);
    }

    #[test]
    fn render_contains_stages_and_meta() {
        let text = sample().render();
        assert!(text.contains("query q-000007"));
        assert!(text.contains("source.execute"));
        assert!(text.contains("shard-1"));
        assert!(text.contains("[shards=4 skipped_docs=812]"));
    }

    #[test]
    fn find_descends_depth_first() {
        let p = sample();
        assert_eq!(p.find("shard-1").unwrap().duration_us, 350);
        assert_eq!(p.find("execute").unwrap().meta_value("shards"), Some("4"));
        assert!(p.find("nope").is_none());
    }
}
