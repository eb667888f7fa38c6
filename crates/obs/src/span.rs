//! Structured, nestable spans.
//!
//! A span is an RAII guard: opening one pushes its identity onto a
//! thread-local stack (so spans opened inside it become children), and
//! dropping it records the elapsed wall-clock time into the registry —
//! a `span.duration_us` histogram labeled with the full path — plus a
//! bounded ring of recent [`SpanEvent`]s for inspection.
//!
//! Every span carries a process-unique numeric id and its parent's id,
//! so the ring tells apart spans that share a path — e.g. one
//! `meta.search/dispatch/source` per contacted source. A query's own
//! tree is its `starts_proto::QueryProfile`, not the ring.
//!
//! Paths are interned per registry, as a tree of nodes each holding
//! its full path and its `span.duration_us` handle; the thread-local
//! stack and the ring refer to nodes. Only a path's first use builds a
//! string, so a warm span with no fields allocates nothing, and
//! [`crate::Registry::recent_spans`] spells the paths out when read.
//!
//! Fan-out workers run on other threads, where the thread-local stack
//! is empty; they use [`crate::Registry::span_under`] with the parent's
//! [`SpanHandle`] to attach to the dispatching span explicitly. The
//! same handle, serialized into a query's trace-context attribute,
//! parents spans across the wire.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::metrics::Histogram;
use crate::registry::Registry;

/// How many completed spans the ring buffer keeps.
const SPAN_LOG_CAP: usize = 4096;

/// Process-wide span id allocator (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide path-table ids, so a thread's span stack tells its own
/// registry's entries from another registry's.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide time anchor for span start offsets, so spans recorded
/// on different threads (or different registries) are comparable.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// One open span on a thread's stack.
struct Frame {
    /// The [`PathTable::id`] of the registry the span records into.
    table: u64,
    node: Arc<PathNode>,
    id: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// A span's identity: its full path plus its process-unique id. Cheap
/// to clone and `Send`, so it can cross threads (fan-out workers) or
/// the wire (a query's trace-context attribute) to parent spans opened
/// elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanHandle {
    /// Full slash-separated path, e.g. `meta.search/dispatch/source`.
    pub path: String,
    /// Process-unique span id.
    pub id: u64,
}

/// A completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Process-unique span id.
    pub id: u64,
    /// The parent span's id (0 for roots).
    pub parent_id: u64,
    /// Full slash-separated path, e.g. `meta.search/dispatch/source`.
    pub path: String,
    /// The leaf name.
    pub name: String,
    /// The parent path (empty for roots).
    pub parent: String,
    /// Start offset in microseconds since the process time anchor.
    pub start_us: u64,
    /// Elapsed wall-clock microseconds.
    pub duration_us: u64,
    /// Structured fields given at open time.
    pub fields: Vec<(&'static str, String)>,
}

impl SpanEvent {
    /// End offset (start + duration) since the process time anchor.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.duration_us)
    }

    /// First value of a structured field.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One interned span path. Built the first time a (parent path, name)
/// pair opens a span in its registry and kept for the registry's life,
/// so a warm span builds no string and resolves no histogram.
struct PathNode {
    /// Index in the table's `nodes`.
    index: u32,
    /// Full slash-separated path.
    path: Arc<str>,
    /// Byte offset where the leaf name starts (0 for roots).
    leaf: usize,
    /// The path's `span.duration_us` histogram, with the
    /// [`Registry::epoch`] it was resolved under.
    duration: RwLock<Option<(u64, Histogram)>>,
}

impl PathNode {
    fn name(&self) -> &str {
        &self.path[self.leaf..]
    }

    fn parent(&self) -> &str {
        &self.path[..self.leaf.saturating_sub(1)]
    }

    /// Observe into the cached histogram, resolving it again after a
    /// [`Registry::reset`] dropped it from the registry's tables.
    fn observe(&self, reg: &Registry, duration_us: u64) {
        let epoch = reg.epoch();
        if let Some((at, histogram)) = &*self.duration.read() {
            if *at == epoch {
                histogram.observe(duration_us);
                return;
            }
        }
        let histogram = reg.histogram_with("span.duration_us", &[("span", &self.path)]);
        histogram.observe(duration_us);
        *self.duration.write() = Some((epoch, histogram));
    }
}

/// The root of every table: the empty path, parent of root spans.
const ROOT: u32 = 0;

/// A registry's interned span paths: a tree of [`PathNode`]s, each
/// reached from its parent by leaf name, plus an index by full path for
/// parents that arrive as a [`SpanHandle`] or from another registry.
struct PathTable {
    id: u64,
    inner: RwLock<Paths>,
}

struct Paths {
    nodes: Vec<Arc<PathNode>>,
    /// Per node, its children by leaf name.
    children: Vec<HashMap<Box<str>, u32>>,
    /// Full path → a node with that path.
    by_path: HashMap<Arc<str>, u32>,
}

impl Paths {
    fn push(&mut self, path: Arc<str>, leaf: usize) -> u32 {
        let index = u32::try_from(self.nodes.len()).expect("fewer than 2^32 span paths");
        self.by_path.entry(Arc::clone(&path)).or_insert(index);
        self.nodes.push(Arc::new(PathNode {
            index,
            path,
            leaf,
            duration: RwLock::new(None),
        }));
        self.children.push(HashMap::new());
        index
    }
}

impl Default for PathTable {
    fn default() -> Self {
        let mut paths = Paths {
            nodes: Vec::new(),
            children: Vec::new(),
            by_path: HashMap::new(),
        };
        paths.push(Arc::from(""), 0);
        PathTable {
            id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            inner: RwLock::new(paths),
        }
    }
}

impl PathTable {
    /// The node for `name` under `parent`, built on first use.
    fn child(&self, parent: u32, name: &str) -> Arc<PathNode> {
        let find = |paths: &Paths| {
            let index = *paths.children[parent as usize].get(name)?;
            Some(Arc::clone(&paths.nodes[index as usize]))
        };
        if let Some(node) = find(&self.inner.read()) {
            return node;
        }
        let mut paths = self.inner.write();
        if let Some(node) = find(&paths) {
            return node;
        }
        let parent_path = &paths.nodes[parent as usize].path;
        let (path, leaf): (Arc<str>, usize) = if parent_path.is_empty() {
            (Arc::from(name), 0)
        } else {
            (
                Arc::from(format!("{parent_path}/{name}")),
                parent_path.len() + 1,
            )
        };
        let index = paths.push(path, leaf);
        paths.children[parent as usize].insert(Box::from(name), index);
        Arc::clone(&paths.nodes[index as usize])
    }

    /// A node whose full path is `path`, for a parent known only by its
    /// path. A path this table has never seen gets a node of its own,
    /// which parents spans but is never itself recorded.
    fn resolve(&self, path: &str) -> u32 {
        if let Some(&index) = self.inner.read().by_path.get(path) {
            return index;
        }
        let mut paths = self.inner.write();
        match paths.by_path.get(path) {
            Some(&index) => index,
            None => paths.push(Arc::from(path), 0),
        }
    }
}

/// A completed span as the ring keeps it: its path by node index.
#[derive(Clone)]
struct Record {
    id: u64,
    parent_id: u64,
    node: u32,
    start_us: u64,
    duration_us: u64,
    fields: Vec<(&'static str, String)>,
}

/// A registry's span paths and its bounded ring of recent spans.
#[derive(Default)]
pub(crate) struct SpanLog {
    paths: PathTable,
    ring: Mutex<VecDeque<Record>>,
}

impl SpanLog {
    fn push(&self, record: Record) {
        let evicted = {
            let mut ring = self.ring.lock();
            let evicted = if ring.len() == SPAN_LOG_CAP {
                ring.pop_front()
            } else {
                None
            };
            ring.push_back(record);
            evicted
        };
        // Freed outside the lock.
        drop(evicted);
    }

    pub(crate) fn recent(&self) -> Vec<SpanEvent> {
        let records: Vec<Record> = self.ring.lock().iter().cloned().collect();
        let paths = self.paths.inner.read();
        records
            .into_iter()
            .map(|r| {
                let node = &paths.nodes[r.node as usize];
                SpanEvent {
                    id: r.id,
                    parent_id: r.parent_id,
                    path: node.path.to_string(),
                    name: node.name().to_string(),
                    parent: node.parent().to_string(),
                    start_us: r.start_us,
                    duration_us: r.duration_us,
                    fields: r.fields,
                }
            })
            .collect()
    }

    /// Drop the recorded spans, and let go of the histograms a reset
    /// orphaned. The interned paths stay: open spans still point at
    /// them.
    pub(crate) fn clear(&self) {
        self.ring.lock().clear();
        for node in &self.paths.inner.read().nodes {
            *node.duration.write() = None;
        }
    }
}

/// An open span; records itself on drop.
pub struct Span<'r> {
    reg: &'r Registry,
    id: u64,
    parent_id: u64,
    node: Arc<PathNode>,
    start_us: u64,
    start: Instant,
    fields: Vec<(&'static str, String)>,
}

impl<'r> Span<'r> {
    pub(crate) fn enter(
        reg: &'r Registry,
        name: &str,
        explicit_parent: Option<&SpanHandle>,
        fields: Vec<(&'static str, String)>,
    ) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let start_us = anchor().elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let table = &reg.spans.paths;
        let (node, parent_id) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (parent, parent_id) = match (explicit_parent, stack.last()) {
                (Some(h), _) => (table.resolve(&h.path), h.id),
                (None, Some(top)) if top.table == table.id => (top.node.index, top.id),
                // The thread's current span records into another
                // registry: nest under its path all the same.
                (None, Some(top)) => (table.resolve(&top.node.path), top.id),
                (None, None) => (ROOT, 0),
            };
            let node = table.child(parent, name);
            stack.push(Frame {
                table: table.id,
                node: Arc::clone(&node),
                id,
            });
            (node, parent_id)
        });
        Span {
            reg,
            id,
            parent_id,
            node,
            start_us,
            start: Instant::now(),
            fields,
        }
    }

    /// The span's full path.
    pub fn path(&self) -> &str {
        &self.node.path
    }

    /// The span's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The span's identity — pass to [`Registry::span_under`] to parent
    /// spans opened on other threads (or across the wire).
    pub fn handle(&self) -> SpanHandle {
        SpanHandle {
            path: self.node.path.to_string(),
            id: self.id,
        }
    }
}

/// Take span `id` off this thread's stack.
fn leave(id: u64) {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        // RAII guards drop LIFO; be tolerant of manual `drop()` in
        // odd orders and only pop our own entry.
        if stack.last().map(|f| f.id) == Some(id) {
            stack.pop();
        } else if let Some(i) = stack.iter().rposition(|f| f.id == id) {
            stack.remove(i);
        }
    });
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let duration_us = self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        leave(self.id);
        self.node.observe(self.reg, duration_us);
        self.reg.spans.push(Record {
            id: self.id,
            parent_id: self.parent_id,
            node: self.node.index,
            start_us: self.start_us,
            duration_us,
            fields: std::mem::take(&mut self.fields),
        });
    }
}

/// Open a span.
///
/// * `span!("select")` — on the process-wide [`Registry::global`];
/// * `span!(reg, "dispatch", source = id)` — on an explicit registry,
///   with structured fields (each `key = value` pair is captured via
///   `ToString`).
///
/// The returned guard must be bound (`let _span = span!(...)`) — an
/// unbound `let _ = span!(...)` drops immediately and times nothing.
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::Registry::global()
            .span_with($name, vec![$((stringify!($key), $value.to_string())),*])
    };
    ($reg:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        ($reg).span_with($name, vec![$((stringify!($key), $value.to_string())),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_one_thread() {
        let reg = Registry::new();
        {
            let _a = reg.span("outer");
            {
                let _b = reg.span("inner");
            }
            let _c = reg.span("second");
        }
        let events = reg.recent_spans();
        let paths: Vec<&str> = events.iter().map(|e| e.path.as_str()).collect();
        // Children complete before parents.
        assert_eq!(paths, vec!["outer/inner", "outer/second", "outer"]);
        assert_eq!(events[0].parent, "outer");
        assert_eq!(events[2].parent, "");
        // Parent ids link children to the root; the root has none.
        assert_eq!(events[0].parent_id, events[2].id);
        assert_eq!(events[1].parent_id, events[2].id);
        assert_eq!(events[2].parent_id, 0);
        // Start offsets respect opening order.
        assert!(events[0].start_us >= events[2].start_us);
    }

    #[test]
    fn span_durations_land_in_the_histogram() {
        let reg = Registry::new();
        {
            let _s = reg.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = reg.snapshot();
        let h = snap
            .histogram("span.duration_us", &[("span", "work")])
            .expect("span histogram");
        assert_eq!(h.count, 1);
        assert!(h.max >= 2_000, "slept 2ms but recorded {}us", h.max);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let reg = Registry::new();
        let parent_handle = {
            let parent = reg.span("dispatch");
            let handle = parent.handle();
            std::thread::scope(|scope| {
                let reg = &reg;
                let handle = &handle;
                scope.spawn(move || {
                    let _child = reg.span_under("worker", handle, vec![("n", "1".to_string())]);
                });
            });
            handle
        };
        let events = reg.recent_spans();
        let child = events.iter().find(|e| e.name == "worker").unwrap();
        assert_eq!(child.parent, parent_handle.path);
        assert_eq!(child.parent_id, parent_handle.id);
        assert_eq!(child.path, "dispatch/worker");
    }

    #[test]
    fn span_ids_are_unique() {
        let reg = Registry::new();
        {
            let a = reg.span("a");
            let b = reg.span("b");
            assert_ne!(a.id(), b.id());
            assert_ne!(a.id(), 0);
        }
    }

    #[test]
    fn macro_forms() {
        let reg = Registry::new();
        {
            let _s = span!(&reg, "labeled", source = "DB", wave = 2);
        }
        let ev = &reg.recent_spans()[0];
        assert_eq!(ev.name, "labeled");
        assert_eq!(
            ev.fields,
            vec![("source", "DB".to_string()), ("wave", "2".to_string())]
        );
        assert_eq!(ev.field("source"), Some("DB"));
        assert_eq!(ev.field("missing"), None);
        // Global form records on the shared registry.
        let before = Registry::global().recent_spans().len();
        {
            let _s = span!("global-span");
        }
        assert!(Registry::global().recent_spans().len() > before);
    }
}
