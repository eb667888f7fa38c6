//! Interned span paths record exactly what the spans were: scripts of
//! nested spans run on four threads over two registries — nesting
//! through the thread's stack, across registries, under a handle from
//! another thread, and under a wire path the registry has never seen,
//! with a `Registry::reset` part-way through — and a reference model
//! replays each script with plain strings. `recent_spans()` (path,
//! name, parent, id, parent id, fields) and the `span.duration_us`
//! count per path must equal the model's.

use std::collections::BTreeMap;

use proptest::prelude::*;
use starts_obs::{Registry, Span, SpanHandle};

const THREADS: usize = 4;
const REGISTRIES: usize = 2;

/// Leaf names: plain, empty, holding the path separator, non-ASCII.
const NAMES: [&str; 6] = ["a", "b", "c", "", "x/y", "é"];

/// Parents that arrive on the wire, never opened in either registry.
const WIRE: [(&str, u64); 2] = [("far/away", 1 << 60), ("edge", (1 << 60) + 1)];

#[derive(Debug, Clone)]
enum Parent {
    /// The thread's current span, whatever registry it records into.
    Stack,
    /// A span the main thread holds open.
    Handle(usize),
    /// A trace context from another process.
    Wire(usize),
}

#[derive(Debug, Clone)]
enum Op {
    Open {
        reg: usize,
        name: usize,
        parent: Parent,
        extra_field: bool,
    },
    Close,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let parent = prop_oneof![
        4 => Just(Parent::Stack),
        1 => (0..2usize).prop_map(Parent::Handle),
        1 => (0..WIRE.len()).prop_map(Parent::Wire),
    ];
    prop_oneof![
        3 => (0..REGISTRIES, 0..NAMES.len(), parent, any::<bool>()).prop_map(
            |(reg, name, parent, extra_field)| Op::Open {
                reg,
                name,
                parent,
                extra_field
            }
        ),
        2 => Just(Op::Close),
    ]
}

/// Per thread, the script before the reset and the one after it.
type Script = Vec<(Vec<Op>, Vec<Op>)>;

fn arb_script() -> impl Strategy<Value = Script> {
    let part = || proptest::collection::vec(arb_op(), 0..24);
    proptest::collection::vec((part(), part()), THREADS)
}

/// Who a span's parent id must name.
#[derive(Debug, Clone, PartialEq)]
enum ParentRef {
    Root,
    /// The span carrying this `op` field.
    Op(String),
    /// A known id: a handle's or a wire context's.
    Id(u64),
}

#[derive(Debug, Clone)]
struct Expected {
    /// The id the open span reported.
    id: u64,
    path: String,
    name: String,
    parent: String,
    parent_ref: ParentRef,
    fields: Vec<(&'static str, String)>,
}

impl Expected {
    fn op(&self) -> &str {
        &self.fields[0].1
    }
}

/// What each registry must hold: spans closed since its last reset, in
/// closing order per thread, and `span.duration_us` counts per path.
#[derive(Default)]
struct Model {
    closed: [Vec<Expected>; REGISTRIES],
    /// Every span's id by its `op` field, reset or not: a parent's
    /// record may be gone while its child's is kept.
    ids: BTreeMap<String, u64>,
}

impl Model {
    fn close(&mut self, reg: usize, span: Expected) {
        self.ids.insert(span.op().to_string(), span.id);
        self.closed[reg].push(span);
    }

    fn reset(&mut self, reg: usize) {
        self.closed[reg].clear();
    }

    fn counts(&self, reg: usize) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for e in &self.closed[reg] {
            *counts.entry(e.path.clone()).or_default() += 1;
        }
        counts
    }
}

fn child(parent: &str, name: &str) -> String {
    if parent.is_empty() {
        name.to_string()
    } else {
        format!("{parent}/{name}")
    }
}

/// Run one thread's ops for real, and replay them in the model. Spans
/// still open at the end close innermost first.
fn run_thread(
    regs: &[Registry; REGISTRIES],
    handles: &[SpanHandle],
    thread: usize,
    phase: usize,
    ops: &[Op],
) -> Vec<(usize, Expected)> {
    let mut open: Vec<(usize, Span<'_>, Expected)> = Vec::new();
    let mut closed = Vec::new();
    let close = |open: &mut Vec<(usize, Span<'_>, Expected)>, closed: &mut Vec<_>| {
        if let Some((reg, span, expected)) = open.pop() {
            drop(span);
            closed.push((reg, expected));
        }
    };
    for (k, op) in ops.iter().enumerate() {
        match op {
            Op::Open {
                reg,
                name,
                parent,
                extra_field,
            } => {
                let name = NAMES[*name];
                let tag = format!("t{thread}-p{phase}-{k}");
                let mut fields = vec![("op", tag)];
                if *extra_field {
                    fields.push(("source", format!("S \"{k}\"")));
                }
                let (parent_path, parent_ref, span) = match parent {
                    Parent::Stack => {
                        let (path, parent_ref) = match open.last() {
                            Some((_, _, top)) => {
                                (top.path.clone(), ParentRef::Op(top.op().to_string()))
                            }
                            None => (String::new(), ParentRef::Root),
                        };
                        let span = regs[*reg].span_with(name, fields.clone());
                        (path, parent_ref, span)
                    }
                    Parent::Handle(i) => {
                        let h = &handles[*i];
                        let span = regs[*reg].span_under(name, h, fields.clone());
                        (h.path.clone(), ParentRef::Id(h.id), span)
                    }
                    Parent::Wire(i) => {
                        let (path, id) = WIRE[*i];
                        let h = SpanHandle {
                            path: path.to_string(),
                            id,
                        };
                        let span = regs[*reg].span_under(name, &h, fields.clone());
                        (path.to_string(), ParentRef::Id(id), span)
                    }
                };
                let expected = Expected {
                    id: span.id(),
                    path: child(&parent_path, name),
                    name: name.to_string(),
                    parent: parent_path,
                    parent_ref,
                    fields,
                };
                assert_eq!(span.path(), expected.path);
                open.push((*reg, span, expected));
            }
            Op::Close => close(&mut open, &mut closed),
        }
    }
    while !open.is_empty() {
        close(&mut open, &mut closed);
    }
    closed
}

/// Run one phase's per-thread scripts on four threads at once, and
/// replay what each thread closed into the model.
fn run_phase(
    regs: &[Registry; REGISTRIES],
    handles: &[SpanHandle],
    model: &mut Model,
    script: &Script,
    phase: usize,
) {
    let closed: Vec<Vec<(usize, Expected)>> = std::thread::scope(|s| {
        let workers: Vec<_> = script
            .iter()
            .enumerate()
            .map(|(thread, parts)| {
                let ops = if phase == 0 { &parts.0 } else { &parts.1 };
                s.spawn(move || run_thread(regs, handles, thread, phase, ops))
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (reg, expected) in closed.into_iter().flatten() {
        model.close(reg, expected);
    }
}

fn check(regs: &[Registry; REGISTRIES], model: &Model) {
    for (reg, expected) in model.closed.iter().enumerate() {
        let events = regs[reg].recent_spans();
        assert_eq!(events.len(), expected.len(), "registry {reg}");
        let by_op: BTreeMap<&str, &Expected> = expected.iter().map(|e| (e.op(), e)).collect();
        for event in &events {
            let want = by_op[event.field("op").unwrap()];
            assert_eq!(event.id, want.id);
            assert_eq!(event.path, want.path);
            assert_eq!(event.name, want.name);
            assert_eq!(event.parent, want.parent);
            assert_eq!(event.fields, want.fields);
            let parent_id = match &want.parent_ref {
                ParentRef::Root => 0,
                ParentRef::Op(op) => model.ids[op],
                ParentRef::Id(id) => *id,
            };
            assert_eq!(event.parent_id, parent_id, "{}", event.path);
        }
        // Each thread's spans in the order it closed them.
        for thread in 0..=THREADS {
            let prefix = format!("t{thread}-");
            let mine = |op: &str| op.starts_with(&prefix);
            let got: Vec<&str> = events
                .iter()
                .map(|e| e.field("op").unwrap())
                .filter(|op| mine(op))
                .collect();
            let want: Vec<&str> = expected
                .iter()
                .map(Expected::op)
                .filter(|op| mine(op))
                .collect();
            assert_eq!(got, want, "registry {reg}, thread {thread}");
        }
        let counts: BTreeMap<String, u64> = regs[reg]
            .snapshot()
            .histograms
            .iter()
            .filter(|h| h.id.name == "span.duration_us")
            .map(|h| (h.id.labels[0].1.clone(), h.count))
            .collect();
        assert_eq!(counts, model.counts(reg), "registry {reg}");
    }
}

/// Run `script` on `regs`, emptied first. The main thread holds two
/// spans open through both phases and the reset of registry `reset`
/// between them: `dispatch` on registry 0, and `net` nested under it on
/// registry 1. Their handles cross to the worker threads.
fn run_script(regs: &[Registry; REGISTRIES], script: &Script, reset: usize) {
    for reg in regs {
        reg.reset();
    }
    let mut model = Model::default();
    let main = THREADS;
    let root_fields = |k: usize| vec![("op", format!("t{main}-{k}"))];
    let dispatch = regs[0].span_with("dispatch", root_fields(0));
    let net = regs[1].span_with("net", root_fields(1));
    let handles = [dispatch.handle(), net.handle()];
    assert_eq!(handles[1].path, "dispatch/net");

    run_phase(regs, &handles, &mut model, script, 0);
    regs[reset].reset();
    model.reset(reset);
    run_phase(regs, &handles, &mut model, script, 1);

    let ids = [dispatch.id(), net.id()];
    drop(net);
    drop(dispatch);
    model.close(
        1,
        Expected {
            id: ids[1],
            path: "dispatch/net".to_string(),
            name: "net".to_string(),
            parent: "dispatch".to_string(),
            parent_ref: ParentRef::Op(format!("t{main}-0")),
            fields: root_fields(1),
        },
    );
    model.close(
        0,
        Expected {
            id: ids[0],
            path: "dispatch".to_string(),
            name: "dispatch".to_string(),
            parent: String::new(),
            parent_ref: ParentRef::Root,
            fields: root_fields(0),
        },
    );
    check(regs, &model);
}

proptest! {
    /// Twice on the same registries: cold, then with every path
    /// already interned.
    #[test]
    fn interned_spans_record_what_the_model_replays(
        script in arb_script(),
        reset in 0..REGISTRIES,
    ) {
        let regs = [Registry::new(), Registry::new()];
        run_script(&regs, &script, reset);
        run_script(&regs, &script, reset);
    }
}

/// One fixed script, cold and warm, with either registry reset.
#[test]
fn a_fixed_script_records_what_the_model_replays() {
    let open = |reg, name, parent| Op::Open {
        reg,
        name,
        parent,
        extra_field: false,
    };
    let ops = vec![
        open(0, 0, Parent::Stack),
        open(1, 4, Parent::Stack),
        open(0, 3, Parent::Stack),
        Op::Close,
        open(1, 5, Parent::Handle(1)),
        Op::Close,
        Op::Close,
        open(0, 1, Parent::Wire(0)),
        open(0, 2, Parent::Stack),
    ];
    let script: Script = (0..THREADS).map(|_| (ops.clone(), ops.clone())).collect();
    let regs = [Registry::new(), Registry::new()];
    for reset in [0, 1, 0] {
        run_script(&regs, &script, reset);
    }
}
