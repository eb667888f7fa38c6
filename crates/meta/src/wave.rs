//! The dispatch wave: one query's fan-out, from the first submitted
//! attempt to the merged list.
//!
//! This is the only module that knows what a wave is. [`lead`] runs on
//! the thread that owns the query: it submits one [`Attempt`] per
//! planned source, waits until every source is decided (launching due
//! hedges, giving up at the deadline), and merges what finished. It
//! does not know where an attempt runs — the caller's `submit` decides,
//! and both callers decide by [`runs_on_leader`]: when nothing can end
//! the wait early, `submit` runs the attempts itself, one after the
//! other, on the leading thread. Otherwise
//! [`Metasearcher::search`](crate::Metasearcher::search) spawns a
//! scoped thread per attempt that ends with the call, and `starts-serve`
//! queues them for a pool thread that may outlive the query. Wherever
//! it lands, [`Attempt::run`] performs the exchange and settles the
//! source's slot.
//!
//! A slot is decided by the first attempt that succeeds (its sibling
//! is cancelled), or by a failure once nothing else is in flight for
//! the source. A cancelled attempt decides nothing, and whatever
//! arrives after the decision is dropped.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use starts_net::{CancelToken, SimNet, StartsClient};
use starts_obs::{HealthBoard, Registry, SpanHandle};
use starts_proto::StageCost;

use crate::merge::{MergedDoc, SourceResult};
use crate::metasearcher::{MetaConfig, QueryStats};
use crate::pipeline::{self, elapsed_us, DispatchTask, QueryPlan, TaskError, TaskSuccess};

/// Per-source completeness of a (possibly partial) response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// The source answered and its results are in the merge.
    Complete,
    /// Every attempt at the source failed.
    Failed,
    /// The source was still in flight when the deadline expired; its
    /// attempts were cancelled and it contributed nothing.
    TimedOut,
}

/// One source's completeness flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceCompleteness {
    /// The source id.
    pub source: String,
    /// What happened to it.
    pub status: SourceStatus,
}

/// What [`lead`] hands back: everything past `adapt` that a response
/// and its profile are assembled from.
#[derive(Debug)]
pub struct WaveOutcome {
    /// Results of the sources that finished, in selection order.
    pub per_source: Vec<SourceResult>,
    /// Every planned source's completeness, in selection order.
    pub completeness: Vec<SourceCompleteness>,
    /// Whether the deadline expired before every source was decided.
    pub expired: bool,
    /// Accounting from the exchanges that completed.
    pub stats: QueryStats,
    /// The bounded merge of `per_source`.
    pub merged: Vec<MergedDoc>,
    /// The finished `dispatch` stage, one `source` child per completed
    /// exchange.
    pub dispatch_stage: StageCost,
    /// The finished `merge` stage.
    pub merge_stage: StageCost,
}

/// Per-source state of one wave.
#[derive(Clone, Default)]
struct Slot {
    /// The deciding outcome; `None` while attempts are in flight.
    outcome: Option<Result<TaskSuccess, TaskError>>,
    /// Attempts submitted and not yet settled.
    inflight: usize,
    /// Whether the source's one hedge was launched.
    hedged: bool,
}

/// What a wave's leader and its attempts share.
struct Wave {
    plan: Arc<QueryPlan>,
    /// The open `dispatch` span: attempts run on threads whose span
    /// stack is empty and parent to it explicitly.
    parent: SpanHandle,
    query_id: String,
    t0: Instant,
    timeout_ms: u64,
    /// One token per source, shared by its attempts: whatever stops one
    /// (a sibling answered, the deadline) stops them all.
    cancel: Vec<CancelToken>,
    slots: Mutex<Vec<Slot>>,
    decided: Condvar,
}

impl Wave {
    /// Fold one attempt's outcome into its source's slot.
    fn settle(
        &self,
        index: usize,
        hedge: bool,
        outcome: Result<TaskSuccess, TaskError>,
        obs: &Registry,
    ) {
        let mut slots = self.slots.lock().expect("wave slots");
        let slot = &mut slots[index];
        slot.inflight = slot.inflight.saturating_sub(1);
        if slot.outcome.is_some() {
            return;
        }
        match outcome {
            Ok(_) => {
                // Any sibling attempt is now pointless.
                self.cancel[index].cancel();
                if hedge {
                    let source = &self.plan.tasks[index].id;
                    obs.counter_with("serve.hedge.wins", &[("source", source)])
                        .inc();
                }
            }
            Err(TaskError::Failed) if slot.inflight == 0 => {}
            // Lost to the deadline, or a sibling may still answer.
            Err(_) => return,
        }
        slot.outcome = Some(outcome);
        self.decided.notify_all();
    }
}

/// One exchange with one planned source on behalf of a wave. Owned, so
/// it can run on any thread; whoever is handed one must run it, or its
/// source stays undecided until the deadline.
pub struct Attempt {
    wave: Arc<Wave>,
    /// Which of the plan's tasks (and which slot).
    index: usize,
    hedge: bool,
    /// The task of a hedge that goes to a replica; everything else runs
    /// the plan's own.
    replica: Option<Box<DispatchTask>>,
}

impl Attempt {
    /// Run the exchange and settle the source's slot. Never unwinds: a
    /// panic inside the exchange is a failed source (health board,
    /// `meta.dispatch.failures`, `meta.dispatch.panics`), and the
    /// thread that ran it carries on.
    pub fn run(self, client: &StartsClient<'_>, health: &HealthBoard) {
        let (wave, obs) = (&*self.wave, client.registry());
        let task = self
            .replica
            .as_deref()
            .unwrap_or(&wave.plan.tasks[self.index]);
        let hedge_span = self
            .hedge
            .then(|| obs.span_under("hedge", &wave.parent, vec![("source", task.id.clone())]));
        let mut outcome = catch_unwind(AssertUnwindSafe(|| {
            pipeline::run_task(
                client,
                task,
                health,
                wave.timeout_ms,
                &wave.parent,
                &wave.query_id,
                wave.t0,
                Some(&wave.cancel[self.index]),
            )
        }))
        .unwrap_or_else(|_| {
            pipeline::record_panicked_dispatch(obs, health, &task.id);
            Err(TaskError::Failed)
        });
        drop(hedge_span);
        // Only a winner's stage reaches the profile, so a stage marked
        // here is the hedge that decided its source.
        if let (true, Ok(success)) = (self.hedge, &mut outcome) {
            let stage = &mut success.stage;
            stage.meta.push(("hedge".to_string(), "1".to_string()));
        }
        wave.settle(self.index, self.hedge, outcome, obs);
    }
}

/// Whether a wave's attempts should run on the thread that leads it,
/// inside `submit`: exactly when nothing could end the leader's wait
/// before every attempt is back. That holds when `net` does not pace
/// (an exchange is a function call that never waits on a link, so no
/// hedge falls due while it runs) and the wave has no `deadline`. Then a
/// thread of its own would add a hand-off and a wake-up to every
/// exchange and overlap no waiting. A paced net, or a deadline, keeps
/// one thread per attempt, so a straggler can be raced or abandoned.
pub fn runs_on_leader(net: &SimNet, deadline: Option<Instant>) -> bool {
    net.pacing() == 0 && deadline.is_none()
}

/// When, and where, to try a source a second time: how long after
/// submission a still undecided source gets its hedge, and the replica
/// URL the hedge goes to (`None` re-asks the planned one).
pub type HedgePolicy<'a> = dyn Fn(&DispatchTask) -> (Duration, Option<String>) + 'a;

/// Stage 3 and 4 of one query, on the calling thread: submit an
/// [`Attempt`] per planned source, wait until every source is decided,
/// merge what finished.
///
/// `submit` places a batch of attempts (the primaries, later the hedges
/// that fell due together) on whatever threads will `run` them; no lock
/// is held across the call. Without a `hedge` policy every source is
/// tried once. Past `deadline` the undecided sources are cancelled and
/// left out.
#[allow(clippy::too_many_arguments)]
pub fn lead(
    plan: &Arc<QueryPlan>,
    config: &MetaConfig,
    obs: &Registry,
    query_id: &str,
    t0: Instant,
    deadline: Option<Instant>,
    hedge: Option<&HedgePolicy<'_>>,
    submit: &mut dyn FnMut(Vec<Attempt>),
) -> WaveOutcome {
    let dispatch_start = elapsed_us(t0);
    let dispatch_span = obs.span("dispatch");
    let primary = Slot {
        inflight: 1,
        ..Slot::default()
    };
    let wave = Arc::new(Wave {
        plan: Arc::clone(plan),
        parent: dispatch_span.handle(),
        query_id: query_id.to_string(),
        t0,
        timeout_ms: config.timeout_ms,
        cancel: plan.tasks.iter().map(|_| CancelToken::new()).collect(),
        slots: Mutex::new(vec![primary; plan.tasks.len()]),
        decided: Condvar::new(),
    });
    let attempt = |index, hedge, replica| Attempt {
        wave: Arc::clone(&wave),
        index,
        hedge,
        replica,
    };
    let primaries = 0..plan.tasks.len();
    submit(primaries.map(|index| attempt(index, false, None)).collect());
    let submitted = Instant::now();
    let hedge_at: Vec<(Instant, Option<String>)> = match hedge {
        Some(policy) => {
            let schedule = |task| {
                let (delay, replica) = policy(task);
                (submitted + delay, replica)
            };
            plan.tasks.iter().map(schedule).collect()
        }
        None => Vec::new(),
    };

    // Wait for the wave: every source decided, or the deadline.
    let mut slots = wave.slots.lock().expect("wave slots");
    let expired = loop {
        if slots.iter().all(|s| s.outcome.is_some()) {
            break false;
        }
        let now = Instant::now();
        if deadline.is_some_and(|d| now >= d) {
            break true;
        }
        // Launch the hedges that fell due; otherwise sleep until the
        // next event: a decision (condvar), the earliest pending hedge,
        // or the deadline.
        let mut due = Vec::new();
        let mut wake = deadline;
        for (index, (slot, &(at, ref replica))) in slots.iter_mut().zip(&hedge_at).enumerate() {
            if slot.outcome.is_some() || slot.hedged {
                continue;
            }
            if now >= at {
                let task = &plan.tasks[index];
                obs.counter_with("serve.hedge.launched", &[("source", &task.id)])
                    .inc();
                let elsewhere = replica.as_ref().map(|url| {
                    Box::new(DispatchTask {
                        url: url.clone(),
                        ..task.clone()
                    })
                });
                slot.inflight += 1;
                slot.hedged = true;
                due.push(attempt(index, true, elsewhere));
            } else {
                wake = Some(wake.map_or(at, |w| w.min(at)));
            }
        }
        if !due.is_empty() {
            drop(slots);
            submit(due);
            slots = wave.slots.lock().expect("wave slots");
            continue;
        }
        slots = match wake {
            Some(at) => {
                let timeout = at.saturating_duration_since(Instant::now());
                let woken = wave.decided.wait_timeout(slots, timeout);
                woken.expect("wave slots").0
            }
            None => wave.decided.wait(slots).expect("wave slots"),
        };
    };

    // Collect in selection order, leaving every slot decided so that
    // whatever an attempt brings later is dropped. A source undecided
    // until here was cut off by the deadline: cancel its attempts so
    // they abandon their (simulated) flights instead of finishing for
    // nobody.
    let mut stats = QueryStats::default();
    let mut source_stages = Vec::new();
    let mut per_source = Vec::new();
    let mut completeness = Vec::with_capacity(plan.tasks.len());
    for ((slot, task), cancel) in slots.iter_mut().zip(&plan.tasks).zip(&wave.cancel) {
        let status = match slot.outcome.replace(Err(TaskError::Cancelled)) {
            Some(Ok(success)) => {
                stats.absorb(&success.exchange);
                source_stages.push(success.stage);
                per_source.push(success.result);
                SourceStatus::Complete
            }
            Some(Err(_)) => SourceStatus::Failed,
            None => {
                cancel.cancel();
                SourceStatus::TimedOut
            }
        };
        completeness.push(SourceCompleteness {
            source: task.id.clone(),
            status,
        });
    }
    drop(slots);
    drop(dispatch_span);
    let dispatch_end = elapsed_us(t0);
    obs.gauge("meta.query_cost").add(stats.total_cost);

    // Bounded: per-source lists arrive sorted by score, so the merger
    // materialises only the best `max_results` documents.
    let (merged, _, merge_stage) = pipeline::merge_stage(
        config.merger.as_ref(),
        &per_source,
        config.max_results,
        obs,
        t0,
    );
    let mut dispatch_stage = StageCost::new(
        "dispatch",
        dispatch_start,
        dispatch_end.saturating_sub(dispatch_start),
    )
    .with_meta("sources", source_stages.len());
    dispatch_stage.children = source_stages;
    WaveOutcome {
        per_source,
        completeness,
        expired,
        stats,
        merged,
        dispatch_stage,
        merge_stage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_net::Exchange;
    use starts_proto::{Query, QueryResults};
    use TaskError::{Cancelled, Failed};

    fn plan_of(ids: &[&str]) -> Arc<QueryPlan> {
        let task = |(entry_index, id): (usize, &&str)| DispatchTask {
            entry_index,
            id: id.to_string(),
            url: format!("starts://{id}/query"),
            metadata: Arc::default(),
            weight: 1.0,
            query: Query::default(),
        };
        Arc::new(QueryPlan {
            selected: ids.iter().map(|id| id.to_string()).collect(),
            tasks: ids.iter().enumerate().map(task).collect(),
            wave_latency_ms: 0,
            total_cost: 0.0,
            select_stage: StageCost::new("select", 0, 0),
            adapt_stage: StageCost::new("adapt", 0, 0),
        })
    }

    fn answer(source: &str) -> Result<TaskSuccess, TaskError> {
        let results = QueryResults {
            sources: vec![source.to_string()],
            ..QueryResults::default()
        };
        let exchange = Exchange {
            latency_ms: 10,
            ..Exchange::default()
        };
        Ok(TaskSuccess {
            result: SourceResult {
                metadata: Arc::default(),
                results,
                source_weight: 1.0,
            },
            exchange,
            stage: StageCost::new("source", 0, 0),
        })
    }

    fn count(obs: &Registry, name: &str) -> u64 {
        obs.snapshot().counter(name, &[("source", "A")])
    }

    /// Every way two attempts at one source can come back, in scripted
    /// order. A step is `hedge` (the leader launches one) or
    /// `<p|h>=<ok|failed|cancelled>` (the primary or the hedge comes
    /// back), then `:` and the slot afterwards: `-` undecided, else its
    /// decision.
    #[test]
    fn settle_decides_each_slot_once() {
        let cases = [
            // The primary wins; the hedge's late answer is dropped.
            ("hedge:- p=ok:ok h=ok:ok", 0),
            // The primary fails with the hedge in flight; the hedge answers.
            ("hedge:- p=failed:- h=ok:ok", 1),
            // Both fail: decided only by the second.
            ("hedge:- p=failed:- h=failed:failed", 0),
            // A failure with nothing else in flight decides, for good.
            ("p=failed:failed p=ok:failed", 0),
            // A cancellation never decides, even as the last one back.
            ("hedge:- h=cancelled:- p=cancelled:-", 0),
        ];
        for (script, wins) in cases {
            let obs = Registry::new();
            let primary = Slot {
                inflight: 1,
                ..Slot::default()
            };
            let wave = Wave {
                plan: plan_of(&["A"]),
                parent: obs.span("dispatch").handle(),
                query_id: "q-test".to_string(),
                t0: Instant::now(),
                timeout_ms: 1_000,
                cancel: vec![CancelToken::new()],
                slots: Mutex::new(vec![primary]),
                decided: Condvar::new(),
            };
            for step in script.split(' ') {
                let (action, state) = step.split_once(':').unwrap();
                match action.split_once('=') {
                    None => wave.slots.lock().unwrap()[0].inflight += 1,
                    Some((who, "ok")) => wave.settle(0, who == "h", answer("A"), &obs),
                    Some((who, "failed")) => wave.settle(0, who == "h", Err(Failed), &obs),
                    Some((who, _)) => wave.settle(0, who == "h", Err(Cancelled), &obs),
                }
                let slot = &wave.slots.lock().unwrap()[0];
                let decided = match &slot.outcome {
                    None => "-",
                    Some(Ok(_)) => "ok",
                    Some(Err(_)) => "failed",
                };
                assert_eq!(decided, state, "{script} at {step}");
                // An answer, and nothing else, cancels the source's attempts.
                let cancelled = wave.cancel[0].is_cancelled();
                assert_eq!(cancelled, decided == "ok", "{script} at {step}");
            }
            assert_eq!(count(&obs, "serve.hedge.wins"), wins, "{script}");
        }
    }

    /// `lead` for the default configuration, on a clock started now.
    fn lead_now(
        plan: &Arc<QueryPlan>,
        obs: &Registry,
        expired: bool,
        hedge: Option<&HedgePolicy<'_>>,
        submit: &mut dyn FnMut(Vec<Attempt>),
    ) -> WaveOutcome {
        let (config, now) = (MetaConfig::default(), Instant::now());
        let deadline = expired.then_some(now);
        lead(plan, &config, obs, "q-test", now, deadline, hedge, submit)
    }

    /// Past the deadline the wave is whatever was decided by then: the
    /// answered sources in selection order, the rest cancelled, and
    /// nothing that comes back afterwards gets in. `submit` settles
    /// inline — no threads, no network.
    #[test]
    fn an_expired_wave_is_exactly_its_complete_sources_in_selection_order() {
        let (obs, plan) = (Registry::new(), plan_of(&["A", "B", "C", "D"]));
        let mut parked = Vec::new();
        let mut submit = |batch: Vec<Attempt>| {
            for (i, attempt) in batch.into_iter().enumerate() {
                let answer = answer(&plan.selected[i]);
                match i {
                    1 => parked.push(attempt),
                    2 => attempt.wave.settle(2, false, Err(Failed), &obs),
                    _ => attempt.wave.settle(i, false, answer, &obs),
                }
            }
        };
        let wave = lead_now(&plan, &obs, true, None, &mut submit);
        assert!(wave.expired);
        use SourceStatus::{Complete, TimedOut};
        let flags = wave.completeness.iter();
        let flags: Vec<_> = flags.map(|c| (&*c.source, c.status)).collect();
        let failed = SourceStatus::Failed;
        let expected = [
            ("A", Complete),
            ("B", TimedOut),
            ("C", failed),
            ("D", Complete),
        ];
        assert_eq!(flags, expected);
        let answered = wave.per_source.iter().map(|r| &r.results.sources[0]);
        assert!(answered.eq(["A", "D"]));
        assert_eq!((wave.stats.requests, wave.stats.total_latency_ms), (2, 20));
        assert_eq!(wave.dispatch_stage.meta_value("sources"), Some("2"));
        assert_eq!(wave.dispatch_stage.children.len(), 2);

        let straggler = parked.pop().expect("B was submitted");
        let cancelled = straggler.wave.cancel.iter().map(CancelToken::is_cancelled);
        assert!(cancelled.eq([true, true, false, true]));
        straggler.wave.settle(1, false, answer("B"), &obs);
        let slots = straggler.wave.slots.lock().unwrap();
        assert!(matches!(slots[1].outcome, Some(Err(Cancelled))));
    }

    /// A due hedge goes through the same `submit`, to the replica, and
    /// may settle before `submit` returns: no lock is held across it.
    #[test]
    fn a_due_hedge_is_submitted_to_the_replica_and_can_win_inline() {
        let (obs, plan) = (Registry::new(), plan_of(&["A"]));
        let mut primary = None;
        let mut submit = |mut batch: Vec<Attempt>| {
            let attempt = batch.pop().expect("one source");
            match &attempt.replica {
                None => primary = Some(attempt),
                Some(task) => {
                    assert_eq!((&*task.url, &*task.id), ("starts://a2/query", "A"));
                    attempt.wave.settle(0, attempt.hedge, answer("A"), &obs);
                }
            }
        };
        let policy = |_: &DispatchTask| (Duration::ZERO, Some("starts://a2/query".to_string()));
        let wave = lead_now(&plan, &obs, false, Some(&policy), &mut submit);
        assert!(!wave.expired);
        assert_eq!(wave.completeness[0].status, SourceStatus::Complete);
        assert!(primary.expect("submitted first").wave.cancel[0].is_cancelled());
        let launched = count(&obs, "serve.hedge.launched");
        assert_eq!((launched, count(&obs, "serve.hedge.wins")), (1, 1));
    }
}
