//! The traced run: the same requests walked down the stack by hand.
//!
//! `Server::search` answers a query in one opaque call. The walk
//! replays that call's work stage by stage through each crate's public
//! functions — plan, SOIF encode, host-side decode, execute, encode,
//! client-side decode, merge — with a span around every call, so each
//! layer gets a self time and `trace.coverage` says how much of a
//! federated query the named stages explain. Stages that only exist
//! inside a bigger call (`rewrite_query` inside `Source::execute`) are
//! timed again on their own under a separate `probe` root, so they are
//! never counted twice. End-to-end metrics are never taken from here.

use std::time::{Duration, Instant};

use starts_index::{SearchOptions, ShardedEngine};
use starts_meta::adapt::adapt_query;
use starts_meta::merge::SourceResult;
use starts_meta::pipeline::{self, DispatchTask};
use starts_meta::Metasearcher;
use starts_net::StartsClient;
use starts_obs::Registry;
use starts_proto::{Query, QueryResults, ResultDocument, TraceContext};
use starts_serve::Served;
use starts_soif::{ParseMode, SoifObject};
use starts_source::extensions::{translate_filter_ext, translate_ranking_ext};
use starts_source::rewrite::rewrite_query;
use starts_source::Source;
use starts_text::Analyzer;

use crate::measure::{self, canonical, closed_loop, Load};
use crate::report::{metric, Metric};
use crate::setup::{self, Deployment};
use crate::trace::{self, Span, Tracer};
use crate::workload::{Inputs, Spec, CLIENTS, K};

/// Requests the walk replays at most (fewer when its time share ends first).
const WALK_REQUESTS: u64 = 2000;

pub struct TracedRun {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    pub problems: Vec<String>,
}

/// Counts gathered beside the spans.
#[derive(Default)]
struct Tally {
    requests: u64,
    tasks: u64,
    request_bytes: u64,
    response_bytes: u64,
    result_docs: u64,
    prune_candidates: u64,
    prune_skipped: u64,
    blocks_skipped: u64,
    merge_candidates: u64,
    merge_duplicates: u64,
    net_requests: u64,
    net_bytes: u64,
    /// 1-client `Server::search` latencies that led a wave.
    serve_executed_ns: Vec<u64>,
    walk_mismatches: u64,
}

struct Walker<'a> {
    d: &'a Deployment,
    meta: &'a Metasearcher<'a>,
    sources: &'a [Source],
    client: StartsClient<'a>,
    tally: Tally,
    request_buf: Vec<u8>,
    response_buf: Vec<u8>,
}

impl<'a> Walker<'a> {
    /// The net's registry, borrowed from the deployment rather than
    /// from `self`, so it can be held across updates of the tally.
    fn obs(&self) -> &'a Registry {
        self.d.net.registry()
    }

    /// One request through all four roots. Whichever root runs first
    /// meets the query's postings cold and pays for it, so the order
    /// flips from one request to the next and the bias averages out.
    fn request(&mut self, tr: &mut Tracer, query: &Query, flip: bool) {
        let d = self.d;
        let (mut walked, mut served, mut direct) = (None, None, None);
        let mut roots = [0, 1, 2, 3];
        if flip {
            roots.reverse();
        }
        for root in roots {
            match root {
                0 => walked = Some(tr.span("walk", |tr| self.walk(tr, query))),
                1 => tr.span("probe", |tr| self.probe(tr, query, flip)),
                2 => {
                    let outcome = tr.span("serve.search", |_| d.server.search(query));
                    if matches!(&outcome, Ok(o) if o.via == Served::Executed) {
                        let span = tr.spans.last().expect("span just recorded");
                        self.tally.serve_executed_ns.push(span.duration_ns());
                    }
                    served = outcome.ok().map(|o| canonical(&o.response.merged));
                }
                _ => {
                    let before = d.net.stats();
                    let response = tr.span("meta.search", |_| self.meta.search(query));
                    let after = d.net.stats();
                    self.tally.net_requests += after.requests - before.requests;
                    self.tally.net_bytes += (after.bytes_sent + after.bytes_received)
                        - (before.bytes_sent + before.bytes_received);
                    direct = Some(canonical(&response.merged));
                }
            }
        }
        if walked != direct || served != direct {
            self.tally.walk_mismatches += 1;
        }
        self.tally.requests += 1;
    }

    /// The stages `Server::search` composes, one span each.
    fn walk(&mut self, tr: &mut Tracer, query: &Query) -> Vec<(String, u64)> {
        let (meta, obs) = (self.meta, self.obs());
        let t0 = Instant::now();
        let plan = tr.span("meta.plan", |_| {
            pipeline::plan(&meta.catalog, &meta.config, query, obs, t0)
        });
        let mut per_source: Vec<SourceResult> = Vec::with_capacity(plan.tasks.len());
        for task in &plan.tasks {
            let results = tr.span("task", |tr| self.exchange_by_hand(tr, task));
            per_source.push(SourceResult {
                metadata: task.metadata.clone(),
                results,
                source_weight: task.weight,
            });
        }
        let (merged, stats, _) = tr.span("meta.merge", |_| {
            pipeline::merge_stage(meta.config.merger.as_ref(), &per_source, K, obs, t0)
        });
        self.tally.merge_candidates += stats.candidates as u64;
        self.tally.merge_duplicates += stats.duplicates() as u64;
        canonical(&merged)
    }

    /// One per-source exchange without the transport: what the client
    /// encodes, what the host decodes, executes and encodes, what the
    /// client decodes.
    fn exchange_by_hand(&mut self, tr: &mut Tracer, task: &DispatchTask) -> QueryResults {
        let (sources, obs) = (self.sources, self.obs());
        let source = &sources[task.entry_index];
        // `run_task` threads a trace context over the wire, which makes
        // the host attach its cost profile to the answer; do the same.
        let mut query = task.query.clone();
        query.trace = Some(TraceContext {
            query_id: "walk".to_string(),
            parent_path: "walk/dispatch/source".to_string(),
            parent_span_id: 0,
        });
        let object = tr.span("core.query_to_soif", |_| query.to_soif());
        self.request_buf.clear();
        tr.span("soif.write.query", |_| {
            starts_soif::write_object_into(&object, &mut self.request_buf)
        });
        let parsed = tr.span("soif.parse.query", |_| {
            starts_soif::parse_one(&self.request_buf, ParseMode::Lenient)
                .expect("the writer's output parses")
        });
        let received = tr.span("core.query_from_soif", |_| {
            Query::from_soif(&parsed).expect("an encoded query decodes")
        });
        let results = tr.span("source.execute", |_| {
            source.execute_traced(&received, Some(obs))
        });
        let objects: Vec<SoifObject> = tr.span("core.results_to_soif", |_| {
            std::iter::once(results.header_soif())
                .chain(results.documents.iter().map(ResultDocument::to_soif))
                .collect()
        });
        self.response_buf.clear();
        tr.span("soif.write.results", |_| {
            starts_soif::write_stream_into(&objects, &mut self.response_buf)
        });
        let parsed = tr.span("soif.parse.results", |_| {
            starts_soif::parse(&self.response_buf, ParseMode::Strict)
                .expect("the writer's output parses")
        });
        let decoded = tr.span("core.results_from_soif", |_| {
            let mut decoded =
                QueryResults::from_header(&parsed[0]).expect("an encoded header decodes");
            decoded.documents = parsed[1..]
                .iter()
                .map(|o| ResultDocument::from_soif(o).expect("an encoded document decodes"))
                .collect();
            decoded
        });
        self.tally.tasks += 1;
        self.tally.request_bytes += self.request_buf.len() as u64;
        self.tally.response_bytes += self.response_buf.len() as u64;
        self.tally.result_docs += decoded.documents.len() as u64;
        decoded
    }

    /// Calls that are parts of the walk's stages, timed on their own.
    /// `flip` swaps the two calls that reach the wired source, for the
    /// same reason `request` flips its roots.
    fn probe(&mut self, tr: &mut Tracer, query: &Query, flip: bool) {
        let (meta, sources, obs) = (self.meta, self.sources, self.obs());
        let t0 = Instant::now();
        let owned = Metasearcher::selection_terms(query);
        let terms: Vec<(Option<&str>, &str)> = owned
            .iter()
            .map(|(f, t)| (f.as_deref(), t.as_str()))
            .collect();
        tr.span("meta.select", |_| {
            meta.config.selector.rank(&meta.catalog, &terms)
        });
        let plan = pipeline::plan(&meta.catalog, &meta.config, query, obs, t0);
        let dispatch = obs.span("dispatch");
        let handle = dispatch.handle();
        for task in &plan.tasks {
            let entry = &meta.catalog.entries[task.entry_index];
            tr.span("meta.adapt", |_| {
                adapt_query(query, &entry.metadata, &entry.summary)
            });

            let source = &sources[task.entry_index];
            let engine = source.engine();
            let analyzer = engine.analyzer();
            let rewritten = tr.span("source.rewrite", |_| {
                rewrite_query(
                    &task.query,
                    source.metadata(),
                    &|w| analyzer.is_stop_word(w),
                    analyzer.config().can_disable_stop_words,
                )
            });
            let (filter, ranking) = tr.span("source.translate", |_| {
                (
                    rewritten
                        .filter
                        .as_ref()
                        .map(|f| translate_filter_ext(f, analyzer)),
                    rewritten
                        .ranking
                        .as_ref()
                        .map(|r| translate_ranking_ext(r, analyzer)),
                )
            });
            // The bound `Source::execute` derives for these queries:
            // ranked, default sort, `max_documents = K`.
            let options = SearchOptions {
                limit: ranking.is_some().then_some(K),
                min_score: task.query.answer.min_doc_score,
            };
            let (_, _, prune) = tr.span("index.search", |_| {
                engine.search_top_k_observed(filter.as_ref(), ranking.as_ref(), &options)
            });
            self.tally.prune_candidates += prune.candidates;
            self.tally.prune_skipped += prune.skipped_docs;
            self.tally.blocks_skipped += prune.blocks_skipped;

            for exchange_now in [!flip, flip] {
                if exchange_now {
                    tr.span("net.exchange", |_| {
                        self.client
                            .query(&task.url, &task.query)
                            .expect("exchange with a wired source")
                    });
                } else {
                    tr.span("meta.run_task", |_| {
                        pipeline::run_task(
                            &self.client,
                            task,
                            &meta.config.health,
                            meta.config.timeout_ms,
                            &handle,
                            "probe",
                            t0,
                            None,
                        )
                    })
                    .expect("dispatch to a wired source");
                }
            }
        }
    }
}

/// Emitted tokens per second of `Analyzer::analyze` over document
/// bodies, in millions; stops after `budget` or one pass.
fn analyze_mtok_per_s(spec: &Spec, inputs: &Inputs, budget: Duration) -> f64 {
    let config = setup::source_config(spec, 0, "probe").engine.analyzer;
    let analyzer = Analyzer::new(config);
    let mut tokens = 0usize;
    let start = Instant::now();
    'pass: for source in &inputs.corpus.sources {
        for doc in &source.docs {
            if let Some(body) = doc.get("body-of-text") {
                tokens += std::hint::black_box(analyzer.analyze(body)).len();
            }
            if start.elapsed() >= budget {
                break 'pass;
            }
        }
    }
    tokens as f64 / start.elapsed().as_secs_f64().max(1e-9) / 1e6
}

/// Unit cost of the three public recording calls on a fresh registry, ns.
fn obs_unit_costs() -> (f64, f64, f64) {
    const N: u64 = 20_000;
    let registry = Registry::new();
    let per_call = |f: &dyn Fn(u64)| {
        let start = Instant::now();
        for i in 0..N {
            f(i);
        }
        start.elapsed().as_nanos() as f64 / N as f64
    };
    let span = per_call(&|_| drop(registry.span("bench.span")));
    let counter = per_call(&|_| {
        registry
            .counter_with("bench.counter", &[("source", "Gen-0")])
            .inc()
    });
    let histogram = per_call(&|i| registry.histogram("bench.histogram").observe(i));
    (span, counter, histogram)
}

/// Spans the program's own registry records per `Metasearcher::search`.
fn spans_per_query(obs: &Registry, meta: &Metasearcher<'_>, queries: &[Query]) -> f64 {
    // 16 searches record a few hundred spans, well inside the
    // registry's 4,096-span ring.
    let sample = &queries[..queries.len().min(16)];
    let mark = obs.recent_spans().iter().map(|e| e.id).max().unwrap_or(0);
    for q in sample {
        meta.search(q);
    }
    let new = obs.recent_spans().iter().filter(|e| e.id > mark).count();
    new as f64 / sample.len() as f64
}

fn counter_total(obs: &Registry, name: &str) -> u64 {
    obs.snapshot()
        .counters
        .iter()
        .filter(|c| c.id.name == name)
        .map(|c| c.value)
        .sum()
}

/// Mean wall time beyond the nominal pacing of an exchange with a
/// non-straggler source, µs.
fn paced_overshoot_us(spec: &Spec, d: &Deployment, query: &Query) -> f64 {
    let Some(wan) = spec.wan else { return 0.0 };
    let client = StartsClient::new(&d.net);
    let url = d.catalog.entries[1].query_url();
    let nominal_us = f64::from(wan.link_ms) * wan.pacing_us_per_ms as f64;
    // The same exchange unpaced is the part of the wall time that is work.
    d.set_paced(spec, false);
    let start = Instant::now();
    client.query(url, query).expect("unpaced exchange");
    let work_us = start.elapsed().as_secs_f64() * 1e6;
    d.set_paced(spec, true);
    const N: u32 = 30;
    let start = Instant::now();
    for _ in 0..N {
        client.query(url, query).expect("paced exchange");
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(N) - nominal_us - work_us
}

pub fn run(spec: &Spec, inputs: &Inputs, gen_s: f64, seconds: f64) -> TracedRun {
    let mut problems = Vec::new();
    let analyze = analyze_mtok_per_s(spec, inputs, Duration::from_millis(300));

    // index: one source's engine built on its own, then dropped.
    let first = &inputs.corpus.sources[0];
    let start = Instant::now();
    let engine = ShardedEngine::build(&first.docs, setup::source_config(spec, 0, &first.id).engine);
    let build_docs_per_s = first.docs.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
    drop(engine);

    let d = setup::deploy(spec, inputs);
    let start = Instant::now();
    let sources = setup::walk_sources(spec, inputs);
    let source_build_s = start.elapsed().as_secs_f64();
    let postings_bytes: u64 = sources
        .iter()
        .map(|s| {
            let f = s.engine().postings_footprint();
            f.block_bytes + f.positional_bytes
        })
        .sum();
    let shard_count = sources
        .iter()
        .map(|s| s.engine().shard_count())
        .sum::<usize>() as f64
        / sources.len() as f64;

    // serve: the 2-client closed loop, split by how each response was served.
    let load = Load::new(spec, inputs, &d);
    d.set_paced(spec, true);
    closed_loop(&load, CLIENTS, Duration::from_secs_f64(seconds * 0.10));
    let serve = closed_loop(&load, CLIENTS, Duration::from_secs_f64(seconds * 0.35));
    let cached_end = d.server.cached_responses();
    let overshoot = paced_overshoot_us(spec, &d, &inputs.queries[0]);
    d.set_paced(spec, false);
    let obs = d.net.registry();
    let hedge_launched = counter_total(obs, "serve.hedge.launched");
    let hedge_wins = counter_total(obs, "serve.hedge.wins");
    // The window's own invalidations (hot_repeat) plus one per source.
    let mut invalidate_ns = serve.invalidate_ns.clone();
    for id in &d.source_ids {
        let t = Instant::now();
        d.server.invalidate_source(id);
        invalidate_ns.push(t.elapsed().as_nanos() as u64);
    }
    d.server.invalidate_cache();
    if serve.mismatched > 0 {
        problems.push(format!(
            "{} of {} served responses differ in length from the query's first answer",
            serve.mismatched, serve.attempted
        ));
    }
    let by_via = |via| measure::mean(&serve.latencies_sorted(Some(via))) / 1e3;
    let all = serve.latencies_sorted(None);
    let (tail_us, tail_pct) = measure::tail_us(&all);

    let (span_ns, counter_ns, hist_ns) = obs_unit_costs();
    let meta = Metasearcher::new(&d.net, d.catalog.clone(), setup::meta_config(spec));
    let spans_per_query = spans_per_query(obs, &meta, &inputs.queries);

    // The walk itself, unpaced: its layers are CPU, not sleeps.
    let mut walker = Walker {
        d: &d,
        meta: &meta,
        sources: &sources,
        client: StartsClient::new(&d.net),
        tally: Tally::default(),
        request_buf: Vec::new(),
        response_buf: Vec::new(),
    };
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64(seconds * 0.45);
    let start = Instant::now();
    for n in 0..WALK_REQUESTS {
        if start.elapsed() >= budget {
            break;
        }
        tracer.set_request(n as u32);
        walker.request(
            &mut tracer,
            &inputs.queries[load.schedule.query_index(n)],
            n % 2 == 1,
        );
    }
    let tally = walker.tally;
    let spans = tracer.spans;
    if let Err(e) = trace::validate(&spans) {
        problems.push(format!("malformed trace: {e}"));
    }
    if tally.requests == 0 {
        problems.push("the walk's time share ended before its first request".to_string());
    }
    if tally.walk_mismatches > 0 {
        problems.push(format!(
            "{} of {} walked requests disagree across walk / Server / Metasearcher",
            tally.walk_mismatches, tally.requests
        ));
    }

    let table = trace::by_name(&spans);
    let us = |name: &str| table.get(name).map_or(0.0, |s| s.mean_us());
    let requests = tally.requests.max(1) as f64;
    let tasks = tally.tasks.max(1) as f64;
    let sources_per_query = tally.tasks as f64 / requests;
    let search_sorted = trace::durations_sorted(&spans, "index.search");
    let search_p50 = if search_sorted.is_empty() {
        0.0
    } else {
        measure::percentile(&search_sorted, 0.5) as f64 / 1e3
    };
    let hand_exchange: f64 = [
        "core.query_to_soif",
        "soif.write.query",
        "soif.parse.query",
        "core.query_from_soif",
        "source.execute",
        "core.results_to_soif",
        "soif.write.results",
        "soif.parse.results",
        "core.results_from_soif",
    ]
    .iter()
    .map(|n| us(n))
    .sum();
    let stage_sum = us("meta.plan") + sources_per_query * us("meta.run_task") + us("meta.merge");
    let walk = table.get("walk").copied().unwrap_or_default();
    let meta_search = table.get("meta.search").copied().unwrap_or_default();
    let coverage = (walk.total_ns - walk.self_ns) as f64 / meta_search.total_ns.max(1) as f64;

    let metrics = vec![
        metric("corpus.gen_s", "s", gen_s),
        metric("text.analyze_mtok_per_s", "Mtok/s", analyze),
        metric("index.build_docs_per_s", "1/s", build_docs_per_s),
        metric("index.postings_bytes", "B", postings_bytes as f64),
        metric("index.shard_count", "count", shard_count),
        metric("index.search_us", "us", us("index.search")),
        metric("index.search_p50_us", "us", search_p50),
        metric(
            "index.postings_scored_per_query",
            "count",
            (tally.prune_candidates - tally.prune_skipped) as f64 / requests,
        ),
        metric(
            "index.blocks_skipped_per_query",
            "count",
            tally.blocks_skipped as f64 / requests,
        ),
        metric(
            "index.pruned_fraction",
            "ratio",
            tally.prune_skipped as f64 / tally.prune_candidates.max(1) as f64,
        ),
        metric("source.build_s", "s", source_build_s),
        metric("source.rewrite_us", "us", us("source.rewrite")),
        metric("source.translate_us", "us", us("source.translate")),
        metric("source.execute_us", "us", us("source.execute")),
        metric(
            "source.render_self_us",
            "us",
            us("source.execute")
                - us("source.rewrite")
                - us("source.translate")
                - us("index.search"),
        ),
        metric(
            "source.docs_per_result",
            "count",
            tally.result_docs as f64 / tasks,
        ),
        metric("core.query_to_soif_us", "us", us("core.query_to_soif")),
        metric("core.query_from_soif_us", "us", us("core.query_from_soif")),
        metric("core.results_to_soif_us", "us", us("core.results_to_soif")),
        metric(
            "core.results_from_soif_us",
            "us",
            us("core.results_from_soif"),
        ),
        metric("soif.write_us.query", "us", us("soif.write.query")),
        metric("soif.write_us.results", "us", us("soif.write.results")),
        metric("soif.parse_us.query", "us", us("soif.parse.query")),
        metric("soif.parse_us.results", "us", us("soif.parse.results")),
        metric(
            "soif.request_bytes",
            "B",
            tally.request_bytes as f64 / tasks,
        ),
        metric(
            "soif.response_bytes",
            "B",
            tally.response_bytes as f64 / tasks,
        ),
        metric("net.exchange_us", "us", us("net.exchange")),
        metric("net.self_us", "us", us("net.exchange") - hand_exchange),
        metric(
            "net.requests_per_query",
            "count",
            tally.net_requests as f64 / requests,
        ),
        metric(
            "net.bytes_per_query",
            "B",
            tally.net_bytes as f64 / requests,
        ),
        metric("net.paced_overshoot_us", "us", overshoot),
        metric("meta.select_us", "us", us("meta.select")),
        metric("meta.adapt_us", "us", us("meta.adapt")),
        metric("meta.plan_us", "us", us("meta.plan")),
        metric("meta.run_task_us", "us", us("meta.run_task")),
        metric("meta.merge_us", "us", us("meta.merge")),
        metric("meta.search_us", "us", us("meta.search")),
        metric("meta.search_self_us", "us", us("meta.search") - stage_sum),
        metric("meta.sources_per_query", "count", sources_per_query),
        metric(
            "meta.merge_candidates_per_query",
            "count",
            tally.merge_candidates as f64 / requests,
        ),
        metric(
            "meta.merge_duplicates_per_query",
            "count",
            tally.merge_duplicates as f64 / requests,
        ),
        metric("serve.miss_us", "us", by_via(Served::Executed)),
        metric("serve.hit_us", "us", by_via(Served::CacheHit)),
        metric("serve.coalesced_us", "us", by_via(Served::Coalesced)),
        metric("serve.hit_ratio", "ratio", serve.share(Served::CacheHit)),
        metric(
            "serve.coalesced_ratio",
            "ratio",
            serve.share(Served::Coalesced),
        ),
        metric(
            "serve.invalidate_us",
            "us",
            measure::mean(&invalidate_ns) / 1e3,
        ),
        metric("serve.cached_responses_end", "count", cached_end as f64),
        metric("serve.shed_count", "count", serve.shed as f64),
        metric(
            "serve.partial_share",
            "ratio",
            serve.partial as f64 / serve.attempted.max(1) as f64,
        ),
        metric("serve.hedge_launched", "count", hedge_launched as f64),
        metric("serve.hedge_wins", "count", hedge_wins as f64),
        metric(
            "serve.vs_stage_sum_us",
            "us",
            measure::mean(&tally.serve_executed_ns) / 1e3 - stage_sum,
        ),
        metric("serve.lat_tail_us", "us", tail_us),
        metric("serve.lat_tail_pct", "%", tail_pct),
        metric("obs.span_ns", "ns", span_ns),
        metric("obs.counter_with_ns", "ns", counter_ns),
        metric("obs.hist_observe_ns", "ns", hist_ns),
        metric("obs.spans_per_query", "count", spans_per_query),
        metric("trace.coverage", "ratio", coverage),
        metric("trace.walk_us", "us", walk.mean_us()),
        metric("trace.walked_requests", "count", tally.requests as f64),
    ];
    TracedRun {
        metrics,
        attempted: serve.attempted + tally.requests,
        failed: serve.failed + tally.walk_mismatches,
        spans,
        problems,
    }
}
