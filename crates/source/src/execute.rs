//! Query execution at one source: rewrite → translate → search → answer
//! specification → result construction (§4.1.2, §4.2).

use std::time::Instant;

use starts_index::{DocId, Hit, SearchOptions, ShardedTerm};
use starts_obs::{Counter, Gauge, Histogram, Registry};
use starts_proto::query::{SortKey, SortOrder};
use starts_proto::{
    Field, QTerm, Query, QueryProfile, QueryResults, ResultDocument, StageCost, TermStatsEntry,
};

use crate::extensions::{translate_filter_ext, translate_ranking_ext};
use crate::rewrite::{rewrite_query, Rewritten};
use crate::source::Source;
use crate::translate::translate_term;

/// Execute `query` at `source`.
pub(crate) fn execute(source: &Source, query: &Query) -> QueryResults {
    run(source, query, None)
}

/// One source's per-query instruments in one registry, resolved once
/// ([`Source::instruments`]) so that a query updates atomics through
/// them instead of building a metric id — a name `String` plus a label
/// `Vec` — and taking a table lookup for each.
pub struct SourceInstruments {
    queries: Counter,
    topk_bounded: Counter,
    topk_full: Counter,
    shard_searches: Counter,
    shard_latency_us: Histogram,
    skipped_docs: Counter,
    threshold_updates: Counter,
    blocks_skipped: Counter,
    positional_checks: Counter,
    prune_fraction: Gauge,
    results: Histogram,
}

impl SourceInstruments {
    pub(crate) fn resolve(source: &Source, reg: &Registry) -> Self {
        let labels = [("source", source.id())];
        let shards = source.engine().shard_count().to_string();
        SourceInstruments {
            queries: reg.counter_with("source.queries", &labels),
            topk_bounded: reg.counter("engine.topk.bounded"),
            topk_full: reg.counter("engine.topk.full"),
            shard_searches: reg.counter_with(
                "engine.shard.searches",
                &[("source", source.id()), ("shards", &shards)],
            ),
            shard_latency_us: reg.histogram_with("engine.shard.latency_us", &labels),
            // Dynamic-pruning effectiveness (§ docs/performance.md): how
            // many candidate docs the bound check discarded without
            // scoring. Registered even while zero so dashboards see the
            // series.
            skipped_docs: reg.counter_with("engine.prune.skipped_docs", &labels),
            threshold_updates: reg.counter_with("engine.prune.threshold_updates", &labels),
            blocks_skipped: reg.counter_with("engine.prune.blocks_skipped", &labels),
            positional_checks: reg.counter_with("engine.prune.positional_checks", &labels),
            prune_fraction: reg.gauge_with("engine.prune.fraction", &labels),
            results: reg.histogram_with("source.results", &labels),
        }
    }
}

/// Execute `query` at `source`, recording phase timings (`rewrite` →
/// `translate` → `execute` spans under `source.execute`) and
/// rewrite-downgrade counters into `obs` when given.
///
/// When the query carries a trace context (the `XTraceContext`
/// extension attribute, §4.3), the `source.execute` span parents under
/// the metasearcher's dispatching span, and the results carry an
/// `XQueryProfile` extension attribute breaking the host-side cost into
/// rewrite/translate/execute stages (per-shard search latencies and
/// prune counters included) under the context's query id. Untraced
/// queries get no attribute, so their encodings stay byte-identical to
/// the paper's examples.
pub(crate) fn execute_traced(
    source: &Source,
    query: &Query,
    obs: Option<&Registry>,
) -> QueryResults {
    match obs {
        Some(reg) => execute_instrumented(source, query, reg, &source.instruments(reg)),
        None => run(source, query, None),
    }
}

/// [`execute_traced`] through instruments the caller resolved once —
/// what a host serving many queries from one source does.
pub(crate) fn execute_instrumented(
    source: &Source,
    query: &Query,
    reg: &Registry,
    instruments: &SourceInstruments,
) -> QueryResults {
    run(source, query, Some((reg, instruments)))
}

fn run(
    source: &Source,
    query: &Query,
    observed: Option<(&Registry, &SourceInstruments)>,
) -> QueryResults {
    let obs = observed.map(|(reg, _)| reg);
    let instruments = observed.map(|(_, instruments)| instruments);
    // Spans record durations only when dropped, so the wire-visible
    // profile keeps its own explicit clock. All offsets are relative to
    // `t0`, the host-side root.
    let profiling = query.trace.is_some();
    let t0 = Instant::now();
    let elapsed_us = |t0: Instant| t0.elapsed().as_micros() as u64;
    let _root = observed.map(|(reg, instruments)| {
        instruments.queries.inc();
        let fields = vec![("source", source.id().to_string())];
        match &query.trace {
            Some(ctx) => {
                let parent = starts_obs::SpanHandle {
                    path: ctx.parent_path.clone(),
                    id: ctx.parent_span_id,
                };
                reg.span_under("source.execute", &parent, fields)
            }
            None => reg.span_with("source.execute", fields),
        }
    });
    let engine = source.engine();
    let analyzer = engine.analyzer();
    let is_stop = |w: &str| analyzer.is_stop_word(w);

    // Phase 1: rewrite against the source's declared capabilities.
    let rewrite_start = elapsed_us(t0);
    let rewritten = {
        let _span = obs.map(|reg| reg.span("rewrite"));
        rewrite_query(
            query,
            source.metadata(),
            &is_stop,
            analyzer.config().can_disable_stop_words,
        )
    };
    let rewrite_end = elapsed_us(t0);
    if let Some(reg) = obs {
        count_downgrades(reg, source.id(), query, &rewritten);
    }

    // Phase 2: translate the actual query into the engine's IR.
    let translate_start = elapsed_us(t0);
    let (filter_ir, ranking_ir) = {
        let _span = obs.map(|reg| reg.span("translate"));
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
    };
    let translate_end = elapsed_us(t0);

    // Phase 3: execute — search, answer specification, result objects.
    let execute_start = elapsed_us(t0);
    let _span = obs.map(|reg| reg.span("execute"));
    let limit = fast_path_limit(&query.answer);
    if let Some(m) = instruments {
        if limit.is_some() {
            m.topk_bounded.inc();
        } else {
            m.topk_full.inc();
        }
    }
    let search_start = elapsed_us(t0);
    let (mut hits, shard_latencies, prune) = engine.search_top_k_observed(
        filter_ir.as_ref(),
        ranking_ir.as_ref(),
        &SearchOptions {
            limit,
            min_score: query.answer.min_doc_score,
        },
    );
    let search_end = elapsed_us(t0);
    if let Some(m) = instruments {
        m.shard_searches.inc();
        for &us in &shard_latencies {
            m.shard_latency_us.observe(us);
        }
        m.skipped_docs.add(prune.skipped_docs);
        m.threshold_updates.add(prune.threshold_updates);
        m.blocks_skipped.add(prune.blocks_skipped);
        m.positional_checks.add(prune.positional_checks);
        if prune.candidates > 0 {
            m.prune_fraction
                .set(prune.skipped_docs as f64 / prune.candidates as f64);
        }
    }

    // Answer specification: minimum score …
    if query.answer.min_doc_score.is_finite() {
        hits.retain(|h| match h.score {
            Some(s) => s >= query.answer.min_doc_score,
            None => true, // unscored (filter-only) results are kept
        });
    }
    // … sort order …
    sort_hits(source, &mut hits, &query.answer.sort_by);
    // … and result-set cap.
    hits.truncate(query.answer.max_documents);

    // Build the per-document result objects. Each ranking term is
    // resolved against the engine once here, not once per document.
    let ranking_terms: Vec<(&QTerm, ShardedTerm<'_>)> = rewritten
        .ranking
        .iter()
        .flat_map(|r| r.terms())
        .map(|wt| (&wt.term, engine.resolve_term(&translate_term(&wt.term))))
        .collect();
    let documents: Vec<ResultDocument> = hits
        .iter()
        .map(|h| build_document(source, h, query, &ranking_terms))
        .collect();
    if let Some(m) = instruments {
        m.results.observe(documents.len() as u64);
    }

    let profile = profiling.then(|| {
        // The per-shard search windows: shards run one after another, so
        // each child starts where the earlier ones ended, clamped to
        // stay inside the search call's wall-clock.
        let mut search = StageCost::new("search", search_start, search_end - search_start)
            .with_meta("shards", engine.shard_count());
        let mut start = search_start;
        search.children = shard_latencies
            .iter()
            .enumerate()
            .map(|(i, &us)| {
                let duration = us.min(search_end - start);
                let child = StageCost::new(format!("shard-{i}"), start, duration);
                start += duration;
                child
            })
            .collect();
        let execute_end = elapsed_us(t0);
        let mut execute = StageCost::new("execute", execute_start, execute_end - execute_start)
            .with_meta("candidates", prune.candidates)
            .with_meta("skipped_docs", prune.skipped_docs)
            .with_meta("blocks_skipped", prune.blocks_skipped)
            .with_meta("results", documents.len());
        // Only a query that compared positions says so: profiles are
        // kept with cached responses, and most queries carry no `prox`.
        if prune.positional_checks > 0 {
            execute = execute.with_meta("positional_checks", prune.positional_checks);
        }
        execute.children = vec![search];
        let total = elapsed_us(t0);
        QueryProfile {
            query_id: query
                .trace
                .as_ref()
                .map(|ctx| ctx.query_id.clone())
                .unwrap_or_default(),
            root: StageCost {
                name: "source.execute".to_string(),
                start_us: 0,
                duration_us: total,
                meta: vec![("source".to_string(), source.id().to_string())],
                children: vec![
                    StageCost::new("rewrite", rewrite_start, rewrite_end - rewrite_start),
                    StageCost::new(
                        "translate",
                        translate_start,
                        translate_end - translate_start,
                    ),
                    execute,
                ],
            },
        }
    });

    QueryResults {
        sources: vec![source.id().to_string()],
        actual_filter: rewritten.filter,
        actual_ranking: rewritten.ranking,
        documents,
        profile,
    }
}

/// Whether the engine may bound its search to the best
/// `MaxNumberDocuments` hits instead of materializing everything.
///
/// The bound is sound exactly when the truncation the answer spec will
/// apply afterwards keeps the *first* k hits of the engine's own order:
/// the query must ask for the default sort (score descending) and
/// actually carry a cap. A filter-only query qualifies too — its hits
/// carry no score, so the default sort leaves them in the doc order the
/// engine returns them in, and the engine stops at the k-th document
/// its filter admits. `MinDocumentScore` does not disqualify the fast
/// path — in descending order the above-threshold docs form a prefix,
/// so filtering commutes with truncation.
fn fast_path_limit(answer: &starts_proto::AnswerSpec) -> Option<usize> {
    let default_sort = answer.sort_by.as_slice() == [SortKey::score_descending()];
    (default_sort && answer.max_documents != usize::MAX).then_some(answer.max_documents)
}

/// Count §4.2 downgrades: a query part the rewrite changed
/// (`source.rewrite.downgrades`) or removed outright
/// (`source.rewrite.drops`), labeled by source and part.
fn count_downgrades(reg: &Registry, source_id: &str, query: &Query, rewritten: &Rewritten) {
    let parts = [
        (
            "filter",
            query.filter.is_some(),
            rewritten.filter.is_none(),
            { rewritten.filter != query.filter },
        ),
        (
            "ranking",
            query.ranking.is_some(),
            rewritten.ranking.is_none(),
            rewritten.ranking != query.ranking,
        ),
    ];
    for (part, asked, gone, changed) in parts {
        if !asked {
            continue;
        }
        if changed {
            reg.counter_with(
                "source.rewrite.downgrades",
                &[("source", source_id), ("part", part)],
            )
            .inc();
        }
        if gone {
            reg.counter_with(
                "source.rewrite.drops",
                &[("source", source_id), ("part", part)],
            )
            .inc();
        }
    }
}

fn sort_hits(source: &Source, hits: &mut [Hit], sort_by: &[SortKey]) {
    let engine = source.engine();
    hits.sort_by(|a, b| {
        for key in sort_by {
            let ord = match &key.field {
                // Score key: descending, under a total order (None sorts
                // last; NaN cannot destabilize the comparison).
                None => match (&b.score, &a.score) {
                    (Some(x), Some(y)) => x.total_cmp(y),
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (None, None) => std::cmp::Ordering::Equal,
                },
                Some(f) => {
                    let fid = engine.schema().get(f.name());
                    let (va, vb) = match fid {
                        Some(fid) => (
                            engine.doc_field(a.doc, fid).unwrap_or(""),
                            engine.doc_field(b.doc, fid).unwrap_or(""),
                        ),
                        None => ("", ""),
                    };
                    va.cmp(vb)
                }
            };
            let ord = match (key.order, key.field.is_some()) {
                // Score keys already compare descending; field keys
                // compare ascending. Flip per the requested order.
                (SortOrder::Descending, true) => ord.reverse(),
                (SortOrder::Ascending, false) => ord.reverse(),
                _ => ord,
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.doc.cmp(&b.doc)
    });
}

fn build_document(
    source: &Source,
    hit: &Hit,
    query: &Query,
    ranking_terms: &[(&QTerm, ShardedTerm<'_>)],
) -> ResultDocument {
    let engine = source.engine();
    // Linkage is always returned (§4.1.2), then the requested fields.
    let mut fields: Vec<(Field, String)> = Vec::with_capacity(1 + query.answer.fields.len());
    push_field(engine, hit.doc, &Field::Linkage, &mut fields);
    for f in &query.answer.fields {
        if f != &Field::Linkage {
            push_field(engine, hit.doc, f, &mut fields);
        }
    }
    let term_stats = ranking_terms
        .iter()
        .map(|(term, resolved)| {
            let stat = resolved.stats(hit.doc);
            TermStatsEntry {
                term: (*term).clone(),
                term_frequency: stat.tf,
                term_weight: stat.weight,
                document_frequency: stat.df,
            }
        })
        .collect();
    ResultDocument {
        raw_score: hit.score,
        sources: vec![source.id().to_string()],
        fields,
        term_stats,
        doc_size_kb: engine.doc_byte_size(hit.doc).div_ceil(1024),
        doc_count: u64::from(engine.doc_token_count(hit.doc)),
    }
}

fn push_field(
    engine: &starts_index::ShardedEngine,
    doc: DocId,
    field: &Field,
    out: &mut Vec<(Field, String)>,
) {
    if let Some(fid) = engine.schema().get(field.name()) {
        if let Some(value) = engine.doc_field(doc, fid) {
            out.push((field.clone(), value.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SourceConfig;
    use starts_index::Document;
    use starts_proto::query::{parse_filter, parse_ranking, print_filter, print_ranking};
    use starts_proto::AnswerSpec;

    fn corpus() -> Vec<Document> {
        vec![
            Document::new()
                .field("title", "Deductive and Object-Oriented Database Systems")
                .field("author", "Jeffrey D. Ullman")
                .field(
                    "body-of-text",
                    "databases databases databases distributed comparison",
                )
                .field("date-last-modified", "1996-03-31")
                .field("linkage", "http://example.org/dood.ps"),
            Document::new()
                .field("title", "Database Research Achievements")
                .field("author", "Silberschatz Stonebraker Ullman")
                .field("body-of-text", "databases research directions")
                .field("date-last-modified", "1996-09-15")
                .field("linkage", "http://example.org/lagunita.ps"),
            Document::new()
                .field("title", "Compiler Construction")
                .field("author", "Alfred Aho")
                .field("body-of-text", "parsing lexing and code generation")
                .field("date-last-modified", "1995-05-05")
                .field("linkage", "http://example.org/dragon.ps"),
        ]
    }

    fn source() -> Source {
        Source::build(SourceConfig::new("Source-1"), &corpus())
    }

    fn query(filter: &str, ranking: &str) -> Query {
        Query {
            filter: (!filter.is_empty()).then(|| parse_filter(filter).unwrap()),
            ranking: (!ranking.is_empty()).then(|| parse_ranking(ranking).unwrap()),
            answer: AnswerSpec {
                fields: vec![Field::Title, Field::Author],
                ..AnswerSpec::default()
            },
            ..Query::default()
        }
    }

    #[test]
    fn end_to_end_filter_and_ranking() {
        let s = source();
        let q = query(
            r#"(author "Ullman")"#,
            r#"list((body-of-text "databases") (body-of-text "distributed"))"#,
        );
        let r = s.execute(&q);
        assert_eq!(r.sources, vec!["Source-1".to_string()]);
        assert_eq!(r.documents.len(), 2);
        // Doc 0 mentions both ranking words, repeatedly — it leads.
        assert_eq!(r.documents[0].linkage(), Some("http://example.org/dood.ps"));
        assert!(r.documents[0].raw_score.unwrap() >= r.documents[1].raw_score.unwrap());
        // Echoed actual query.
        assert_eq!(
            print_filter(r.actual_filter.as_ref().unwrap()),
            r#"(author "Ullman")"#
        );
    }

    #[test]
    fn answer_fields_returned_with_linkage_first() {
        let s = source();
        let q = query(r#"(author "Aho")"#, "");
        let r = s.execute(&q);
        assert_eq!(r.documents.len(), 1);
        let d = &r.documents[0];
        assert_eq!(d.fields[0].0, Field::Linkage);
        assert_eq!(d.field(&Field::Title), Some("Compiler Construction"));
        assert_eq!(d.field(&Field::Author), Some("Alfred Aho"));
        // Filter-only: no scores (the Boolean model).
        assert_eq!(d.raw_score, None);
    }

    #[test]
    fn term_stats_present_for_ranked_queries() {
        let s = source();
        let q = query("", r#"list((body-of-text "databases"))"#);
        let r = s.execute(&q);
        let top = &r.documents[0];
        assert_eq!(top.term_stats.len(), 1);
        let st = &top.term_stats[0];
        assert_eq!(st.term.value.text, "databases");
        assert_eq!(st.term_frequency, 3); // "databases" ×3 in doc 0 body
        assert_eq!(st.document_frequency, 2);
        assert!(st.term_weight > 0.0);
        assert!(top.doc_count > 0);
    }

    #[test]
    fn min_score_and_max_documents() {
        let s = source();
        let mut q = query("", r#"list((body-of-text "databases"))"#);
        q.answer.max_documents = 1;
        let r = s.execute(&q);
        assert_eq!(r.documents.len(), 1);
        let mut q = query("", r#"list((body-of-text "databases"))"#);
        q.answer.min_doc_score = 2.0; // above Acme-1's maximum
        let r = s.execute(&q);
        assert!(r.documents.is_empty());
    }

    #[test]
    fn positional_checks_are_counted_and_profiled_only_when_paid() {
        let s = source();
        let reg = Registry::new();
        let traced = |filter: &str| {
            let mut q = query(filter, "");
            q.trace = Some(starts_proto::TraceContext {
                query_id: "q".to_string(),
                parent_path: "meta.search/dispatch/source".to_string(),
                parent_span_id: 1,
            });
            let results = execute_traced(&s, &q, Some(&reg));
            let profile = results.profile.expect("traced results carry a profile");
            let execute = profile.root.find("execute").expect("execute stage");
            execute.meta_value("positional_checks").map(str::to_string)
        };
        // No `prox`, no positions compared: the profile says nothing.
        assert_eq!(traced(r#"(body-of-text "databases")"#), None);
        let counted = |reg: &Registry| {
            reg.snapshot()
                .counter("engine.prune.positional_checks", &[("source", "Source-1")])
        };
        assert_eq!(counted(&reg), 0);
        // Only document 1 holds both words: one comparison.
        assert_eq!(
            traced(r#"((body-of-text "databases") prox[3,F] (body-of-text "research"))"#),
            Some("1".to_string())
        );
        assert_eq!(counted(&reg), 1);
    }

    #[test]
    fn bounded_execution_matches_full_and_is_counted() {
        let s = source();
        let full = s.execute(&query("", r#"list((body-of-text "databases"))"#));
        let mut q = query("", r#"list((body-of-text "databases"))"#);
        q.answer.max_documents = 1;
        let reg = Registry::default();
        let bounded = execute_traced(&s, &q, Some(&reg));
        assert_eq!(bounded.documents.len(), 1);
        assert_eq!(bounded.documents[0], full.documents[0]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.topk.bounded", &[]), 1);
        assert_eq!(snap.counter("engine.topk.full", &[]), 0);
        // A non-default sort order opts out of the bounded path.
        let by_title = vec![SortKey {
            field: Some(Field::Title),
            order: SortOrder::Ascending,
        }];
        let mut q = query("", r#"list((body-of-text "databases"))"#);
        q.answer.max_documents = 1;
        q.answer.sort_by = by_title.clone();
        execute_traced(&s, &q, Some(&reg));
        assert_eq!(reg.snapshot().counter("engine.topk.full", &[]), 1);

        // A filter-only query is bounded too: unscored hits under the
        // default sort stay in doc order, so the first k the engine
        // finds are the k the answer keeps.
        let full = s.execute(&query(r#"(body-of-text "databases")"#, ""));
        assert_eq!(full.documents.len(), 2);
        let mut q = query(r#"(body-of-text "databases")"#, "");
        q.answer.max_documents = 1;
        let bounded = execute_traced(&s, &q, Some(&reg));
        assert_eq!(bounded.documents, full.documents[..1]);
        assert_eq!(reg.snapshot().counter("engine.topk.bounded", &[]), 2);
        // ... unless it asks for another order.
        q.answer.sort_by = by_title;
        let sorted = execute_traced(&s, &q, Some(&reg));
        assert_eq!(sorted.documents.len(), 1);
        assert_eq!(
            sorted.documents[0].field(&Field::Title),
            Some("Database Research Achievements")
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.topk.bounded", &[]), 2);
        assert_eq!(snap.counter("engine.topk.full", &[]), 2);
    }

    #[test]
    fn date_filter() {
        let s = source();
        let q = query(r#"(date-last-modified > "1996-08-01")"#, "");
        let r = s.execute(&q);
        assert_eq!(r.documents.len(), 1);
        assert_eq!(
            r.documents[0].linkage(),
            Some("http://example.org/lagunita.ps")
        );
    }

    #[test]
    fn sort_by_title_ascending() {
        let s = source();
        let mut q = query(r#"("databases")"#, "");
        q.answer.sort_by = vec![SortKey {
            field: Some(Field::Title),
            order: SortOrder::Ascending,
        }];
        let r = s.execute(&q);
        let titles: Vec<&str> = r
            .documents
            .iter()
            .map(|d| d.field(&Field::Title).unwrap())
            .collect();
        let mut sorted = titles.clone();
        sorted.sort_unstable();
        assert_eq!(titles, sorted);
    }

    #[test]
    fn stop_word_terms_eliminated_and_reported() {
        // "and" is a stop word for the default analyzer: a ranking
        // expression containing it comes back without it.
        let s = source();
        let q = query("", r#"list("and" (body-of-text "databases"))"#);
        let r = s.execute(&q);
        assert_eq!(
            print_ranking(r.actual_ranking.as_ref().unwrap()),
            r#"(body-of-text "databases")"#
        );
    }

    #[test]
    fn empty_query_returns_empty_results() {
        let s = source();
        let q = Query::default();
        let r = s.execute(&q);
        assert!(r.documents.is_empty());
        assert!(r.actual_filter.is_none());
        assert!(r.actual_ranking.is_none());
    }

    #[test]
    fn soif_stream_of_real_results_round_trips() {
        let s = source();
        let q = query(
            r#"(author "Ullman")"#,
            r#"list((body-of-text "databases"))"#,
        );
        let r = s.execute(&q);
        let bytes = r.to_soif_stream();
        let back = QueryResults::from_soif_stream(&bytes).unwrap();
        assert_eq!(back, r);
    }
}
