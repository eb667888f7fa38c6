//! The sharded engine: parallel index build, and queries that walk the
//! shards in order with an exact per-shard merge.
//!
//! The paper's sources are opaque engines that must still return
//! mergeable ranked results (§3.2). A [`ShardedEngine`] partitions a
//! source's documents into `N` contiguous shards and builds one
//! [`Index`] per shard concurrently. A query runs on the thread that
//! asked it: it evaluates the shards one after another, each starting
//! from the score floor the earlier ones reached, and combines the
//! per-shard lists with a bounded k-way heap merge
//! ([`crate::topk::merge_ranked`]). Two concurrent queries already keep
//! two cores busy, so a query spawns no thread of its own.
//!
//! The merge is *exact*: every ranking algorithm scores each document
//! identically to the monolithic engine, because global collection
//! statistics ([`CollectionStats`] — document frequencies, document
//! count, average document length, and the doc norms derived from them)
//! are computed once over all shards and broadcast to each. Per-shard
//! evaluation stops short of the ranking algorithm's `finalize`
//! (score-scale) step; the merged global list is finalized exactly once,
//! so even the §3.2 vendor that pins its top hit to 1000 scales off the
//! true global maximum.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use starts_text::{Analyzer, LangTag, Thesaurus};

use crate::boolean::BoolNode;
use crate::doc::{DocId, Document};
use crate::engine::{
    Engine, EngineConfig, Hit, PruneCounters, PruneHooks, PruneReport, RankNode, ResolvedTerm,
    ShardPolicy, TermStat,
};
use crate::index::{Index, IndexBuilder, PostingsFootprint};
use crate::matchspec::{FoldTable, TermSpec};
use crate::ranking::RankingAlgorithm;
use crate::schema::{FieldId, Schema, ANY_FIELD};
use crate::topk::merge_ranked;

/// Global collection statistics, computed across all shards and shared
/// (via `Arc`) with each per-shard [`Engine`]. Holding these makes a
/// shard score every local document exactly as the monolithic engine
/// scores it: `df`, `N` and the average document length — every
/// collection-dependent input to a ranking formula — are global.
#[derive(Debug)]
pub struct CollectionStats {
    n_docs: u32,
    total_tokens: u64,
    /// Per-field document frequencies. `BTreeMap` so vocabulary scans
    /// iterate in sorted term order, matching the sorted scan the
    /// monolithic resolver produces.
    df: HashMap<FieldId, BTreeMap<String, u32>>,
    /// Case-insensitive lookup over every field's terms, built by the
    /// first query that needs it (a plain term on a case-sensitive
    /// collection).
    fold: OnceLock<FoldTable>,
}

impl CollectionStats {
    /// Merge per-shard indexes into global statistics. Shards hold
    /// disjoint documents, so document frequencies simply add — a
    /// field's from its lists, `Any`'s from each index's per-term
    /// column.
    pub(crate) fn from_indexes(indexes: &[Index]) -> Self {
        let mut n_docs = 0u32;
        let mut total_tokens = 0u64;
        let mut df: HashMap<FieldId, BTreeMap<String, u32>> = HashMap::new();
        // Allocate a term's key only the first time it is seen.
        fn add(terms: &mut BTreeMap<String, u32>, term: &str, n: u32) {
            match terms.get_mut(term) {
                Some(d) => *d += n,
                None => {
                    terms.insert(term.to_string(), n);
                }
            }
        }
        for index in indexes {
            n_docs += index.n_docs();
            total_tokens += index.total_tokens();
            for (field, term, postings) in index.all_postings() {
                add(df.entry(field).or_default(), term, postings.len() as u32);
            }
            let any = df.entry(ANY_FIELD).or_default();
            for (term, n, _) in index.any_vocabulary() {
                add(any, term, n);
            }
        }
        CollectionStats {
            n_docs,
            total_tokens,
            df,
            fold: OnceLock::new(),
        }
    }

    /// Total documents across all shards.
    pub fn n_docs(&self) -> u32 {
        self.n_docs
    }

    /// Total tokens across all shards.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Mean document length in tokens across all shards.
    pub fn avg_doc_tokens(&self) -> f64 {
        if self.n_docs == 0 {
            0.0
        } else {
            self.total_tokens as f64 / f64::from(self.n_docs)
        }
    }

    /// Global document frequency of an index key in a field.
    pub fn df(&self, field: FieldId, term: &str) -> u32 {
        self.df
            .get(&field)
            .and_then(|terms| terms.get(term))
            .copied()
            .unwrap_or(0)
    }

    /// Whether any shard indexed this (field, term) pair.
    pub fn contains(&self, field: FieldId, term: &str) -> bool {
        self.df
            .get(&field)
            .is_some_and(|terms| terms.contains_key(term))
    }

    /// The terms of any field that are not their own case fold and fold
    /// to `fold` (built on first use).
    pub(crate) fn fold_variants<'a>(&'a self, fold: &'a str) -> impl Iterator<Item = &'a str> {
        self.fold
            .get_or_init(|| {
                let terms: BTreeSet<&str> = self
                    .df
                    .values()
                    .flat_map(|terms| terms.keys().map(String::as_str))
                    .collect();
                FoldTable::new(terms)
            })
            .get(fold)
    }

    /// The global vocabulary of a field with each term's document
    /// frequency, in sorted term order.
    pub fn field_terms(&self, field: FieldId) -> impl Iterator<Item = (&str, u32)> + '_ {
        self.df
            .get(&field)
            .into_iter()
            .flat_map(|terms| terms.iter().map(|(t, &df)| (t.as_str(), df)))
    }
}

/// A search engine whose documents are partitioned across `N` shard
/// [`Engine`]s, built in parallel and queried in shard order on the
/// caller's thread, with results merged exactly (bit-identical scores
/// and ordering) to the monolithic [`Engine`] over the same documents.
///
/// Documents are assigned to shards contiguously: shard `i` holds the
/// global doc-id range `[bases[i], bases[i] + shards[i].n_docs())`, so
/// shard order is global document order and a global id maps to a shard
/// by binary search over the bases.
pub struct ShardedEngine {
    shards: Vec<Engine>,
    /// `bases[i]` = global id of shard `i`'s local document 0.
    bases: Vec<u32>,
    n_docs: u32,
    collection: Option<Arc<CollectionStats>>,
    /// Sum of the shards' build-time footprints.
    footprint: PostingsFootprint,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("n_docs", &self.n_docs)
            .field("ranking", &self.ranking().id())
            .finish()
    }
}

/// Corpus-size floor for auto-sharding: an auto-resolved shard should
/// hold at least this many documents before its parallel build pays
/// for the query pass it adds. `BENCH_shard.json` documents the regime
/// this guards against — on small corpora (and on 1-core containers)
/// every extra shard is one more resolve-and-evaluate pass per query
/// and no faster build, so `shards: 0` only splits when both the
/// hardware *and* the corpus justify it. Explicit `shards: N` remains
/// exact (clamped to the document count). The floor is expressed in
/// blocks: a shard below 8 × [`crate::BLOCK_DOCS`] documents rarely
/// spans enough 128-doc blocks per posting list for Block-Max-WAND to
/// skip anything, so splitting it costs a query pass *and* forfeits
/// block-skip opportunity.
pub const MIN_DOCS_PER_AUTO_SHARD: usize = 8 * crate::blocks::BLOCK_DOCS;

fn resolve_shard_count(requested: usize, n_docs: usize, policy: ShardPolicy) -> usize {
    // Machine parallelism capped by corpus size: a 1-core container
    // never splits (its build cannot run in parallel), and a tiny
    // corpus never splits just because the machine is wide.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let by_corpus = (n_docs / MIN_DOCS_PER_AUTO_SHARD).max(1);
    let wanted = match (requested, policy) {
        (0, _) => cores.min(by_corpus),
        // Adaptive: an explicit request is an upper bound — every shard
        // costs each query a resolve/evaluate pass, which only a
        // parallel build on a spare core pays back, and under-floor
        // shards forfeit block-skip opportunity on top.
        (n, ShardPolicy::Adaptive) => n.min(cores).min(by_corpus),
        (n, ShardPolicy::Exact) => n,
    };
    wanted.clamp(1, n_docs.max(1))
}

impl ShardedEngine {
    /// Partition `docs` into `config.shards` shards (0 = available
    /// parallelism), build the per-shard indexes concurrently, compute
    /// global collection statistics, and wrap each shard in an
    /// [`Engine`] carrying those statistics.
    ///
    /// # Panics
    /// Panics if `config.ranking_id` is unknown, as [`Engine::build`]
    /// does.
    pub fn build(docs: &[Document], config: EngineConfig) -> Self {
        let shard_count = resolve_shard_count(config.shards, docs.len(), config.shard_policy);
        if shard_count == 1 {
            // Monolithic: one shard, local statistics (which *are* the
            // global ones), no merge on any path.
            let engine = Engine::build(docs, config);
            let n_docs = engine.index().n_docs();
            return ShardedEngine {
                footprint: engine.index().postings_footprint(),
                shards: vec![engine],
                bases: vec![0],
                n_docs,
                collection: None,
            };
        }
        // Sequential schema pre-pass: intern field names in first-
        // appearance order — the order the monolithic builder would have
        // used — so every shard shares one FieldId assignment and the
        // per-field statistics can merge by id.
        let mut schema = Schema::new();
        for d in docs {
            for fv in d.fields() {
                schema.intern(&fv.name);
            }
        }
        // Contiguous, balanced partition: the first (n % s) shards get
        // one extra document, and concatenating shards in order yields
        // the monolithic document order.
        let n = docs.len();
        let base_size = n / shard_count;
        let extra = n % shard_count;
        let mut chunks: Vec<&[Document]> = Vec::with_capacity(shard_count);
        let mut start = 0;
        for i in 0..shard_count {
            let len = base_size + usize::from(i < extra);
            chunks.push(&docs[start..start + len]);
            start += len;
        }
        let analyzer_cfg = &config.analyzer;
        let schema_ref = &schema;
        let positions = config.positions;
        let indexes: Vec<Index> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    scope.spawn(move |_| {
                        let mut builder = IndexBuilder::with_schema(
                            Analyzer::new(analyzer_cfg.clone()),
                            schema_ref.clone(),
                        )
                        .positions(positions);
                        for d in *chunk {
                            builder.add(d);
                        }
                        builder.build()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard index build panicked"))
                .collect()
        })
        .expect("shard build scope");
        let collection = Arc::new(CollectionStats::from_indexes(&indexes));
        let mut bases = Vec::with_capacity(shard_count);
        let mut next = 0u32;
        for index in &indexes {
            bases.push(next);
            next += index.n_docs();
        }
        // Engine construction is also parallel: doc-norm computation
        // (needed by the cosine rankers) is the expensive part and only
        // reads the shard-local index plus the shared statistics.
        let config_ref = &config;
        let stats_ref = &collection;
        let shards: Vec<Engine> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = indexes
                .into_iter()
                .map(|index| {
                    scope.spawn(move |_| {
                        Engine::from_index_with_stats(
                            index,
                            config_ref.clone(),
                            Some(Arc::clone(stats_ref)),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard engine build panicked"))
                .collect()
        })
        .expect("shard engine scope");
        let mut footprint = PostingsFootprint::default();
        for shard in &shards {
            footprint.merge(&shard.index().postings_footprint());
        }
        ShardedEngine {
            shards,
            bases,
            n_docs: next,
            collection: Some(collection),
            footprint,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines, in global document order. Content-summary
    /// generation iterates these to aggregate per-field term statistics.
    pub fn shards(&self) -> &[Engine] {
        &self.shards
    }

    /// Execute a query across all shards (unbounded).
    pub fn search(&self, filter: Option<&BoolNode>, ranking: Option<&RankNode>) -> Vec<Hit> {
        self.search_top_k(filter, ranking, None)
    }

    /// Execute a query across all shards, keeping the best `limit` hits.
    /// The result is exactly — scores, ordering, doc-id tie-breaks — what
    /// the monolithic [`Engine::search_top_k`] returns over the same
    /// documents.
    pub fn search_top_k(
        &self,
        filter: Option<&BoolNode>,
        ranking: Option<&RankNode>,
        limit: Option<usize>,
    ) -> Vec<Hit> {
        let opts = SearchOptions {
            limit,
            ..SearchOptions::default()
        };
        self.search_top_k_observed(filter, ranking, &opts).0
    }

    /// [`ShardedEngine::search_top_k`] with the full pruning surface: an
    /// optional `min-doc-score` floor seed, each shard's evaluation
    /// latency in microseconds (index-aligned with
    /// [`ShardedEngine::shards`]), and a [`PruneReport`] summed across
    /// shards. The shards run one after another on the calling thread,
    /// and a bounded ranked query carries its raw-score floor from shard
    /// to shard: once a shard returns `k` hits, the shards after it
    /// start from the k-th hit's score. Hits at or above
    /// `opts.min_score` are never dropped; callers still apply their
    /// own final `min-doc-score` retention.
    pub fn search_top_k_observed(
        &self,
        filter: Option<&BoolNode>,
        ranking: Option<&RankNode>,
        opts: &SearchOptions,
    ) -> (Vec<Hit>, Vec<u64>, PruneReport) {
        let limit = opts.limit;
        // Seed the raw-score floor only when the ranking algorithm can
        // soundly translate the post-finalize threshold back to raw
        // scores (the §3.2 max-rescaling vendor cannot).
        let mut floor = match ranking {
            Some(_) if opts.min_score.is_finite() => self
                .ranking()
                .raw_score_floor(opts.min_score)
                .unwrap_or(f64::NEG_INFINITY),
            _ => f64::NEG_INFINITY,
        };
        let counters = PruneCounters::default();
        if self.shards.len() == 1 {
            let hooks = PruneHooks {
                floor,
                counters: Some(&counters),
            };
            let start = Instant::now();
            let hits = self.shards[0].search_top_k_hooked(filter, ranking, limit, &hooks);
            return (hits, vec![elapsed_us(start)], counters.report());
        }
        let mut timings = vec![0; self.shards.len()];
        let hits = match (filter, ranking) {
            (None, None) => Vec::new(),
            (Some(f), None) => {
                // Filter-only: shard results are sorted local doc sets;
                // offsetting to global ids and concatenating in shard
                // order *is* the globally sorted set. Each shard is asked
                // for what is still missing, and the ones after the
                // shard that fills the limit are never touched.
                let hooks = PruneHooks {
                    floor,
                    counters: Some(&counters),
                };
                let mut hits = Vec::new();
                for (i, engine) in self.shards.iter().enumerate() {
                    let missing = limit.map(|k| k - hits.len());
                    if missing == Some(0) {
                        break;
                    }
                    let start = Instant::now();
                    let local = engine.eval_filter_bounded(f, missing, &hooks);
                    timings[i] = elapsed_us(start);
                    hits.extend(local.into_iter().map(|d| Hit {
                        doc: DocId(self.bases[i] + d.0),
                        score: None,
                    }));
                }
                hits
            }
            (filter, Some(r)) => {
                // Every shard selects raw top-k with the same limit, so
                // a shard that returns `k` entries proves `k` documents
                // score at least its k-th: the merged global top-k
                // holds nothing strictly below it, and the next shard
                // may start from it. `TopK` rejects only scores strictly
                // below its floor, so ties still reach the merge. Under
                // a filter the lists only hold documents the filter
                // admits, so the same argument covers it.
                let mut lists = Vec::with_capacity(self.shards.len());
                for (i, engine) in self.shards.iter().enumerate() {
                    let hooks = PruneHooks {
                        floor,
                        counters: Some(&counters),
                    };
                    let start = Instant::now();
                    let list = engine.eval_ranked_raw(filter, r, limit, &hooks);
                    timings[i] = elapsed_us(start);
                    if Some(list.len()) == limit {
                        if let Some(&(_, kth)) = list.last() {
                            floor = floor.max(kth);
                        }
                    }
                    lists.push(list);
                }
                self.merge_ranked_hits(lists, limit)
            }
        };
        (hits, timings, counters.report())
    }

    /// Merge per-shard raw ranked lists (already sorted by score desc,
    /// local doc asc), rebase local doc ids to global ones, apply the
    /// single global `finalize`, and emit hits.
    fn merge_ranked_hits(&self, lists: Vec<Vec<(DocId, f64)>>, limit: Option<usize>) -> Vec<Hit> {
        let rebased: Vec<Vec<(DocId, f64)>> = lists
            .into_iter()
            .enumerate()
            .map(|(i, list)| {
                let base = self.bases[i];
                list.into_iter()
                    .map(|(d, s)| (DocId(base + d.0), s))
                    .collect()
            })
            .collect();
        let mut merged = merge_ranked(rebased, limit);
        self.ranking().finalize(&mut merged);
        merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        merged
            .into_iter()
            .map(|(doc, score)| Hit {
                doc,
                score: Some(score),
            })
            .collect()
    }

    /// Locate a global doc id: `(shard index, local doc id)`.
    fn locate(&self, doc: DocId) -> (usize, DocId) {
        let shard = match self.bases.binary_search(&doc.0) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (shard, DocId(doc.0 - self.bases[shard]))
    }

    // ---- monolithic-engine facade (global doc ids) ----

    /// The analyzer (identical across shards).
    pub fn analyzer(&self) -> &Analyzer {
        self.shards[0].index().analyzer()
    }

    /// The field schema (identical across shards — interned by a
    /// sequential pre-pass in first-appearance order).
    pub fn schema(&self) -> &Schema {
        self.shards[0].index().schema()
    }

    /// The ranking algorithm (identical across shards).
    pub fn ranking(&self) -> &dyn RankingAlgorithm {
        self.shards[0].ranking()
    }

    /// The engine's thesaurus.
    pub fn thesaurus(&self) -> &Thesaurus {
        self.shards[0].thesaurus()
    }

    /// Total documents across all shards.
    pub fn n_docs(&self) -> u32 {
        self.n_docs
    }

    /// Total tokens across all shards.
    pub fn total_tokens(&self) -> u64 {
        match &self.collection {
            Some(c) => c.total_tokens(),
            None => self.shards[0].index().total_tokens(),
        }
    }

    /// Memory held by the postings representations, summed across all
    /// shards — the bit-packed block postings search runs on, plus any
    /// positional arenas kept for `prox` evaluation. Summed once at
    /// build time.
    pub fn postings_footprint(&self) -> PostingsFootprint {
        self.footprint
    }

    /// Mean document length in tokens across all shards.
    pub fn avg_doc_tokens(&self) -> f64 {
        match &self.collection {
            Some(c) => c.avg_doc_tokens(),
            None => self.shards[0].index().avg_doc_tokens(),
        }
    }

    /// Token count of one document (`DocCount`).
    pub fn doc_token_count(&self, doc: DocId) -> u32 {
        let (shard, local) = self.locate(doc);
        self.shards[shard].index().doc_token_count(local)
    }

    /// Byte size of one document (`DocSize` is this, in KBytes).
    pub fn doc_byte_size(&self, doc: DocId) -> u32 {
        let (shard, local) = self.locate(doc);
        self.shards[shard].index().doc_byte_size(local)
    }

    /// Stored field values of a document, in insertion order.
    pub fn doc_fields(&self, doc: DocId) -> impl Iterator<Item = (&str, &str, Option<&LangTag>)> {
        let (shard, local) = self.locate(doc);
        self.shards[shard].index().doc_fields(local)
    }

    /// First stored value of the named field for a document.
    pub fn doc_field(&self, doc: DocId, field: FieldId) -> Option<&str> {
        let (shard, local) = self.locate(doc);
        self.shards[shard].index().doc_field(local, field)
    }

    /// The `TermStats` entry for one term in one result document —
    /// identical to the monolithic engine's (tf is document-local, df and
    /// the weight's collection inputs are global).
    pub fn term_stats(&self, doc: DocId, spec: &TermSpec) -> TermStat {
        self.resolve_term(spec).stats(doc)
    }

    /// Resolve a term once for a whole result list (see
    /// [`Engine::resolve_term`]). Field, keys and document frequency
    /// resolve against the collection-wide vocabulary every shard
    /// shares, so they are computed once; only the posting lists are
    /// looked up per shard.
    pub fn resolve_term(&self, spec: &TermSpec) -> ShardedTerm<'_> {
        let keys = self.shards[0].resolve_spec(spec);
        ShardedTerm {
            engine: self,
            shards: self
                .shards
                .iter()
                .map(|shard| shard.bind_term(keys.as_ref()))
                .collect(),
        }
    }

    /// Languages observed in a field's values, across all shards
    /// (sorted, deduplicated).
    pub fn field_languages(&self, field: FieldId) -> Vec<LangTag> {
        let mut langs: Vec<LangTag> = self
            .shards
            .iter()
            .flat_map(|e| e.index().field_languages(field))
            .collect();
        langs.sort_unstable();
        langs.dedup();
        langs
    }
}

/// A ranking term resolved once against every shard of a
/// [`ShardedEngine`] ([`ShardedEngine::resolve_term`]).
#[derive(Debug)]
pub struct ShardedTerm<'a> {
    engine: &'a ShardedEngine,
    shards: Vec<ResolvedTerm<'a>>,
}

impl ShardedTerm<'_> {
    /// The term's `TermStats` entry for one document (global id).
    pub fn stats(&self, doc: DocId) -> TermStat {
        let (shard, local) = self.engine.locate(doc);
        self.shards[shard].stats(local)
    }
}

/// Options for [`ShardedEngine::search_top_k_observed`].
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Keep only the best `limit` hits (`None` = unbounded).
    pub limit: Option<usize>,
    /// The `min-doc-score` answer threshold, on the post-`finalize`
    /// score scale. Finite values seed the ranked selection floor when
    /// the ranking algorithm can map them to raw scores
    /// ([`RankingAlgorithm::raw_score_floor`]); hits at or above the
    /// threshold are never dropped, hits below it may or may not be —
    /// callers still apply the final retention.
    pub min_score: f64,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            limit: None,
            min_score: f64::NEG_INFINITY,
        }
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Document> {
        (0..10)
            .map(|i| {
                Document::new()
                    .field("title", ["alpha beta", "beta gamma", "gamma delta"][i % 3])
                    .field(
                        "body-of-text",
                        [
                            "alpha systems databases",
                            "distributed beta databases",
                            "gamma scheduling kernels",
                            "delta alpha paging",
                        ][i % 4],
                    )
            })
            .collect()
    }

    fn config(shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            // The equality tests need the physical layouts they name,
            // whatever machine CI runs on.
            shard_policy: ShardPolicy::Exact,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn sharded_matches_monolithic_exactly() {
        let docs = corpus();
        let mono = Engine::build(&docs, config(1));
        let ranking = RankNode::term(TermSpec::any("databases"));
        let filter = BoolNode::Term(TermSpec::any("alpha"));
        for shards in [1, 2, 3, 7] {
            let sharded = ShardedEngine::build(&docs, config(shards));
            for limit in [None, Some(0), Some(2), Some(100)] {
                assert_eq!(
                    sharded.search_top_k(None, Some(&ranking), limit),
                    mono.search_top_k(None, Some(&ranking), limit),
                    "ranked, shards={shards} limit={limit:?}"
                );
                assert_eq!(
                    sharded.search_top_k(Some(&filter), None, limit),
                    mono.search_top_k(Some(&filter), None, limit),
                    "filter, shards={shards} limit={limit:?}"
                );
                assert_eq!(
                    sharded.search_top_k(Some(&filter), Some(&ranking), limit),
                    mono.search_top_k(Some(&filter), Some(&ranking), limit),
                    "combined, shards={shards} limit={limit:?}"
                );
            }
        }
    }

    #[test]
    fn collection_stats_are_global() {
        let docs = corpus();
        let mono = Engine::build(&docs, config(1));
        let sharded = ShardedEngine::build(&docs, config(3));
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.n_docs(), mono.index().n_docs());
        assert_eq!(sharded.total_tokens(), mono.index().total_tokens());
        assert_eq!(sharded.avg_doc_tokens(), mono.index().avg_doc_tokens());
        let spec = TermSpec::any("databases");
        for doc in 0..docs.len() as u32 {
            assert_eq!(
                sharded.term_stats(DocId(doc), &spec),
                mono.term_stats(DocId(doc), &spec),
                "doc {doc}"
            );
        }
    }

    #[test]
    fn doc_accessors_use_global_ids() {
        let docs = corpus();
        let mono = Engine::build(&docs, config(1));
        let sharded = ShardedEngine::build(&docs, config(4));
        let title = sharded.schema().get("title").unwrap();
        for doc in 0..docs.len() as u32 {
            let doc = DocId(doc);
            assert_eq!(
                sharded.doc_field(doc, title),
                mono.index().doc_field(doc, title)
            );
            assert_eq!(
                sharded.doc_token_count(doc),
                mono.index().doc_token_count(doc)
            );
            assert_eq!(sharded.doc_byte_size(doc), mono.index().doc_byte_size(doc));
            assert_eq!(
                sharded.doc_fields(doc).count(),
                mono.index().doc_fields(doc).count()
            );
        }
    }

    #[test]
    fn shard_count_resolution() {
        assert_eq!(resolve_shard_count(4, 100, ShardPolicy::Exact), 4);
        assert_eq!(resolve_shard_count(4, 2, ShardPolicy::Exact), 2);
        assert_eq!(resolve_shard_count(1, 100, ShardPolicy::Exact), 1);
        assert_eq!(resolve_shard_count(7, 0, ShardPolicy::Exact), 1);
        assert!(resolve_shard_count(0, 100, ShardPolicy::Exact) >= 1);
    }

    #[test]
    fn adaptive_policy_caps_explicit_requests() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        // An explicit request never exceeds machine parallelism …
        let big = 64 * MIN_DOCS_PER_AUTO_SHARD;
        assert_eq!(
            resolve_shard_count(4, big, ShardPolicy::Adaptive),
            4.min(cores)
        );
        // … nor the block-span floor: a corpus too small to give every
        // shard several blocks is not split, whatever the machine.
        assert_eq!(resolve_shard_count(4, 100, ShardPolicy::Adaptive), 1);
        assert_eq!(
            resolve_shard_count(4, MIN_DOCS_PER_AUTO_SHARD, ShardPolicy::Adaptive),
            1
        );
        // `1` always means monolithic, and zero docs never splits.
        assert_eq!(resolve_shard_count(1, big, ShardPolicy::Adaptive), 1);
        assert_eq!(resolve_shard_count(7, 0, ShardPolicy::Adaptive), 1);
    }

    #[test]
    fn auto_shard_count_considers_corpus_size_not_just_cores() {
        // Below the per-shard floor, Auto never splits — regardless of
        // how wide the machine is.
        assert_eq!(resolve_shard_count(0, 100, ShardPolicy::Adaptive), 1);
        assert_eq!(
            resolve_shard_count(0, MIN_DOCS_PER_AUTO_SHARD, ShardPolicy::Adaptive),
            1
        );
        assert_eq!(
            resolve_shard_count(0, 2 * MIN_DOCS_PER_AUTO_SHARD - 1, ShardPolicy::Adaptive),
            1
        );
        // Past the floor, Auto is still capped by machine parallelism.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let big = 64 * MIN_DOCS_PER_AUTO_SHARD;
        assert_eq!(
            resolve_shard_count(0, big, ShardPolicy::Adaptive),
            cores.min(64)
        );
        // Exact-policy counts stay exact even on small corpora: pinning
        // fan-out for the bit-identity property tests is sanctioned.
        assert_eq!(resolve_shard_count(3, 100, ShardPolicy::Exact), 3);
    }

    #[test]
    fn empty_and_tiny_corpora() {
        let sharded = ShardedEngine::build(&[], config(4));
        assert_eq!(sharded.shard_count(), 1);
        assert!(sharded
            .search(None, Some(&RankNode::term(TermSpec::any("x"))))
            .is_empty());
        let one = vec![Document::new().field("title", "solo doc")];
        let sharded = ShardedEngine::build(&one, config(8));
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.n_docs(), 1);
    }

    #[test]
    fn timed_search_reports_per_shard_latencies() {
        let docs = corpus();
        let sharded = ShardedEngine::build(&docs, config(2));
        let ranking = RankNode::term(TermSpec::any("databases"));
        let opts = SearchOptions {
            limit: Some(5),
            ..SearchOptions::default()
        };
        let (hits, timings, _) = sharded.search_top_k_observed(None, Some(&ranking), &opts);
        assert!(!hits.is_empty());
        assert_eq!(timings.len(), 2);
    }
}
