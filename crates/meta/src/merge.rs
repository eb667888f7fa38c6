//! Rank merging (§3.2, §4.2): combining per-source results into one
//! rank.
//!
//! "Merging query results from sources that use different and unknown
//! ranking algorithms is hard" — source S1 reports 0.3, source S2
//! reports 1,000, and even identical algorithms disagree because of
//! collection skew. STARTS' answer is to ship enough *raw material*
//! (unnormalized score, ScoreRange, RankingAlgorithmID, and per-term
//! TermStats) for the metasearcher "to experiment with a variety of
//! formulas". This module implements that variety:
//!
//! | strategy | uses | faithful to |
//! |---|---|---|
//! | [`RawScoreMerge`] | RawScore only | the broken naive baseline of §3.2 |
//! | [`NormalizedMerge`] | RawScore + ScoreRange | range normalization |
//! | [`RoundRobinMerge`] | per-source rank order | collection fusion interleaving (ref \[6\]) |
//! | [`TfMerge`] | TermStats term frequencies | Example 9's re-ranking |
//! | [`TfIdfMerge`] | TermStats + summary global df | §4.2's "as if they all belonged in a single, large document source" |
//! | [`WeightedMerge`] | normalized score × source belief | CORI-style weighted merging (ref \[5\]) |

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use starts_proto::{Field, QueryResults, ResultDocument, SourceMetadata};

/// One source's contribution to a merge.
#[derive(Debug, Clone)]
pub struct SourceResult {
    /// The source's metadata (ScoreRange, RankingAlgorithmID, …),
    /// shared with the catalog entry it was planned from.
    pub metadata: Arc<SourceMetadata>,
    /// The results it returned.
    pub results: QueryResults,
    /// An optional source-goodness weight (e.g. the selection belief)
    /// consumed by [`WeightedMerge`]; 1.0 when absent.
    pub source_weight: f64,
}

/// A merged document.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedDoc {
    /// The document's URL (the dedup key).
    pub linkage: String,
    /// Title, if returned.
    pub title: Option<String>,
    /// The merged score (meaning depends on the strategy).
    pub score: f64,
    /// Sources that returned the document.
    pub sources: Vec<String>,
}

/// A merging strategy.
///
/// ```
/// use starts_meta::merge::{Merger, NormalizedMerge, SourceResult};
/// use starts_proto::{QueryResults, SourceMetadata};
///
/// // Two sources with different score scales return results…
/// let unit = SourceResult {
///     metadata: SourceMetadata { source_id: "Unit".into(), score_range: (0.0, 1.0),
///                                ..SourceMetadata::default() }.into(),
///     results: QueryResults::default(),
///     source_weight: 1.0,
/// };
/// // …and a strategy combines them into one deduplicated rank.
/// let merged = NormalizedMerge.merge(&[unit]);
/// assert!(merged.is_empty()); // no documents in this toy input
/// ```
pub trait Merger: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Merge per-source results into a single rank, best first,
    /// deduplicated by linkage.
    fn merge(&self, inputs: &[SourceResult]) -> Vec<MergedDoc>;

    /// Merge keeping only the best `k` documents, plus the dedup
    /// accounting a bounded merge would otherwise lose. The result is
    /// exactly `self.merge(inputs)` truncated to `k`.
    ///
    /// The default runs the full merge; strategies whose per-source
    /// transform preserves each source's rank order ([`RawScoreMerge`],
    /// [`NormalizedMerge`]) override it with a bounded k-way heap merge
    /// over the already-sorted per-source lists.
    fn merge_top_k(&self, inputs: &[SourceResult], k: usize) -> (Vec<MergedDoc>, MergeStats) {
        full_merge_top_k(self, inputs, k)
    }
}

/// Accounting from a merge: how many per-source result documents went
/// in and how many distinct linkages they collapsed to. The difference
/// is the cross-source duplicate count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Per-source result documents fed into the merge.
    pub candidates: usize,
    /// Distinct linkages among them (documents without a linkage are
    /// unidentifiable across sources and drop out).
    pub distinct: usize,
}

impl MergeStats {
    /// Candidates that collapsed into an already-seen linkage.
    pub fn duplicates(&self) -> usize {
        self.candidates.saturating_sub(self.distinct)
    }
}

/// The fallback `merge_top_k`: full merge, then truncate.
fn full_merge_top_k(
    merger: &(impl Merger + ?Sized),
    inputs: &[SourceResult],
    k: usize,
) -> (Vec<MergedDoc>, MergeStats) {
    let mut merged = merger.merge(inputs);
    let stats = MergeStats {
        candidates: inputs.iter().map(|i| i.results.documents.len()).sum(),
        distinct: merged.len(),
    };
    merged.truncate(k);
    (merged, stats)
}

fn doc_title(d: &ResultDocument) -> Option<String> {
    d.field(&Field::Title).map(str::to_string)
}

/// Deduplicate scored documents, keeping the best score per linkage and
/// accumulating source lists, then sort descending.
fn collect(scored: Vec<(f64, &ResultDocument, &str)>) -> Vec<MergedDoc> {
    let mut by_url: HashMap<String, MergedDoc> = HashMap::new();
    for (score, doc, source_id) in scored {
        let Some(url) = doc.linkage() else {
            continue; // unidentifiable across sources
        };
        let entry = by_url.entry(url.to_string()).or_insert_with(|| MergedDoc {
            linkage: url.to_string(),
            title: doc_title(doc),
            score: f64::NEG_INFINITY,
            sources: Vec::new(),
        });
        if score > entry.score {
            entry.score = score;
        }
        if !entry.sources.iter().any(|s| s == source_id) {
            entry.sources.push(source_id.to_string());
        }
        if entry.title.is_none() {
            entry.title = doc_title(doc);
        }
    }
    let mut out: Vec<MergedDoc> = by_url.into_values().collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.linkage.cmp(&b.linkage)));
    out
}

/// Bounded k-way merge over per-source scored lists, equivalent to
/// [`collect`] + sort + truncate but doing only `O(n log s)` heap work
/// for the selection.
///
/// Requires every input list to be non-increasing in its (transformed)
/// score — true whenever the per-source transform is monotone and the
/// source returned ranked results. Returns `None` when any input
/// violates that, so the caller can fall back to the full merge.
///
/// Exactness over the heap sketch needs two refinements. Equal-score
/// runs are drained completely and emitted in linkage order, because the
/// full sort breaks score ties by linkage ascending — a plain heap pop
/// would interleave them arbitrarily. And after the top `k` linkages are
/// fixed, one linear pass over all inputs (in input order) rebuilds each
/// winner's source list and title exactly as the unbounded merge
/// accumulates them, and counts distinct linkages for the stats.
fn bounded_merge<'a>(
    inputs: &'a [SourceResult],
    scored: &[Vec<(f64, &'a ResultDocument)>],
    k: usize,
) -> Option<(Vec<MergedDoc>, MergeStats)> {
    for list in scored {
        if list
            .windows(2)
            .any(|w| w[0].0.total_cmp(&w[1].0) == std::cmp::Ordering::Less)
        {
            return None;
        }
    }
    // Max-heap of (score, input index): pop order visits every
    // occurrence in score-descending order, so the first occurrence of a
    // linkage carries its final (maximum) score.
    struct Head(f64, usize);
    impl PartialEq for Head {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for Head {}
    impl PartialOrd for Head {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Head {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }
    let mut cursors = vec![0usize; scored.len()];
    let mut heap: BinaryHeap<Head> = BinaryHeap::with_capacity(scored.len());
    for (i, list) in scored.iter().enumerate() {
        if let Some(&(s, _)) = list.first() {
            heap.push(Head(s, i));
        }
    }
    let mut emitted: HashMap<&str, usize> = HashMap::new();
    let mut out: Vec<MergedDoc> = Vec::with_capacity(k.min(64));
    let mut tie_batch: Vec<&str> = Vec::new();
    while out.len() < k && !heap.is_empty() {
        let tie_score = heap.peek().expect("nonempty").0;
        tie_batch.clear();
        // Drain the whole equal-score run across all inputs.
        while let Some(Head(s, _)) = heap.peek() {
            if s.total_cmp(&tie_score) != std::cmp::Ordering::Equal {
                break;
            }
            let Head(_, i) = heap.pop().expect("peeked");
            let (_, doc) = scored[i][cursors[i]];
            cursors[i] += 1;
            if let Some(&(next, _)) = scored[i].get(cursors[i]) {
                heap.push(Head(next, i));
            }
            if let Some(url) = doc.linkage() {
                if !emitted.contains_key(url) && !tie_batch.contains(&url) {
                    tie_batch.push(url);
                }
            }
        }
        tie_batch.sort_unstable();
        for url in tie_batch.drain(..) {
            if out.len() == k {
                break;
            }
            emitted.insert(url, out.len());
            out.push(MergedDoc {
                linkage: url.to_string(),
                title: None,
                score: tie_score,
                sources: Vec::new(),
            });
        }
    }
    // Rebuild pass: sources, titles and dedup accounting accumulate in
    // input order, exactly as the unbounded `collect` does.
    let mut distinct: HashSet<&str> = HashSet::new();
    let mut candidates = 0usize;
    for input in inputs {
        let sid = source_id(input);
        for d in &input.results.documents {
            candidates += 1;
            let Some(url) = d.linkage() else { continue };
            distinct.insert(url);
            if let Some(&i) = emitted.get(url) {
                if !out[i].sources.iter().any(|s| s == sid) {
                    out[i].sources.push(sid.to_string());
                }
                if out[i].title.is_none() {
                    out[i].title = doc_title(d);
                }
            }
        }
    }
    let stats = MergeStats {
        candidates,
        distinct: distinct.len(),
    };
    Some((out, stats))
}

fn source_id(input: &SourceResult) -> &str {
    &input.metadata.source_id
}

/// Naive: compare raw scores across sources directly. This is the §3.2
/// mistake made executable — sources with big score scales (the "top doc
/// = 1000" vendor) dominate regardless of relevance.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawScoreMerge;

fn raw_scored(input: &SourceResult) -> Vec<(f64, &ResultDocument)> {
    input
        .results
        .documents
        .iter()
        .map(|d| (d.raw_score.unwrap_or(0.0), d))
        .collect()
}

impl Merger for RawScoreMerge {
    fn name(&self) -> &'static str {
        "raw-score"
    }

    fn merge(&self, inputs: &[SourceResult]) -> Vec<MergedDoc> {
        let mut scored = Vec::new();
        for input in inputs {
            for (s, d) in raw_scored(input) {
                scored.push((s, d, source_id(input)));
            }
        }
        collect(scored)
    }

    fn merge_top_k(&self, inputs: &[SourceResult], k: usize) -> (Vec<MergedDoc>, MergeStats) {
        let scored: Vec<_> = inputs.iter().map(raw_scored).collect();
        bounded_merge(inputs, &scored, k).unwrap_or_else(|| full_merge_top_k(self, inputs, k))
    }
}

/// Range normalization: map each source's scores into \[0,1\] using its
/// exported `ScoreRange` (the first thing the metadata makes possible).
/// Unbounded ranges fall back to per-result max normalization.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizedMerge;

fn normalized_scored(input: &SourceResult) -> Vec<(f64, &ResultDocument)> {
    let (min, max) = input.metadata.score_range;
    let observed_max = input
        .results
        .documents
        .iter()
        .filter_map(|d| d.raw_score)
        .fold(0.0_f64, f64::max);
    let (lo, hi) = if min.is_finite() && max.is_finite() && max > min {
        (min, max)
    } else {
        (0.0, observed_max.max(1e-12))
    };
    input
        .results
        .documents
        .iter()
        .map(|d| {
            let raw = d.raw_score.unwrap_or(lo);
            (((raw - lo) / (hi - lo)).clamp(0.0, 1.0), d)
        })
        .collect()
}

impl Merger for NormalizedMerge {
    fn name(&self) -> &'static str {
        "range-normalized"
    }

    fn merge(&self, inputs: &[SourceResult]) -> Vec<MergedDoc> {
        let mut scored = Vec::new();
        for input in inputs {
            for (s, d) in normalized_scored(input) {
                scored.push((s, d, source_id(input)));
            }
        }
        collect(scored)
    }

    fn merge_top_k(&self, inputs: &[SourceResult], k: usize) -> (Vec<MergedDoc>, MergeStats) {
        let scored: Vec<_> = inputs.iter().map(normalized_scored).collect();
        bounded_merge(inputs, &scored, k).unwrap_or_else(|| full_merge_top_k(self, inputs, k))
    }
}

/// Round-robin interleaving: take the best remaining document from each
/// source in turn (Voorhees et al.'s collection-fusion baseline,
/// ref \[6\]). Scores are synthetic (descending by merge position).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinMerge;

impl Merger for RoundRobinMerge {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn merge(&self, inputs: &[SourceResult]) -> Vec<MergedDoc> {
        let mut cursors: Vec<(usize, &SourceResult)> = inputs.iter().map(|i| (0, i)).collect();
        let total: usize = inputs.iter().map(|i| i.results.documents.len()).sum();
        let mut out: Vec<MergedDoc> = Vec::with_capacity(total);
        let mut seen: HashMap<String, usize> = HashMap::new();
        let mut rank = 0usize;
        loop {
            let mut progressed = false;
            for (cursor, input) in cursors.iter_mut() {
                if *cursor >= input.results.documents.len() {
                    continue;
                }
                let d = &input.results.documents[*cursor];
                *cursor += 1;
                progressed = true;
                let Some(url) = d.linkage() else { continue };
                match seen.get(url) {
                    Some(&i) => {
                        let sid = source_id(input).to_string();
                        if !out[i].sources.contains(&sid) {
                            out[i].sources.push(sid);
                        }
                    }
                    None => {
                        seen.insert(url.to_string(), out.len());
                        out.push(MergedDoc {
                            linkage: url.to_string(),
                            title: doc_title(d),
                            score: total as f64 - rank as f64,
                            sources: vec![source_id(input).to_string()],
                        });
                        rank += 1;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        out
    }
}

/// Example 9's re-ranking: "discard the sources' scores, and compute a
/// new score for each document based on … the number of times that the
/// words in the ranking expression appear in the documents" — from the
/// `TermStats` the protocol requires, without retrieving any document.
#[derive(Debug, Clone, Copy, Default)]
pub struct TfMerge;

impl Merger for TfMerge {
    fn name(&self) -> &'static str {
        "termstats-tf"
    }

    fn merge(&self, inputs: &[SourceResult]) -> Vec<MergedDoc> {
        let mut scored = Vec::new();
        for input in inputs {
            for d in &input.results.documents {
                let tf_sum: f64 = d
                    .term_stats
                    .iter()
                    .map(|ts| f64::from(ts.term_frequency))
                    .sum();
                scored.push((tf_sum, d, source_id(input)));
            }
        }
        collect(scored)
    }
}

/// Global tf–idf re-ranking: score documents "as if they all belonged in
/// a single, large document source" (§4.2). Global document frequencies
/// come from summing each source's exported `Document-frequency`
/// statistics; global N is the summed collection size. Document length
/// normalization uses `DocCount`.
#[derive(Debug, Clone)]
pub struct TfIdfMerge {
    /// Global document frequency per term text (assembled by the caller
    /// from TermStats or content summaries).
    pub global_df: HashMap<String, u64>,
    /// Global number of documents.
    pub global_n: u64,
}

impl TfIdfMerge {
    /// Assemble global statistics from the inputs' own TermStats
    /// (df summed over sources) plus the total document counts.
    pub fn from_inputs(inputs: &[SourceResult], collection_sizes: &[u64]) -> Self {
        let mut global_df: HashMap<String, u64> = HashMap::new();
        for input in inputs {
            let mut seen_here: HashMap<&str, u64> = HashMap::new();
            for d in &input.results.documents {
                for ts in &d.term_stats {
                    // df is a per-source constant; record it once.
                    seen_here
                        .entry(ts.term.value.text.as_str())
                        .or_insert(u64::from(ts.document_frequency));
                }
            }
            for (term, df) in seen_here {
                *global_df.entry(term.to_string()).or_insert(0) += df;
            }
        }
        TfIdfMerge {
            global_df,
            global_n: collection_sizes.iter().sum::<u64>().max(1),
        }
    }
}

impl Merger for TfIdfMerge {
    fn name(&self) -> &'static str {
        "termstats-tfidf"
    }

    fn merge(&self, inputs: &[SourceResult]) -> Vec<MergedDoc> {
        let mut scored = Vec::new();
        for input in inputs {
            for d in &input.results.documents {
                let mut score = 0.0;
                for ts in &d.term_stats {
                    if ts.term_frequency == 0 {
                        continue;
                    }
                    let df = self
                        .global_df
                        .get(&ts.term.value.text)
                        .copied()
                        .unwrap_or(u64::from(ts.document_frequency).max(1));
                    let tf = 1.0 + f64::from(ts.term_frequency).ln();
                    let idf = (1.0 + self.global_n as f64 / df.max(1) as f64).ln();
                    score += tf * idf;
                }
                // Light length normalization so long documents do not
                // dominate purely by containing everything.
                let len = (d.doc_count as f64).max(1.0);
                scored.push((
                    score / len.sqrt().max(1.0).ln().max(1.0),
                    d,
                    source_id(input),
                ));
            }
        }
        collect(scored)
    }
}

/// CORI-style weighted merge (ref \[5\]): range-normalize per source, then
/// scale by the source's selection belief (`source_weight`), so
/// documents from more promising collections rank higher on ties.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedMerge;

impl Merger for WeightedMerge {
    fn name(&self) -> &'static str {
        "belief-weighted"
    }

    fn merge(&self, inputs: &[SourceResult]) -> Vec<MergedDoc> {
        let normalized = NormalizedMerge;
        // Reuse range normalization per source, then scale.
        let mut scored = Vec::new();
        for input in inputs {
            for d in normalized.merge(std::slice::from_ref(input)) {
                scored.push((d.score * input.source_weight, d));
            }
        }
        let mut out: HashMap<String, MergedDoc> = HashMap::new();
        for (score, mut d) in scored {
            d.score = score;
            match out.get_mut(&d.linkage) {
                Some(existing) => {
                    if d.score > existing.score {
                        existing.score = d.score;
                    }
                    for s in d.sources {
                        if !existing.sources.contains(&s) {
                            existing.sources.push(s);
                        }
                    }
                }
                None => {
                    out.insert(d.linkage.clone(), d);
                }
            }
        }
        let mut v: Vec<MergedDoc> = out.into_values().collect();
        v.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.linkage.cmp(&b.linkage)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_proto::query::ast::QTerm;
    use starts_proto::{Field, TermStatsEntry};

    fn doc(url: &str, score: f64, stats: &[(&str, u32, u32)]) -> ResultDocument {
        ResultDocument {
            raw_score: Some(score),
            sources: vec![],
            fields: vec![
                (Field::Linkage, url.to_string()),
                (Field::Title, format!("Title of {url}")),
            ],
            term_stats: stats
                .iter()
                .map(|(t, tf, df)| TermStatsEntry {
                    term: QTerm::fielded(Field::BodyOfText, *t),
                    term_frequency: *tf,
                    term_weight: 0.0,
                    document_frequency: *df,
                })
                .collect(),
            doc_size_kb: 1,
            doc_count: 100,
        }
    }

    fn input(id: &str, range: (f64, f64), docs: Vec<ResultDocument>) -> SourceResult {
        SourceResult {
            metadata: SourceMetadata {
                source_id: id.to_string(),
                score_range: range,
                ..SourceMetadata::default()
            }
            .into(),
            results: QueryResults {
                sources: vec![id.to_string()],
                actual_filter: None,
                actual_ranking: None,
                documents: docs,
                profile: None,
            },
            source_weight: 1.0,
        }
    }

    /// The paper's own scenario: S1 reports 0.3, S2 reports 1000 for the
    /// same query (§3.2).
    fn paper_scenario() -> Vec<SourceResult> {
        vec![
            // Example 8: doc at S1, score 0.82, tf 10+15.
            input(
                "Source-1",
                (0.0, 1.0),
                vec![doc(
                    "http://x/dood",
                    0.82,
                    &[("distributed", 10, 190), ("databases", 15, 232)],
                )],
            ),
            // Example 9: doc at S2, score 0.27, tf 20+34 — the BETTER
            // match despite the lower raw score.
            input(
                "Source-2",
                (0.0, 1.0),
                vec![doc(
                    "http://x/lagunita",
                    0.27,
                    &[("distributed", 20, 901), ("databases", 34, 788)],
                )],
            ),
        ]
    }

    #[test]
    fn raw_score_merge_is_fooled() {
        let merged = RawScoreMerge.merge(&paper_scenario());
        assert_eq!(merged[0].linkage, "http://x/dood");
    }

    #[test]
    fn example9_tf_merge_reverses_the_rank() {
        // "such a metasearcher would rank the Source-2 document higher
        // than the Source-1 document, since the former … contains the
        // words 20 and 34 times … whereas the latter only 10 and 15."
        let merged = TfMerge.merge(&paper_scenario());
        assert_eq!(merged[0].linkage, "http://x/lagunita");
        assert_eq!(merged[0].score, 54.0);
        assert_eq!(merged[1].score, 25.0);
    }

    #[test]
    fn normalized_merge_handles_vendor_scales() {
        // A 1000-scale vendor vs a [0,1] vendor: raw merge puts every
        // vendor document first; normalization repairs it.
        let inputs = vec![
            input("Unit", (0.0, 1.0), vec![doc("u/best", 0.9, &[])]),
            input(
                "Grand",
                (0.0, 1000.0),
                vec![doc("g/meh", 150.0, &[]), doc("g/good", 800.0, &[])],
            ),
        ];
        let raw = RawScoreMerge.merge(&inputs);
        assert_eq!(raw[0].linkage, "g/good");
        assert_eq!(raw[1].linkage, "g/meh"); // 150 > 0.9: nonsense
        let norm = NormalizedMerge.merge(&inputs);
        assert_eq!(norm[0].linkage, "u/best"); // 0.9 > 0.8
        assert_eq!(norm[1].linkage, "g/good");
        assert_eq!(norm[2].linkage, "g/meh");
    }

    #[test]
    fn normalized_merge_with_unbounded_range() {
        let inputs = vec![input(
            "BM25",
            (0.0, f64::INFINITY),
            vec![doc("a", 7.5, &[]), doc("b", 2.5, &[])],
        )];
        let merged = NormalizedMerge.merge(&inputs);
        assert!((merged[0].score - 1.0).abs() < 1e-9); // max-normalized
        assert!((merged[1].score - 2.5 / 7.5).abs() < 1e-9);
    }

    #[test]
    fn round_robin_interleaves() {
        let inputs = vec![
            input(
                "A",
                (0.0, 1.0),
                vec![doc("a1", 0.9, &[]), doc("a2", 0.8, &[])],
            ),
            input(
                "B",
                (0.0, 1.0),
                vec![doc("b1", 0.9, &[]), doc("b2", 0.8, &[])],
            ),
        ];
        let merged = RoundRobinMerge.merge(&inputs);
        let urls: Vec<&str> = merged.iter().map(|d| d.linkage.as_str()).collect();
        assert_eq!(urls, vec!["a1", "b1", "a2", "b2"]);
        // Scores strictly decrease.
        for w in merged.windows(2) {
            assert!(w[0].score > w[1].score);
        }
    }

    #[test]
    fn duplicates_deduplicated_across_sources() {
        let inputs = vec![
            input("A", (0.0, 1.0), vec![doc("shared", 0.5, &[])]),
            input("B", (0.0, 1.0), vec![doc("shared", 0.8, &[])]),
        ];
        for merger in [&RawScoreMerge as &dyn Merger, &NormalizedMerge, &TfMerge] {
            let merged = merger.merge(&inputs);
            assert_eq!(merged.len(), 1, "{} failed dedup", merger.name());
            assert_eq!(merged[0].sources.len(), 2);
        }
        let rr = RoundRobinMerge.merge(&inputs);
        assert_eq!(rr.len(), 1);
        assert_eq!(rr[0].sources.len(), 2);
    }

    #[test]
    fn tfidf_merge_uses_global_df() {
        let inputs = paper_scenario();
        let merger = TfIdfMerge::from_inputs(&inputs, &[1000, 2000]);
        // Global df assembled: distributed 190+901, databases 232+788.
        assert_eq!(merger.global_df["distributed"], 1091);
        assert_eq!(merger.global_df["databases"], 1020);
        assert_eq!(merger.global_n, 3000);
        let merged = merger.merge(&inputs);
        assert_eq!(merged[0].linkage, "http://x/lagunita");
    }

    #[test]
    fn weighted_merge_respects_source_belief() {
        let mut inputs = vec![
            input("Trusted", (0.0, 1.0), vec![doc("t", 0.6, &[])]),
            input("Dubious", (0.0, 1.0), vec![doc("d", 0.8, &[])]),
        ];
        inputs[0].source_weight = 1.0;
        inputs[1].source_weight = 0.5;
        let merged = WeightedMerge.merge(&inputs);
        // 0.6×1.0 > 0.8×0.5.
        assert_eq!(merged[0].linkage, "t");
    }

    #[test]
    fn empty_inputs() {
        for merger in [
            &RawScoreMerge as &dyn Merger,
            &NormalizedMerge,
            &TfMerge,
            &RoundRobinMerge,
        ] {
            assert!(merger.merge(&[]).is_empty(), "{}", merger.name());
        }
    }

    #[test]
    fn titles_carried_through() {
        let merged = RawScoreMerge.merge(&paper_scenario());
        assert_eq!(merged[0].title.as_deref(), Some("Title of http://x/dood"));
    }

    /// A messier fixture for the bounded merge: score ties within and
    /// across sources, cross-source duplicates, mixed scales.
    fn tied_inputs() -> Vec<SourceResult> {
        vec![
            input(
                "A",
                (0.0, 1.0),
                vec![
                    doc("u/zz", 0.9, &[]),
                    doc("u/aa", 0.9, &[]),
                    doc("u/shared", 0.5, &[]),
                    doc("u/low", 0.1, &[]),
                ],
            ),
            input(
                "B",
                (0.0, 1000.0),
                vec![
                    doc("u/shared", 900.0, &[]),
                    doc("u/mm", 900.0, &[]),
                    doc("u/aa", 500.0, &[]),
                ],
            ),
        ]
    }

    #[test]
    fn bounded_merge_equals_full_merge_truncated() {
        let inputs = tied_inputs();
        for merger in [&RawScoreMerge as &dyn Merger, &NormalizedMerge] {
            let full = merger.merge(&inputs);
            for k in 0..=full.len() + 1 {
                let (bounded, stats) = merger.merge_top_k(&inputs, k);
                assert_eq!(
                    bounded,
                    full[..k.min(full.len())],
                    "{} k={k}",
                    merger.name()
                );
                assert_eq!(stats.candidates, 7, "{}", merger.name());
                assert_eq!(stats.distinct, 5, "{}", merger.name());
                assert_eq!(stats.duplicates(), 2, "{}", merger.name());
            }
        }
    }

    #[test]
    fn bounded_merge_falls_back_on_unsorted_input() {
        // Ascending raw scores: not a ranked list, so the bounded path
        // must detect it and fall back to the exact full merge.
        let inputs = vec![input(
            "A",
            (0.0, 1.0),
            vec![doc("u/a", 0.1, &[]), doc("u/b", 0.9, &[])],
        )];
        let full = RawScoreMerge.merge(&inputs);
        let (bounded, stats) = RawScoreMerge.merge_top_k(&inputs, 1);
        assert_eq!(bounded, full[..1]);
        assert_eq!((stats.candidates, stats.distinct), (2, 2));
    }

    #[test]
    fn default_merge_top_k_truncates_any_strategy() {
        let inputs = tied_inputs();
        for merger in [&TfMerge as &dyn Merger, &RoundRobinMerge, &WeightedMerge] {
            let full = merger.merge(&inputs);
            let (bounded, stats) = merger.merge_top_k(&inputs, 2);
            assert_eq!(bounded, full[..2], "{}", merger.name());
            assert_eq!(stats.candidates, 7, "{}", merger.name());
        }
    }
}
