//! Source selection: "choosing the best sources to evaluate a query"
//! (§1), using the exported content summaries (§3.3, §4.3.2).
//!
//! The paper delegates the algorithms to its references: GlOSS \[7\] for
//! Boolean queries, gGlOSS \[8\] for vector-space queries; CORI-style
//! collection ranking comes from Callan et al. \[5\]. All are implemented
//! here over exactly the data a STARTS summary provides (per-term
//! document frequencies and the collection size), plus cost-aware and
//! naive baselines for the X6 experiment.

use starts_proto::summary::IndexedSummary;

use crate::catalog::{Catalog, CatalogEntry};

/// A selection strategy: scores every catalogued source for a query
/// (higher = more promising). Queries are presented as bags of
/// `(field, term)` pairs — the shape of both filter and ranking terms
/// after normalization.
pub trait Selector: Send + Sync {
    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// Score one source. `terms` are `(field, word)` pairs.
    fn score_source(
        &self,
        entry: &CatalogEntry,
        catalog: &Catalog,
        terms: &[(Option<&str>, &str)],
    ) -> f64;

    /// Rank all sources, best first. Sources scoring 0 are kept (they
    /// rank last) so callers can still force coverage.
    fn rank(&self, catalog: &Catalog, terms: &[(Option<&str>, &str)]) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> = catalog
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (i, self.score_source(e, catalog, terms)))
            .collect();
        scored.sort_by(|a, b| descending(a.1, b.1).then(a.0.cmp(&b.0)));
        scored
    }

    /// Whether [`Self::rank`] reads only the catalog and the terms, so
    /// that over one catalog the same query always ranks the same way.
    /// A server that holds its catalog fixed can then answer a repeated
    /// query from its result cache without selecting again. `false`
    /// unless a selector overrides it: one that also reads state of its
    /// own (a health board, learned history) must keep the default.
    fn ranks_from_catalog(&self) -> bool {
        false
    }
}

/// bGlOSS (Gravano, García-Molina, Tomasic 1994 — ref \[7\]): estimate the
/// number of documents matching a conjunctive query under the term
/// independence assumption:
///
/// `est(s, q) = n_s · Π_t (df_t(s) / n_s)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BGloss;

impl Selector for BGloss {
    fn name(&self) -> &'static str {
        "bGlOSS"
    }

    fn ranks_from_catalog(&self) -> bool {
        true
    }

    fn score_source(
        &self,
        entry: &CatalogEntry,
        _catalog: &Catalog,
        terms: &[(Option<&str>, &str)],
    ) -> f64 {
        let n = f64::from(entry.summary.num_docs);
        if n == 0.0 || terms.is_empty() {
            return 0.0;
        }
        let mut est = n;
        for (field, term) in terms {
            est *= f64::from(summary_df(&entry.summary, *field, term)) / n;
        }
        est
    }
}

/// gGlOSS (Gravano & García-Molina 1995 — ref \[8\]), `Sum(0)` flavour:
/// the goodness of a source is the summed within-source weight mass of
/// the query terms. With the statistics a STARTS summary exports, the
/// per-term mass is `df_t(s) · idf_t(s)` with
/// `idf_t(s) = ln(1 + n_s/df_t(s))`, weighted by the query.
#[derive(Debug, Clone, Copy, Default)]
pub struct GGlossSum;

impl Selector for GGlossSum {
    fn name(&self) -> &'static str {
        "gGlOSS-Sum"
    }

    fn ranks_from_catalog(&self) -> bool {
        true
    }

    fn score_source(
        &self,
        entry: &CatalogEntry,
        _catalog: &Catalog,
        terms: &[(Option<&str>, &str)],
    ) -> f64 {
        let n = f64::from(entry.summary.num_docs);
        if n == 0.0 {
            return 0.0;
        }
        terms
            .iter()
            .map(|(field, term)| {
                let df = f64::from(summary_df(&entry.summary, *field, term));
                if df == 0.0 {
                    0.0
                } else {
                    df * (1.0 + n / df).ln()
                }
            })
            .sum()
    }
}

/// CORI collection ranking (Callan, Lu & Croft 1995 — ref \[5\]): a belief
/// per source,
///
/// `T = df / (df + 50 + 150·cw/avg_cw)`,
/// `I = ln((|C| + 0.5)/cf) / ln(|C| + 1)`,
/// `belief = mean_t (b + (1-b)·T·I)` with `b = 0.4`,
///
/// where `cf` is the number of collections containing the term and `cw`
/// a collection-size proxy (document count, from the summaries).
#[derive(Debug, Clone, Copy)]
pub struct Cori {
    /// The default belief.
    pub b: f64,
}

impl Default for Cori {
    fn default() -> Self {
        Cori { b: 0.4 }
    }
}

impl Selector for Cori {
    fn name(&self) -> &'static str {
        "CORI"
    }

    fn ranks_from_catalog(&self) -> bool {
        true
    }

    fn score_source(
        &self,
        entry: &CatalogEntry,
        catalog: &Catalog,
        terms: &[(Option<&str>, &str)],
    ) -> f64 {
        if terms.is_empty() {
            return 0.0;
        }
        let n_collections = catalog.len() as f64;
        let avg_cw = (catalog.total_docs() as f64 / n_collections.max(1.0)).max(1.0);
        let cw = f64::from(entry.summary.num_docs);
        let mut belief = 0.0;
        for (field, term) in terms {
            let df = f64::from(summary_df(&entry.summary, *field, term));
            let cf = catalog
                .entries
                .iter()
                .filter(|e| summary_df(&e.summary, *field, term) > 0)
                .count() as f64;
            let t = df / (df + 50.0 + 150.0 * cw / avg_cw);
            let i = if cf > 0.0 {
                ((n_collections + 0.5) / cf).ln() / (n_collections + 1.0).ln()
            } else {
                0.0
            };
            belief += self.b + (1.0 - self.b) * t * i;
        }
        belief / terms.len() as f64
    }
}

/// Naive baseline: prefer bigger sources, regardless of the query (what
/// a metasearcher without summaries is reduced to).
#[derive(Debug, Clone, Copy, Default)]
pub struct BySize;

impl Selector for BySize {
    fn name(&self) -> &'static str {
        "by-size"
    }

    fn ranks_from_catalog(&self) -> bool {
        true
    }

    fn score_source(
        &self,
        entry: &CatalogEntry,
        _catalog: &Catalog,
        _terms: &[(Option<&str>, &str)],
    ) -> f64 {
        f64::from(entry.summary.num_docs)
    }
}

/// Cost-aware wrapper (§3.3: fees and response times matter): divides an
/// inner selector's goodness by a cost proxy
/// `1 + λ·latency_s + μ·fee`.
pub struct CostAware<S> {
    /// The goodness estimator.
    pub inner: S,
    /// Weight of latency (per second).
    pub lambda: f64,
    /// Weight of monetary cost (per unit fee).
    pub mu: f64,
}

impl<S: Selector> Selector for CostAware<S> {
    fn name(&self) -> &'static str {
        "cost-aware"
    }

    fn ranks_from_catalog(&self) -> bool {
        self.inner.ranks_from_catalog()
    }

    fn score_source(
        &self,
        entry: &CatalogEntry,
        catalog: &Catalog,
        terms: &[(Option<&str>, &str)],
    ) -> f64 {
        let goodness = self.inner.score_source(entry, catalog, terms);
        let cost = 1.0
            + self.lambda * f64::from(entry.link.latency_ms) / 1000.0
            + self.mu * entry.link.cost_per_query;
        goodness / cost
    }
}

/// Health-aware wrapper (§3.3: sources come and go, and responsiveness
/// varies): multiplies an inner selector's goodness by the source's
/// rolling health score from the [`starts_obs::HealthBoard`] the metasearcher
/// maintains — a degraded source still gets `floor` of its goodness, so
/// it keeps receiving occasional probes and can recover.
///
/// The board is the only judge of a source here: alerts from a
/// [`starts_obs::Monitor`] are for operators and never move the order.
/// A source whose recent exchanges all failed already scores near zero,
/// which the floor turns into the probe trickle that lets it return as
/// soon as its window clears.
///
/// Its ranking moves with the board, not only with the catalog, so it
/// keeps [`Selector::ranks_from_catalog`]'s `false`.
pub struct HealthAware<S> {
    /// The goodness estimator.
    pub inner: S,
    /// The scoreboard to consult (share the metasearcher's via `Arc`).
    pub board: std::sync::Arc<starts_obs::HealthBoard>,
    /// Minimum health multiplier in `(0, 1]`; keeps degraded sources
    /// probe-able instead of starving them forever.
    pub floor: f64,
}

impl<S: Selector> HealthAware<S> {
    /// Wrap a selector with the default probe floor (0.01).
    pub fn new(inner: S, board: std::sync::Arc<starts_obs::HealthBoard>) -> Self {
        HealthAware {
            inner,
            board,
            floor: 0.01,
        }
    }
}

impl<S: Selector> Selector for HealthAware<S> {
    fn name(&self) -> &'static str {
        "health-aware"
    }

    fn score_source(
        &self,
        entry: &CatalogEntry,
        catalog: &Catalog,
        terms: &[(Option<&str>, &str)],
    ) -> f64 {
        let goodness = self.inner.score_source(entry, catalog, terms);
        goodness * self.board.score(&entry.id).max(self.floor)
    }
}

/// Best-first order on scores, total: numbers compare as `partial_cmp`
/// has them (so `0.0` and `-0.0` tie) and NaN — which a wrapping
/// selector can produce from an arbitrary inner score — ranks below
/// every number and ties with itself.
fn descending(a: f64, b: f64) -> std::cmp::Ordering {
    b.partial_cmp(&a)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Estimate df for a term in a summary regardless of stemming mismatch:
/// if the summary is stemmed, look up the stem.
pub fn summary_df(summary: &IndexedSummary, field: Option<&str>, term: &str) -> u32 {
    if summary.stemmed {
        summary.df(field, &starts_text::porter_stem(term))
    } else {
        summary.df(field, term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_net::LinkProfile;
    use starts_proto::summary::{ContentSummary, SummarySection, TermSummary};
    use starts_proto::SourceMetadata;

    fn entry(id: &str, num_docs: u32, terms: &[(&str, u32)], link: LinkProfile) -> CatalogEntry {
        CatalogEntry {
            id: id.to_string(),
            metadata_url: String::new(),
            metadata: SourceMetadata {
                source_id: id.to_string(),
                ..SourceMetadata::default()
            }
            .into(),
            summary: IndexedSummary::new(ContentSummary {
                num_docs,
                sections: vec![SummarySection {
                    field: None,
                    language: None,
                    terms: terms
                        .iter()
                        .map(|(t, df)| TermSummary {
                            term: (*t).to_string(),
                            total_postings: Some(u64::from(*df) * 2),
                            doc_freq: Some(*df),
                        })
                        .collect(),
                }],
                ..ContentSummary::default()
            })
            .into(),
            sample_results: Vec::new(),
            link,
        }
    }

    fn catalog() -> Catalog {
        Catalog {
            entries: vec![
                // CS source: "databases" very common.
                entry(
                    "CS",
                    1000,
                    &[("databases", 800), ("distributed", 300), ("cooking", 1)],
                    LinkProfile::default(),
                ),
                // Cooking source: "databases" rare.
                entry(
                    "Food",
                    1000,
                    &[("databases", 5), ("cooking", 700)],
                    LinkProfile::default(),
                ),
                // Small mixed source.
                entry(
                    "Tiny",
                    50,
                    &[("databases", 10), ("distributed", 10)],
                    LinkProfile {
                        latency_ms: 10,
                        cost_per_query: 0.0,
                    },
                ),
            ],
        }
    }

    #[test]
    fn bgloss_estimates_conjunction_size() {
        let c = catalog();
        let terms = [(None, "databases"), (None, "distributed")];
        let s = BGloss;
        let cs = s.score_source(&c.entries[0], &c, &terms);
        // 1000 · (800/1000) · (300/1000) = 240.
        assert!((cs - 240.0).abs() < 1e-9);
        let food = s.score_source(&c.entries[1], &c, &terms);
        assert_eq!(food, 0.0); // no "distributed" at all
        let ranked = s.rank(&c, &terms);
        assert_eq!(ranked[0].0, 0, "CS source must rank first");
    }

    #[test]
    fn ggloss_prefers_topic_source() {
        let c = catalog();
        let s = GGlossSum;
        let db = s.rank(&c, &[(None, "databases")]);
        assert_eq!(db[0].0, 0);
        let cook = s.rank(&c, &[(None, "cooking")]);
        assert_eq!(cook[0].0, 1);
    }

    #[test]
    fn cori_discriminates_and_stays_bounded() {
        let c = catalog();
        let s = Cori::default();
        let terms = [(None, "cooking")];
        let food = s.score_source(&c.entries[1], &c, &terms);
        let cs = s.score_source(&c.entries[0], &c, &terms);
        assert!(food > cs, "{food} vs {cs}");
        for e in &c.entries {
            let v = s.score_source(e, &c, &terms);
            assert!((0.0..=1.0).contains(&v), "belief out of range: {v}");
        }
    }

    #[test]
    fn by_size_ignores_query() {
        let c = catalog();
        let s = BySize;
        let a = s.rank(&c, &[(None, "databases")]);
        let b = s.rank(&c, &[(None, "cooking")]);
        assert_eq!(a, b);
        assert_ne!(a[0].0, 2, "tiny source must not lead");
    }

    #[test]
    fn cost_aware_demotes_expensive_sources() {
        let mut c = catalog();
        // Make the CS source expensive and slow (a Dialog-like service).
        c.entries[0].link = LinkProfile {
            latency_ms: 2000,
            cost_per_query: 10.0,
        };
        let plain = GGlossSum;
        let costed = CostAware {
            inner: GGlossSum,
            lambda: 1.0,
            mu: 10.0,
        };
        let terms = [(None, "databases")];
        assert_eq!(plain.rank(&c, &terms)[0].0, 0);
        // Under cost-awareness the free Tiny source can win despite fewer
        // matching documents.
        let ranked = costed.rank(&c, &terms);
        assert_ne!(ranked[0].0, 0, "expensive source still first: {ranked:?}");
    }

    #[test]
    fn health_aware_demotes_flaky_sources_but_keeps_probing() {
        use starts_obs::{HealthBoard, SourceOutcome};
        let c = catalog();
        let board = std::sync::Arc::new(HealthBoard::default());
        let plain = GGlossSum;
        let healthy = HealthAware::new(GGlossSum, std::sync::Arc::clone(&board));
        let terms = [(None, "databases")];
        let unseen = healthy.rank(&c, &terms);
        // CS keeps failing; Food answers fast.
        for _ in 0..20 {
            board.record("CS", SourceOutcome::failed());
            board.record("Food", SourceOutcome::ok(20));
        }
        // Plain ranking prefers CS (it has the term mass)…
        assert_eq!(plain.rank(&c, &terms)[0].0, 0);
        assert_eq!(unseen[0].0, 0, "a board with no history moves nothing");
        // …health-awareness flips it to the reliable source: the same
        // catalog and terms rank differently once the board has moved,
        // which is why `HealthAware` may not claim to rank from the
        // catalog alone.
        let ranked = healthy.rank(&c, &terms);
        assert_ne!(ranked[0].0, 0, "dead source still first: {ranked:?}");
        // But the floor keeps the flaky source scoreable (probe-able).
        let cs = healthy.score_source(&c.entries[0], &c, &terms);
        assert!(cs > 0.0, "floored score must stay positive");
        // Unseen sources are not penalized at all.
        let tiny_plain = plain.score_source(&c.entries[2], &c, &terms);
        let tiny_healthy = healthy.score_source(&c.entries[2], &c, &terms);
        assert!((tiny_plain - tiny_healthy).abs() < 1e-12);
    }

    #[test]
    fn only_selectors_that_read_the_catalog_alone_say_so() {
        let board = std::sync::Arc::new(starts_obs::HealthBoard::default());
        fn costed<S: Selector>(inner: S) -> CostAware<S> {
            CostAware {
                inner,
                lambda: 1.0,
                mu: 1.0,
            }
        }
        assert!(BGloss.ranks_from_catalog());
        assert!(GGlossSum.ranks_from_catalog());
        assert!(Cori::default().ranks_from_catalog());
        assert!(BySize.ranks_from_catalog());
        assert!(costed(GGlossSum).ranks_from_catalog());
        let healthy = || HealthAware::new(GGlossSum, std::sync::Arc::clone(&board));
        assert!(!healthy().ranks_from_catalog());
        assert!(!costed(healthy()).ranks_from_catalog());
        assert!(!NanFor(0).ranks_from_catalog(), "the default is `false`");
    }

    /// A selector whose inner score is NaN for one source — what a
    /// wrapper over an arbitrary estimator can hand `rank`.
    struct NanFor(usize);

    impl Selector for NanFor {
        fn name(&self) -> &'static str {
            "nan-for"
        }

        fn score_source(
            &self,
            entry: &CatalogEntry,
            catalog: &Catalog,
            terms: &[(Option<&str>, &str)],
        ) -> f64 {
            if catalog.entries[self.0].id == entry.id {
                f64::NAN
            } else {
                GGlossSum.score_source(entry, catalog, terms)
            }
        }
    }

    #[test]
    fn nan_scores_rank_last_and_move_nothing_else() {
        let mut c = catalog();
        // Enough sources that an inconsistent comparator would be
        // caught by `sort_by`, with ties and signed zeros among them.
        for i in 0..40 {
            c.entries.push(entry(
                &format!("S{i}"),
                100,
                &[("databases", [0, 7, 7, 30][i % 4])],
                LinkProfile::default(),
            ));
        }
        let terms = [(None, "databases")];
        let plain = GGlossSum.rank(&c, &terms);
        for poisoned in [0, 2, 17, c.len() - 1] {
            let ranked = NanFor(poisoned).rank(&c, &terms);
            assert_eq!(ranked.len(), c.len());
            let (last, score) = ranked[ranked.len() - 1];
            assert!(last == poisoned && score.is_nan(), "NaN must rank last");
            // Everyone else keeps the order (and scores) they had.
            let others: Vec<(usize, f64)> = plain
                .iter()
                .copied()
                .filter(|(i, _)| *i != poisoned)
                .collect();
            assert_eq!(&ranked[..ranked.len() - 1], &others[..]);
        }
        // Two NaNs tie and fall through to the index tie-break.
        assert_eq!(descending(f64::NAN, f64::NAN), std::cmp::Ordering::Equal);
        // Signed zeros still tie; numbers still order best-first.
        assert_eq!(descending(0.0, -0.0), std::cmp::Ordering::Equal);
        assert_eq!(descending(2.0, 1.0), std::cmp::Ordering::Less);
        assert_eq!(
            descending(f64::NEG_INFINITY, f64::NAN),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn empty_inputs() {
        let c = Catalog::default();
        assert!(BGloss.rank(&c, &[(None, "x")]).is_empty());
        let c = catalog();
        assert_eq!(BGloss.score_source(&c.entries[0], &c, &[]), 0.0);
    }

    #[test]
    fn stemmed_summary_lookup() {
        let mut summary = ContentSummary {
            stemmed: true,
            num_docs: 10,
            sections: vec![SummarySection {
                field: None,
                language: None,
                terms: vec![TermSummary {
                    term: "databas".to_string(), // the stem
                    total_postings: Some(4),
                    doc_freq: Some(3),
                }],
            }],
            ..ContentSummary::default()
        };
        let indexed = IndexedSummary::new(summary.clone());
        assert_eq!(summary_df(&indexed, None, "databases"), 3);
        summary.stemmed = false;
        let indexed = IndexedSummary::new(summary);
        assert_eq!(summary_df(&indexed, None, "databases"), 0);
    }
}
