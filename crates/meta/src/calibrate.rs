//! Black-box score calibration from `SampleDatabaseResults` (§4.2).
//!
//! "The metasearchers would treat each source as a 'black box' that
//! receives queries and produces document ranks. However, the
//! metasearchers would try to approximate how each source ranks
//! documents using their knowledge of what is in the sample collection.
//! So, if the sample queries are carefully designed, the metasearchers
//! might be able to draw some conclusions on how to calibrate the query
//! results in order to produce a single document rank."
//!
//! Implementation: every source publishes results of the same fixed
//! queries over the same fixed sample collection. Pairing two sources'
//! scores *for the same sample document under the same query* gives a
//! paired sample `(x_i, y_i)`; least-squares fitting `y ≈ α·x + β` gives
//! an affine map from one source's score scale into the other's.

use std::collections::HashMap;

use starts_proto::{Query, QueryResults};

/// An affine score map `y = alpha·x + beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreMap {
    /// Scale.
    pub alpha: f64,
    /// Offset.
    pub beta: f64,
    /// Number of paired observations behind the fit.
    pub n: usize,
    /// Pearson correlation of the paired scores (fit quality).
    pub correlation: f64,
}

impl ScoreMap {
    /// Identity map.
    pub fn identity() -> Self {
        ScoreMap {
            alpha: 1.0,
            beta: 0.0,
            n: 0,
            correlation: 1.0,
        }
    }

    /// Apply the map.
    pub fn apply(&self, score: f64) -> f64 {
        self.alpha * score + self.beta
    }
}

/// Collect `(query index, linkage) → score` pairs from sample results.
fn score_table(samples: &[(Query, QueryResults)]) -> HashMap<(usize, String), f64> {
    let mut table = HashMap::new();
    for (qi, (_, results)) in samples.iter().enumerate() {
        for d in &results.documents {
            if let (Some(url), Some(score)) = (d.linkage(), d.raw_score) {
                table.insert((qi, url.to_string()), score);
            }
        }
    }
    table
}

/// Fit a map from `from`'s score scale into `to`'s, using their sample
/// results. Returns `None` if fewer than two paired observations exist
/// or the `from` scores are constant.
pub fn fit_score_map(
    from: &[(Query, QueryResults)],
    to: &[(Query, QueryResults)],
) -> Option<ScoreMap> {
    let from_table = score_table(from);
    let to_table = score_table(to);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (key, x) in &from_table {
        if let Some(y) = to_table.get(key) {
            xs.push(*x);
            ys.push(*y);
        }
    }
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = xs.iter().sum::<f64>() / nf;
    let mean_y = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(&ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx <= 0.0 {
        return None;
    }
    let alpha = sxy / sxx;
    let beta = mean_y - alpha * mean_x;
    let correlation = if syy > 0.0 {
        sxy / (sxx * syy).sqrt()
    } else {
        1.0
    };
    Some(ScoreMap {
        alpha,
        beta,
        n,
        correlation,
    })
}

/// A merge strategy that maps every source's raw scores into a common
/// reference scale using sample-results score maps, then merges like
/// [`crate::merge::RawScoreMerge`] — calibration as a first-class
/// merger.
#[derive(Debug, Clone, Default)]
pub struct CalibratedMerge {
    /// Per-source affine maps into the reference scale.
    pub maps: std::collections::HashMap<String, ScoreMap>,
}

impl CalibratedMerge {
    /// Fit maps for every catalogued source against a reference source's
    /// sample results (conventionally the first entry with samples).
    /// Sources without samples, or without enough paired observations,
    /// get the identity map.
    pub fn from_catalog(catalog: &crate::catalog::Catalog) -> Self {
        let reference = catalog
            .entries
            .iter()
            .find(|e| !e.sample_results.is_empty())
            .map(|e| e.sample_results.clone())
            .unwrap_or_default();
        let mut maps = std::collections::HashMap::new();
        for entry in &catalog.entries {
            let map = if entry.sample_results.is_empty() || reference.is_empty() {
                ScoreMap::identity()
            } else {
                fit_score_map(&entry.sample_results, &reference).unwrap_or_else(ScoreMap::identity)
            };
            maps.insert(entry.id.clone(), map);
        }
        CalibratedMerge { maps }
    }
}

impl crate::merge::Merger for CalibratedMerge {
    fn name(&self) -> &'static str {
        "sample-calibrated"
    }

    fn merge(&self, inputs: &[crate::merge::SourceResult]) -> Vec<crate::merge::MergedDoc> {
        let calibrated: Vec<crate::merge::SourceResult> = inputs
            .iter()
            .map(|input| {
                let map = self
                    .maps
                    .get(&input.metadata.source_id)
                    .copied()
                    .unwrap_or_else(ScoreMap::identity);
                let mut input = input.clone();
                for d in &mut input.results.documents {
                    if let Some(s) = d.raw_score {
                        d.raw_score = Some(map.apply(s));
                    }
                }
                input
            })
            .collect();
        crate::merge::RawScoreMerge.merge(&calibrated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_source::sample::sample_results;
    use starts_source::SourceConfig;

    #[test]
    fn identity_between_identical_personalities() {
        let a = sample_results(&SourceConfig::new("A"));
        let b = sample_results(&SourceConfig::new("B"));
        let map = fit_score_map(&a, &b).expect("overlapping samples");
        assert!(map.n >= 4);
        assert!((map.alpha - 1.0).abs() < 1e-9, "alpha {}", map.alpha);
        assert!(map.beta.abs() < 1e-9, "beta {}", map.beta);
        assert!(map.correlation > 0.999);
    }

    #[test]
    fn vendor_1000_maps_back_to_unit_scale() {
        // The §3.2 pair: a [0,1] engine and a ×1000 engine. The sample
        // collection exposes the relationship.
        let unit = sample_results(&SourceConfig::new("Unit"));
        let mut grand_cfg = SourceConfig::new("Grand");
        grand_cfg.engine.ranking_id = "Vendor-K".to_string();
        let grand = sample_results(&grand_cfg);
        let map = fit_score_map(&grand, &unit).expect("paired docs");
        // Scores shrink by roughly three orders of magnitude.
        assert!(map.alpha < 0.01, "alpha {}", map.alpha);
        assert!(map.alpha > 0.0);
        assert!(map.correlation > 0.8, "correlation {}", map.correlation);
        // A calibrated 1000-score lands near the unit engine's top end.
        let mapped = map.apply(1000.0);
        assert!(
            (0.05..=1.5).contains(&mapped),
            "1000 mapped to {mapped} (alpha {}, beta {})",
            map.alpha,
            map.beta
        );
    }

    #[test]
    fn unrelated_rankers_have_lower_correlation_than_identical() {
        let unit = sample_results(&SourceConfig::new("Unit"));
        let mut bm = SourceConfig::new("BM");
        bm.engine.ranking_id = "Okapi-1".to_string();
        let okapi = sample_results(&bm);
        let same = fit_score_map(&unit, &unit).unwrap();
        let cross = fit_score_map(&okapi, &unit).unwrap();
        assert!(same.correlation >= cross.correlation);
        assert!(cross.n >= 2);
    }

    #[test]
    fn too_little_overlap() {
        let a = sample_results(&SourceConfig::new("A"));
        assert!(fit_score_map(&a, &[]).is_none());
        assert!(fit_score_map(&[], &a).is_none());
    }

    #[test]
    fn calibrated_merge_tames_vendor_scales() {
        use crate::catalog::{Catalog, CatalogEntry};
        use crate::merge::{Merger, RawScoreMerge, SourceResult};
        use starts_net::LinkProfile;
        use starts_proto::summary::{ContentSummary, IndexedSummary};
        use starts_proto::{Field, QueryResults, ResultDocument, SourceMetadata};

        let unit_cfg = SourceConfig::new("Unit");
        let mut grand_cfg = SourceConfig::new("Grand");
        grand_cfg.engine.ranking_id = "Vendor-K".to_string();
        let entry = |cfg: &SourceConfig| CatalogEntry {
            id: cfg.id.clone(),
            metadata_url: String::new(),
            metadata: SourceMetadata {
                source_id: cfg.id.clone(),
                ..SourceMetadata::default()
            }
            .into(),
            summary: IndexedSummary::new(ContentSummary::default()).into(),
            sample_results: sample_results(cfg),
            link: LinkProfile::default(),
        };
        let catalog = Catalog {
            entries: vec![entry(&unit_cfg), entry(&grand_cfg)],
        };
        let merger = CalibratedMerge::from_catalog(&catalog);
        // The Vendor-K map shrinks by ~1000x; Unit is identity.
        assert!((merger.maps["Unit"].alpha - 1.0).abs() < 1e-9);
        assert!(merger.maps["Grand"].alpha < 0.01);
        // A mediocre Grand document (score 300/1000) must NOT outrank a
        // strong Unit document (score 0.4) after calibration.
        let doc = |url: &str, score: f64| ResultDocument {
            raw_score: Some(score),
            sources: vec![],
            fields: vec![(Field::Linkage, url.to_string())],
            term_stats: vec![],
            doc_size_kb: 1,
            doc_count: 10,
        };
        let inputs = vec![
            SourceResult {
                metadata: SourceMetadata {
                    source_id: "Unit".to_string(),
                    ..SourceMetadata::default()
                }
                .into(),
                results: QueryResults {
                    documents: vec![doc("u/strong", 0.4)],
                    ..QueryResults::default()
                },
                source_weight: 1.0,
            },
            SourceResult {
                metadata: SourceMetadata {
                    source_id: "Grand".to_string(),
                    ..SourceMetadata::default()
                }
                .into(),
                results: QueryResults {
                    documents: vec![doc("g/meh", 300.0)],
                    ..QueryResults::default()
                },
                source_weight: 1.0,
            },
        ];
        let raw = RawScoreMerge.merge(&inputs);
        assert_eq!(raw[0].linkage, "g/meh"); // 300 > 0.4: the §3.2 trap
        let cal = merger.merge(&inputs);
        assert_eq!(cal[0].linkage, "u/strong", "calibration must fix the order");
    }

    #[test]
    fn calibrated_merge_without_samples_is_raw() {
        use crate::catalog::Catalog;
        let merger = CalibratedMerge::from_catalog(&Catalog::default());
        assert!(merger.maps.is_empty());
    }

    #[test]
    fn apply_and_identity() {
        let id = ScoreMap::identity();
        assert_eq!(id.apply(0.73), 0.73);
        let m = ScoreMap {
            alpha: 0.001,
            beta: 0.0,
            n: 10,
            correlation: 1.0,
        };
        assert!((m.apply(1000.0) - 1.0).abs() < 1e-12);
    }
}
