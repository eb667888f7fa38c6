//! The perf-regression gate behind the `bench_diff` binary.
//!
//! Compares a freshly-generated bench JSON artifact against a
//! checked-in baseline (`BENCH_hotpath.json` / `BENCH_shard.json` /
//! `BENCH_prune.json`). The comparison is **provenance-aware**: raw
//! QPS numbers only mean something when both runs came from the same
//! kind of machine doing the same kind of run, so
//!
//! * when `machine_parallelism` and `smoke` match, every `qps` and
//!   `decode_mints_per_s` field (and `engine_speedup`, when present)
//!   must stay within a relative tolerance of the baseline — a
//!   throughput drop past the tolerance fails the gate;
//! * otherwise the gate degrades to **sanity checks** on the fresh run
//!   alone: every `qps` and `decode_mints_per_s` must be positive and
//!   `engine_speedup` must not dip below 1.
//!
//! What does not depend on the machine is gated in **both** modes:
//!
//! * the pruning invariants of the fresh run: rows marked
//!   `"prune": "Auto"` must actually prune (`pruned_fraction > 0`);
//!   monolithic (`"shards": 1`) Auto rows that report `blocks_skipped`
//!   must have jumped at least one whole block undecoded (sharding can
//!   shrink every posting list under the block size, so multi-shard
//!   rows are exempt); `"prune": "Off"` rows must report none skipped;
//!   and every ranked shape of the `filtered` workload must not run
//!   slower under `Auto` (the filter inside the pruned loop) than under
//!   `Off` (the filter drained, its whole set scored) by more than
//!   twice the tolerance;
//! * postings memory: whenever both artifacts carry byte counts under a
//!   `postings_bytes*` object, the fresh run may not grow any of them
//!   past [`MEM_GROWTH_TOLERANCE`] over the baseline — a memory-diet
//!   regression fails even on an incomparable machine.
//!
//! Latency percentiles are deliberately not gated — they are far
//! noisier than throughput on shared CI machines.

use crate::json::Json;

/// Relative QPS drop tolerated before the gate fails (same-provenance
/// mode). 0.15 means a fresh run may be up to 15% slower than the
/// baseline; an injected 20% regression fails.
pub const DEFAULT_QPS_TOLERANCE: f64 = 0.15;

/// Relative growth tolerated in any `postings_bytes*` figure before the
/// gate fails. Byte counts are deterministic per corpus, so the slack
/// only absorbs deliberate small format changes — a fresh run may not
/// grow a footprint past 10% over the baseline.
pub const MEM_GROWTH_TOLERANCE: f64 = 0.10;

/// One comparison (or invariant) the gate evaluated.
#[derive(Debug)]
pub struct Check {
    /// What was checked, e.g. `paths/engine_topk/qps`.
    pub name: String,
    /// Whether it passed.
    pub ok: bool,
    /// Human-readable numbers behind the verdict.
    pub detail: String,
}

/// The gate's full verdict for one baseline/current pair.
#[derive(Debug)]
pub struct DiffReport {
    /// The shared `bench` name of the two artifacts.
    pub bench: String,
    /// Whether the two runs share provenance (same machine
    /// parallelism, same smoke mode) and were compared numerically.
    pub comparable: bool,
    /// Every check evaluated, in order.
    pub checks: Vec<Check>,
}

impl DiffReport {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Render the verdict as an aligned plain-text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench {}: {} mode\n",
            self.bench,
            if self.comparable {
                "same provenance — numeric comparison"
            } else {
                "different provenance — invariant checks only"
            }
        ));
        let width = self.checks.iter().map(|c| c.name.len()).max().unwrap_or(0);
        for c in &self.checks {
            out.push_str(&format!(
                "  [{}] {:<width$}  {}\n",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                c.detail,
            ));
        }
        out
    }
}

/// Compare a fresh artifact against its baseline. `Err` when the two
/// documents are not artifacts of the same bench.
pub fn diff(baseline: &Json, current: &Json, tolerance: f64) -> Result<DiffReport, String> {
    let b_name = baseline
        .get("bench")
        .and_then(Json::str_)
        .ok_or("baseline has no \"bench\" field")?;
    let c_name = current
        .get("bench")
        .and_then(Json::str_)
        .ok_or("current has no \"bench\" field")?;
    if b_name != c_name {
        return Err(format!(
            "bench mismatch: baseline is {b_name}, current is {c_name}"
        ));
    }

    let parallelism = |j: &Json| j.get("machine_parallelism").and_then(Json::num);
    let smoke = |j: &Json| j.get("smoke").and_then(Json::bool_);
    let comparable = parallelism(baseline).is_some()
        && parallelism(baseline) == parallelism(current)
        && smoke(baseline) == smoke(current);

    let mut checks = Vec::new();
    if comparable {
        for key in ["qps", "decode_mints_per_s"] {
            let base_vals = collect_named(baseline, key);
            let cur_vals: Vec<(String, f64)> = collect_named(current, key);
            for (path, base) in &base_vals {
                match cur_vals.iter().find(|(p, _)| p == path) {
                    Some((_, cur)) => {
                        let floor = base * (1.0 - tolerance);
                        checks.push(Check {
                            name: path.clone(),
                            ok: *cur >= floor,
                            detail: format!(
                                "baseline {base:.1}, current {cur:.1} ({:+.1}%), floor {floor:.1}",
                                (cur / base - 1.0) * 100.0
                            ),
                        });
                    }
                    None => checks.push(Check {
                        name: path.clone(),
                        ok: false,
                        detail: "present in baseline, missing in current".to_string(),
                    }),
                }
            }
        }
        let speedups = (
            baseline.get("engine_speedup").and_then(Json::num),
            current.get("engine_speedup").and_then(Json::num),
        );
        if let (Some(base), Some(cur)) = speedups {
            let floor = base * (1.0 - tolerance);
            checks.push(Check {
                name: "engine_speedup".to_string(),
                ok: cur >= floor,
                detail: format!("baseline {base:.2}x, current {cur:.2}x, floor {floor:.2}x"),
            });
        }
    } else {
        for key in ["qps", "decode_mints_per_s"] {
            for (path, v) in collect_named(current, key) {
                checks.push(Check {
                    name: format!("{path} > 0"),
                    ok: v > 0.0,
                    detail: format!("{v:.1}"),
                });
            }
        }
        if let Some(speedup) = current.get("engine_speedup").and_then(Json::num) {
            checks.push(Check {
                name: "engine_speedup >= 1".to_string(),
                ok: speedup >= 1.0,
                detail: format!("{speedup:.2}x"),
            });
        }
    }

    // Pruning invariants: counts, and a ratio of two rows of one run.
    for (path, frac) in auto_prune_fractions(current) {
        checks.push(Check {
            name: format!("{path} prunes"),
            ok: frac > 0.0,
            detail: format!("pruned_fraction {frac:.4}"),
        });
    }
    for (path, blocks) in auto_block_skips(current) {
        checks.push(Check {
            name: format!("{path} skips blocks"),
            ok: blocks > 0.0,
            detail: format!("blocks_skipped {blocks:.0}"),
        });
    }
    for (path, blocks) in off_block_skips(current) {
        checks.push(Check {
            name: format!("{path} skips nothing"),
            ok: blocks == 0.0,
            detail: format!("blocks_skipped {blocks:.0}"),
        });
    }
    // Twice the tolerance: the two rows of a pair are separate
    // measurements, each free to wobble by it.
    for (shape, off, auto) in filtered_pairs(current) {
        let floor = off * (1.0 - 2.0 * tolerance);
        checks.push(Check {
            name: format!("filtered/{shape} Auto keeps up with Off"),
            ok: auto >= floor,
            detail: format!("Off {off:.1}, Auto {auto:.1}, floor {floor:.1}"),
        });
    }

    // Postings memory: byte counts are deterministic per corpus, so
    // they are gated regardless of machine provenance — but only when
    // both artifacts carry the figure (old baselines predate it).
    let cur_bytes = postings_bytes(current);
    for (path, base) in postings_bytes(baseline) {
        if let Some((_, cur)) = cur_bytes.iter().find(|(p, _)| *p == path) {
            let ceiling = base * (1.0 + MEM_GROWTH_TOLERANCE);
            checks.push(Check {
                name: path,
                ok: *cur <= ceiling,
                detail: format!(
                    "baseline {base:.0} B, current {cur:.0} B ({:+.1}%), ceiling {ceiling:.0} B",
                    if base > 0.0 {
                        (cur / base - 1.0) * 100.0
                    } else {
                        0.0
                    }
                ),
            });
        }
    }

    if checks.is_empty() {
        return Err(format!("no {b_name} metrics found to check"));
    }
    Ok(DiffReport {
        bench: b_name.to_string(),
        comparable,
        checks,
    })
}

/// Every numeric field called `key`, with its slash-separated path.
fn collect_named(j: &Json, key: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(j, "", &mut |path, k, v| {
        if k == key {
            if let Some(n) = v.num() {
                out.push((join(path, k), n));
            }
        }
    });
    out
}

/// Every numeric leaf under an object keyed `postings_bytes*`
/// (`postings_bytes/positional`, `postings_bytes_no_positions/blocks`,
/// …), with its slash-separated path.
fn postings_bytes(j: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(j, "", &mut |path, k, v| {
        if path.split('/').any(|seg| seg.starts_with("postings_bytes")) {
            if let Some(n) = v.num() {
                out.push((join(path, k), n));
            }
        }
    });
    out
}

/// Whether a configuration row ranked anything: a row that reports no
/// candidates ran filter-only queries, which have nothing to prune and
/// nothing for the prune mode to change.
fn ranks(row: &Json) -> bool {
    row.get("candidates").and_then(Json::num) != Some(0.0)
}

/// `pruned_fraction` of every ranking object configured with
/// `"prune": "Auto"`.
fn auto_prune_fractions(j: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk_objects(j, "", &mut |path, obj| {
        if obj.get("prune").and_then(Json::str_) == Some("Auto") && ranks(obj) {
            if let Some(frac) = obj.get("pruned_fraction").and_then(Json::num) {
                out.push((path.to_string(), frac));
            }
        }
    });
    out
}

/// `blocks_skipped` of every monolithic (`"shards": 1`) object
/// configured with `"prune": "Auto"` that reports the field. Block-Max
/// WAND must jump whole blocks there; multi-shard rows may legitimately
/// report zero when the per-shard lists fit in a single block.
fn auto_block_skips(j: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk_objects(j, "", &mut |path, obj| {
        if obj.get("prune").and_then(Json::str_) == Some("Auto")
            && obj.get("shards").and_then(Json::num) == Some(1.0)
            && ranks(obj)
        {
            if let Some(blocks) = obj.get("blocks_skipped").and_then(Json::num) {
                out.push((path.to_string(), blocks));
            }
        }
    });
    out
}

/// `blocks_skipped` of every object configured with `"prune": "Off"`
/// that reports the field: with pruning off nothing may be skipped.
fn off_block_skips(j: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk_objects(j, "", &mut |path, obj| {
        if obj.get("prune").and_then(Json::str_) == Some("Off") {
            if let Some(blocks) = obj.get("blocks_skipped").and_then(Json::num) {
                out.push((path.to_string(), blocks));
            }
        }
    });
    out
}

/// `(shape, Off qps, Auto qps)` of every ranked shape of the `filtered`
/// workload that reports both prune modes at one shard count.
fn filtered_pairs(j: &Json) -> Vec<(String, f64, f64)> {
    let mut rows = Vec::new();
    walk_objects(j, "", &mut |_, obj| {
        let field = |key: &str| obj.get(key).and_then(Json::str_);
        let num = |key: &str| obj.get(key).and_then(Json::num);
        if field("workload") == Some("filtered") && ranks(obj) {
            if let (Some(shape), Some(prune), Some(shards), Some(qps)) =
                (field("shape"), field("prune"), num("shards"), num("qps"))
            {
                rows.push((shape.to_string(), shards, prune.to_string(), qps));
            }
        }
    });
    let mut out = Vec::new();
    for (shape, shards, prune, auto) in &rows {
        if prune != "Auto" {
            continue;
        }
        let off = rows
            .iter()
            .find(|(s, n, p, _)| s == shape && n == shards && p == "Off");
        if let Some((_, _, _, off)) = off {
            out.push((shape.clone(), *off, *auto));
        }
    }
    out
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}/{key}")
    }
}

fn walk(j: &Json, path: &str, f: &mut impl FnMut(&str, &str, &Json)) {
    match j {
        Json::Obj(members) => {
            for (k, v) in members {
                f(path, k, v);
                walk(v, &join(path, k), f);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                walk(v, &join(path, &i.to_string()), f);
            }
        }
        _ => {}
    }
}

fn walk_objects(j: &Json, path: &str, f: &mut impl FnMut(&str, &Json)) {
    match j {
        Json::Obj(members) => {
            f(path, j);
            for (k, v) in members {
                walk_objects(v, &join(path, k), f);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                walk_objects(v, &join(path, &i.to_string()), f);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(text: &str) -> Json {
        Json::parse(text).expect("artifact parses")
    }

    /// Multiply every field named `key` by `factor` — an injected
    /// regression.
    fn scale_field(j: &mut Json, key: &str, factor: f64) {
        match j {
            Json::Obj(members) => {
                for (k, v) in members.iter_mut() {
                    if k == key {
                        if let Json::Num(n) = v {
                            *n *= factor;
                        }
                    }
                    scale_field(v, key, factor);
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(|v| scale_field(v, key, factor)),
            _ => {}
        }
    }

    /// Injected throughput regression: scale both gated rate metrics.
    fn scale_qps(j: &mut Json, factor: f64) {
        scale_field(j, "qps", factor);
        scale_field(j, "decode_mints_per_s", factor);
    }

    fn set_top(j: &mut Json, key: &str, value: Json) {
        if let Json::Obj(members) = j {
            for (k, v) in members.iter_mut() {
                if k == key {
                    *v = value;
                    return;
                }
            }
            members.push((key.to_string(), value));
        }
    }

    const ARTIFACTS: [&str; 6] = [
        include_str!("../../../BENCH_hotpath.json"),
        include_str!("../../../BENCH_shard.json"),
        include_str!("../../../BENCH_prune.json"),
        include_str!("../../../BENCH_monitor.json"),
        include_str!("../../../BENCH_concurrency.json"),
        include_str!("../../../BENCH_decode.json"),
    ];

    #[test]
    fn every_baseline_passes_against_itself() {
        for text in ARTIFACTS {
            let j = artifact(text);
            let report = diff(&j, &j, DEFAULT_QPS_TOLERANCE).expect("diff");
            assert!(report.passed(), "self-diff failed:\n{}", report.render());
        }
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        for text in ARTIFACTS {
            let baseline = artifact(text);
            if baseline.get("machine_parallelism").is_none() {
                continue; // provenance-free artifact cannot be gated numerically
            }
            let mut current = baseline.clone();
            scale_qps(&mut current, 0.78); // a 22% QPS drop
            let report = diff(&baseline, &current, DEFAULT_QPS_TOLERANCE).expect("diff");
            assert!(report.comparable);
            assert!(
                !report.passed(),
                "22% regression slipped through:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn small_wobble_passes_the_gate() {
        let baseline = artifact(ARTIFACTS[2]);
        let mut current = baseline.clone();
        scale_qps(&mut current, 0.95); // 5% slower: within tolerance
        let report = diff(&baseline, &current, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn a_looser_tolerance_admits_a_bigger_drop() {
        // The same 22% drop that fails the default gate passes when the
        // caller opts into `--tolerance 0.30` (noisy shared runners).
        let baseline = artifact(ARTIFACTS[3]);
        let mut current = baseline.clone();
        scale_qps(&mut current, 0.78);
        let strict = diff(&baseline, &current, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(!strict.passed(), "{}", strict.render());
        let loose = diff(&baseline, &current, 0.30).expect("diff");
        assert!(loose.passed(), "{}", loose.render());
    }

    #[test]
    fn different_provenance_degrades_to_invariants() {
        let baseline = artifact(ARTIFACTS[2]);
        let mut current = baseline.clone();
        set_top(&mut current, "machine_parallelism", Json::Num(64.0));
        scale_qps(&mut current, 0.5); // huge drop, but incomparable machines
        let report = diff(&baseline, &current, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(!report.comparable);
        assert!(report.passed(), "{}", report.render());

        // ... but broken invariants still fail: a non-pruning Auto row.
        let mut broken = current.clone();
        if let Json::Obj(members) = &mut broken {
            if let Some((_, Json::Arr(configs))) = members.iter_mut().find(|(k, _)| k == "configs")
            {
                for cfg in configs.iter_mut() {
                    if cfg.get("prune").and_then(Json::str_) == Some("Auto") {
                        set_top(cfg, "pruned_fraction", Json::Num(0.0));
                    }
                }
            }
        }
        let report = diff(&baseline, &broken, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn monolithic_auto_rows_must_skip_blocks() {
        let baseline = artifact(ARTIFACTS[2]);
        let mut current = baseline.clone();
        set_top(&mut current, "machine_parallelism", Json::Num(64.0));
        // Zero out blocks_skipped everywhere: only the shards=1 Auto
        // rows should trip the gate — multi-shard rows may have lists
        // too short to span multiple blocks.
        let mut zeroed_multi_only = current.clone();
        for (j, multi_only) in [(&mut current, false), (&mut zeroed_multi_only, true)] {
            if let Json::Obj(members) = j {
                if let Some((_, Json::Arr(configs))) =
                    members.iter_mut().find(|(k, _)| k == "configs")
                {
                    for cfg in configs.iter_mut() {
                        let shards = cfg.get("shards").and_then(Json::num);
                        if !multi_only || shards != Some(1.0) {
                            set_top(cfg, "blocks_skipped", Json::Num(0.0));
                        }
                    }
                }
            }
        }
        let report = diff(&baseline, &current, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(!report.comparable);
        assert!(!report.passed(), "{}", report.render());
        let report = diff(&baseline, &zeroed_multi_only, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn off_rows_must_skip_nothing_on_any_machine() {
        let baseline = artifact(ARTIFACTS[2]);
        let mut current = baseline.clone();
        if let Json::Obj(members) = &mut current {
            if let Some((_, Json::Arr(configs))) = members.iter_mut().find(|(k, _)| k == "configs")
            {
                let off = |cfg: &&mut Json| cfg.get("prune").and_then(Json::str_) == Some("Off");
                let row = configs.iter_mut().find(off).expect("an Off row");
                set_top(row, "blocks_skipped", Json::Num(3.0));
            }
        }
        // Same provenance, throughput untouched: the invariant alone trips.
        let report = diff(&baseline, &current, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(report.comparable);
        let failed: Vec<_> = report.checks.iter().filter(|c| !c.ok).collect();
        assert_eq!(failed.len(), 1, "{}", report.render());
        assert!(
            failed[0].name.ends_with("skips nothing"),
            "{}",
            failed[0].name
        );
        set_top(&mut current, "machine_parallelism", Json::Num(64.0));
        let report = diff(&baseline, &current, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(
            !report.comparable && !report.passed(),
            "{}",
            report.render()
        );
    }

    #[test]
    fn filtered_auto_must_keep_up_with_off() {
        let baseline = artifact(ARTIFACTS[2]);
        let mut current = baseline.clone();
        set_top(&mut current, "machine_parallelism", Json::Num(64.0));
        let report = diff(&baseline, &current, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(!report.comparable);
        assert!(report.passed(), "{}", report.render());
        let gated = report
            .checks
            .iter()
            .filter(|c| c.name.ends_with("Auto keeps up with Off"))
            .count();
        // Five ranked shapes; the filter-only row ranks nothing.
        assert_eq!(gated, 5, "{}", report.render());

        // Halve the Auto rows of the filtered workload: the lazy filter
        // now loses to draining it, and the gate says so.
        if let Json::Obj(members) = &mut current {
            if let Some((_, Json::Arr(configs))) = members.iter_mut().find(|(k, _)| k == "configs")
            {
                for cfg in configs.iter_mut() {
                    if cfg.get("workload").and_then(Json::str_) == Some("filtered")
                        && cfg.get("prune").and_then(Json::str_) == Some("Auto")
                    {
                        scale_field(cfg, "qps", 0.5);
                    }
                }
            }
        }
        let report = diff(&baseline, &current, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn decode_throughput_regression_fails_the_gate() {
        let baseline = artifact(ARTIFACTS[5]);
        let mut current = baseline.clone();
        scale_field(&mut current, "decode_mints_per_s", 0.78); // 22% slower codec
        let report = diff(&baseline, &current, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(report.comparable);
        assert!(
            !report.passed(),
            "decode regression slipped through:\n{}",
            report.render()
        );
    }

    #[test]
    fn memory_growth_fails_the_gate_in_both_modes() {
        let baseline = artifact(ARTIFACTS[2]);

        // 20% postings growth on the same machine: QPS untouched, but
        // the footprint ceiling trips.
        let mut bloated = baseline.clone();
        scale_field(&mut bloated, "positional", 1.2);
        let report = diff(&baseline, &bloated, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(report.comparable);
        assert!(!report.passed(), "{}", report.render());

        // The same growth on an incomparable machine still fails: byte
        // counts do not depend on core count.
        set_top(&mut bloated, "machine_parallelism", Json::Num(64.0));
        let report = diff(&baseline, &bloated, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(!report.comparable);
        assert!(!report.passed(), "{}", report.render());

        // Growth inside the tolerance passes.
        let mut wobble = baseline.clone();
        scale_field(&mut wobble, "positional", 1.05);
        scale_field(&mut wobble, "blocks", 1.05);
        let report = diff(&baseline, &wobble, DEFAULT_QPS_TOLERANCE).expect("diff");
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn mismatched_benches_are_an_error() {
        let a = artifact(ARTIFACTS[0]);
        let b = artifact(ARTIFACTS[1]);
        assert!(diff(&a, &b, DEFAULT_QPS_TOLERANCE).is_err());
    }
}
