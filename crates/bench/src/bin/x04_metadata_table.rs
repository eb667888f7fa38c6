//! X4 — the §4.3.1 "MBasic-1" source-metadata attribute table,
//! regenerated, with a conformance audit of every vendor's actual
//! `@SMetaAttributes` export.

use starts_bench::{header, print_table, section};
use starts_proto::conformance::{check_metadata, MBASIC1_ATTRS};
use starts_source::{vendors, Source};

fn main() {
    header("X4  §4.3.1 metadata attribute table (MBasic-1) — regenerated");
    let rows: Vec<Vec<String>> = MBASIC1_ATTRS
        .iter()
        .map(|(name, required, new)| {
            vec![
                name.to_string(),
                if *required { "Yes" } else { "No" }.to_string(),
                if *new { "Yes" } else { "No" }.to_string(),
            ]
        })
        .collect();
    print_table(&["Field", "Required?", "New?"], &rows);
    println!();
    println!(
        "{} attributes, {} required, {} new vs Z39.50 Exp-1/GILS",
        MBASIC1_ATTRS.len(),
        MBASIC1_ATTRS.iter().filter(|(_, r, _)| *r).count(),
        MBASIC1_ATTRS.iter().filter(|(_, _, n)| *n).count()
    );

    section("conformance audit of the vendor fleet");
    for cfg in vendors::fleet() {
        let source = Source::build(cfg, &[]);
        let violations = check_metadata(source.metadata());
        let m = source.metadata();
        println!(
            "   {:<13} parts={:<2} range={:>3}..{:<8} ranker={:<8} violations={}",
            source.id(),
            m.query_parts_supported.as_str(),
            m.score_range.0,
            if m.score_range.1.is_finite() {
                format!("{}", m.score_range.1)
            } else {
                "inf".to_string()
            },
            if m.ranking_algorithm_id.is_empty() {
                "-"
            } else {
                &m.ranking_algorithm_id
            },
            violations.len()
        );
        assert!(violations.is_empty(), "{:?}", violations);
    }
    println!();
    println!("all fleet members export conformant MBasic-1 metadata.");
}
