//! X2 — the §4.1.1 "Basic-1" field table, regenerated from the
//! implementation, plus the live support matrix of the simulated vendor
//! fleet (what `FieldsSupported` actually exports).

use starts_bench::{header, mark, print_table, section};
use starts_proto::attrs::BASIC1_FIELDS;
use starts_source::{vendors, Source};

fn main() {
    header("X2  §4.1.1 field table (Basic-1) — paper table, regenerated");
    let rows: Vec<Vec<String>> = BASIC1_FIELDS
        .iter()
        .map(|(field, required, new)| {
            vec![
                field.table_name().to_string(),
                if *required { "Yes" } else { "No" }.to_string(),
                if *new { "Yes" } else { "No" }.to_string(),
            ]
        })
        .collect();
    print_table(&["Field", "Required?", "New?"], &rows);

    section("live support matrix: FieldsSupported across the vendor fleet");
    let sources: Vec<Source> = vendors::fleet()
        .into_iter()
        .map(|cfg| Source::build(cfg, &[]))
        .collect();
    let mut columns: Vec<&str> = vec!["Field"];
    let ids: Vec<String> = sources.iter().map(|s| s.id().to_string()).collect();
    columns.extend(ids.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = BASIC1_FIELDS
        .iter()
        .map(|(field, _, _)| {
            let mut row = vec![field.table_name().to_string()];
            for s in &sources {
                row.push(mark(s.metadata().supports_field(field)));
            }
            row
        })
        .collect();
    print_table(&columns, &rows);
    println!();
    println!(
        "required fields (Title, Date/time-last-modified, Any, Linkage) are supported by\n\
         every source — the protocol's minimum; optional fields vary per vendor."
    );
}
