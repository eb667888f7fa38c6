//! X6 — source selection from content summaries (§3.3, §4.3.2, refs
//! [7, 8]): how much of the relevant material do the top-n selected
//! sources hold, per selection strategy, as n grows?
//!
//! The paper's claim: automatically generated summaries, "orders of
//! magnitude smaller than the original contents", have "proven useful in
//! distinguishing the more useful from the less useful sources for a
//! given query". Expected shape (from GlOSS/gGlOSS): summary-based
//! selectors reach high merit coverage with 1–3 of 12 sources, while
//! query-blind selection needs most of them.

use starts_bench::{
    header, print_table, section, standard_corpus, standard_workload, wire_and_discover,
};
use starts_meta::eval::{mean, selection_recall};
use starts_meta::metasearcher::Metasearcher;
use starts_meta::savvy::PastPerformance;
use starts_meta::select::{BGloss, BySize, Cori, CostAware, GGlossSum, Selector};
use starts_net::{LinkProfile, SimNet};

fn main() {
    header("X6  source selection effectiveness (merit coverage R_n vs n)");
    let corpus = standard_corpus();
    let workload = standard_workload(&corpus);
    let net = SimNet::new();
    let mut catalog = wire_and_discover(&net, &corpus);
    // Give sources heterogeneous link profiles: every third source is
    // slow and priced (a Dialog-like service), the rest are free.
    for (i, entry) in catalog.entries.iter_mut().enumerate() {
        entry.link = if i % 3 == 0 {
            LinkProfile {
                latency_ms: 900,
                cost_per_query: 2.0,
            }
        } else {
            LinkProfile {
                latency_ms: 60,
                cost_per_query: 0.0,
            }
        };
    }

    // The SavvySearch-style learned selector (§5) trains on the first
    // half of the workload: for each training query, it observes how
    // many relevant documents each source would have yielded.
    let savvy = PastPerformance::new();
    let split = workload.queries.len() / 2;
    for gq in &workload.queries[..split] {
        for (si, count) in gq.relevant_by_source.iter().enumerate() {
            savvy.record(&catalog.entries[si].id, &gq.terms, *count as usize);
        }
    }
    let selectors: Vec<(&str, Box<dyn Selector>)> = vec![
        ("bGlOSS", Box::new(BGloss)),
        ("gGlOSS-Sum", Box::new(GGlossSum)),
        ("CORI", Box::new(Cori::default())),
        ("by-size", Box::new(BySize)),
        (
            "cost-aware gGlOSS",
            Box::new(CostAware {
                inner: GGlossSum,
                lambda: 1.0,
                mu: 1.0,
            }),
        ),
        ("past-performance", Box::new(savvy)),
    ];

    section(&format!(
        "mean merit coverage over {} queries, {} sources, by number selected",
        workload.queries.len(),
        corpus.sources.len()
    ));
    let ns = [1usize, 2, 3, 4, 6, 12];
    let mut rows = Vec::new();
    let mut best_at_2 = 0.0f64;
    let mut size_at_2 = 0.0f64;
    for (name, selector) in &selectors {
        let mut row = vec![name.to_string()];
        for &n in &ns {
            let mut cov = Vec::new();
            for gq in &workload.queries {
                let owned = Metasearcher::selection_terms(&gq.query);
                let terms: Vec<(Option<&str>, &str)> = owned
                    .iter()
                    .map(|(f, t)| (f.as_deref(), t.as_str()))
                    .collect();
                let chosen: Vec<usize> = selector
                    .rank(&catalog, &terms)
                    .into_iter()
                    .take(n)
                    .map(|(i, _)| i)
                    .collect();
                cov.push(selection_recall(&chosen, &gq.relevant_by_source));
            }
            let m = mean(&cov);
            if n == 2 {
                if *name == "gGlOSS-Sum" {
                    best_at_2 = m;
                }
                if *name == "by-size" {
                    size_at_2 = m;
                }
            }
            row.push(format!("{:.3}", m));
        }
        rows.push(row);
    }
    let mut columns = vec!["selector"];
    let labels: Vec<String> = ns.iter().map(|n| format!("n={n}")).collect();
    columns.extend(labels.iter().map(String::as_str));
    print_table(&columns, &rows);

    section("cost of the selected wave (n=3): mean latency and fees");
    for (name, selector) in &selectors {
        let mut lat = Vec::new();
        let mut fee = Vec::new();
        for gq in &workload.queries {
            let owned = Metasearcher::selection_terms(&gq.query);
            let terms: Vec<(Option<&str>, &str)> = owned
                .iter()
                .map(|(f, t)| (f.as_deref(), t.as_str()))
                .collect();
            let chosen: Vec<usize> = selector
                .rank(&catalog, &terms)
                .into_iter()
                .take(3)
                .map(|(i, _)| i)
                .collect();
            lat.push(
                chosen
                    .iter()
                    .map(|&i| f64::from(catalog.entries[i].link.latency_ms))
                    .fold(0.0, f64::max),
            );
            fee.push(
                chosen
                    .iter()
                    .map(|&i| catalog.entries[i].link.cost_per_query)
                    .sum::<f64>(),
            );
        }
        println!(
            "   {:<18} wave latency {:>6.0} ms   fees ${:>5.2}",
            name,
            mean(&lat),
            mean(&fee)
        );
    }

    section("verdict");
    println!(
        "   gGlOSS coverage with 2/12 sources: {best_at_2:.3}; query-blind by-size: {size_at_2:.3}."
    );
    assert!(
        best_at_2 > size_at_2 + 0.25,
        "summary-based selection must clearly beat query-blind selection"
    );
    println!("   shape matches GlOSS (refs [7,8]): summaries suffice to pick the right sources.");
}
