//! X18 — continuous monitoring under an injected source degradation.
//!
//! STARTS §3.4 assumes the metasearcher continuously tracks source
//! quality; this experiment drives both halves of that tracking — the
//! health board that the `HealthAware` selector reads, and the operator
//! loop the board's gauges feed (`MetricStore` time series → SLO burn
//! rates → alert state machine) — through a three-phase Zipf workload:
//!
//! 1. **healthy** — every source answers; the monitor must stay silent
//!    (no alert events at all: the no-flapping guarantee);
//! 2. **degraded** — one source's query endpoint is replaced with a
//!    garbage responder (the `tests/failure_injection.rs` move); its
//!    per-source error-rate SLO must walk pending → firing, and the
//!    `HealthAware` selector, reading the board alone, demotes it to the
//!    probe floor;
//! 3. **recovery** — the source is re-wired healthy; the probes the
//!    floor kept sending drain the error window and the alert resolves.
//!
//! Time is a `ManualClock` advanced one step per query, so every run
//! of this binary produces the same alert timeline on any machine.
//!
//! Writes `BENCH_monitor.json` (override with `--out PATH`). Pass
//! `--smoke` for the CI run (smaller phases + hard assertions on the
//! alert lifecycle: exactly pending → firing → resolved on the victim,
//! and no other event), `--alerts-jsonl PATH` to append the structured
//! alert event log, and `--live` for a top-style terminal dashboard
//! (sparkline series, SLO status, firing alerts) rendered as the
//! workload runs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use starts_bench::{
    header, machine_parallelism, print_table, provenance_note, section, standard_corpus,
    starts_query, wire_and_discover, zipf_workload, BenchArgs,
};
use starts_meta::metasearcher::{MetaConfig, Metasearcher};
use starts_meta::select::{GGlossSum, HealthAware};
use starts_net::host::wire_source;
use starts_net::{LinkProfile, SimNet, StartsClient};
use starts_obs::monitor::{
    Aspect, ManualClock, Monitor, MonitorConfig, SloOp, SloSpec, StoreConfig,
};
use starts_obs::{AlertState, HealthBoard};
use starts_source::{Source, SourceConfig};

/// One simulated second per query: the monitor samples every query.
const STEP_MS: u64 = 1_000;

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let out_path = args.out_or("BENCH_monitor.json");
    // (healthy, degraded, recovery) workload sizes.
    let (n_healthy, n_degraded, n_recovery) = if smoke { (30, 12, 25) } else { (200, 60, 80) };

    header("X18  continuous monitoring: SLO burn-rate alerts under injected degradation");
    let corpus = standard_corpus();
    let victim = corpus.sources[0].id.clone();
    let workload = zipf_workload(&corpus, n_healthy + n_degraded + n_recovery, 19970526);
    println!(
        "corpus: {} sources, {} docs; workload: {} Zipf queries \
         (healthy {n_healthy} / degraded {n_degraded} / recovery {n_recovery}); victim: {victim}",
        corpus.sources.len(),
        corpus.total_docs(),
        workload.len(),
    );

    // Deterministic time: the clock advances one step per query, so the
    // alert timeline is identical on every machine.
    let clock = Arc::new(ManualClock::new(0));
    let board = Arc::new(HealthBoard::with_clock(8, 60_000, clock.clone()));
    let monitor = Arc::new(Monitor::new(MonitorConfig {
        store: StoreConfig {
            step_ms: STEP_MS,
            retention: 512,
        },
        // One objective: per-source error rate below 1%, burn-rate
        // windows sized for the 8-outcome health board above.
        slos: vec![SloSpec {
            short_window: 3,
            long_window: 6,
            for_ms: 2_000,
            ..SloSpec::new(
                "source-error-rate",
                "health.error_rate",
                &[("source", "*")],
                Aspect::Value,
                SloOp::Lt,
                0.01,
            )
        }],
        clock: clock.clone(),
        log_path: None,
        events_kept: 512,
    }));
    if let Some(path) = &args.alerts_jsonl {
        let _ = std::fs::remove_file(path); // fresh log per run
        monitor.set_log(PathBuf::from(path));
    }

    // Install the monitor before wiring: /alerts endpoints capture it.
    let net = SimNet::new();
    net.set_monitor(Arc::clone(&monitor));
    let catalog = wire_and_discover(&net, &corpus);
    let n_sources = corpus.sources.len();
    let meta = Metasearcher::new(
        &net,
        catalog,
        MetaConfig {
            selector: Box::new(HealthAware::new(GGlossSum, Arc::clone(&board))),
            // Query every source each wave: the failing victim is
            // demoted in rank but keeps receiving the probes that let
            // its error window drain and the alert resolve.
            max_sources: n_sources,
            health: Arc::clone(&board),
            ..MetaConfig::default()
        },
    );
    let client = StartsClient::new(&net);
    let alerts_url = format!("starts://{}/alerts", corpus.sources[1].id.to_lowercase());

    let run_phase = |phase: &str, queries: &[Vec<String>]| -> PhaseStats {
        let mut victim_rank_sum = 0usize;
        let start = Instant::now();
        for (i, terms) in queries.iter().enumerate() {
            clock.advance(STEP_MS);
            let resp = meta.search(&starts_query(terms, 10));
            victim_rank_sum += resp
                .selected
                .iter()
                .position(|s| s == &victim)
                .unwrap_or(n_sources);
            if args.live {
                render_live(&monitor, phase, i + 1, queries.len(), &victim);
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        }
        PhaseStats {
            queries: queries.len(),
            qps: queries.len() as f64 / start.elapsed().as_secs_f64().max(1e-12),
            mean_victim_rank: victim_rank_sum as f64 / queries.len().max(1) as f64,
            events_total: monitor.events_total(),
            firing: monitor.firing().len(),
        }
    };

    // Phase 1: healthy. The monitor must not make a sound.
    let healthy = run_phase("healthy", &workload[..n_healthy]);
    if smoke {
        assert_eq!(
            healthy.events_total,
            0,
            "healthy phase emitted alert events: {:?}",
            monitor.recent_events()
        );
        assert_eq!(healthy.firing, 0, "healthy phase has firing alerts");
    }

    // Phase 2: the victim's query endpoint starts answering garbage.
    net.register(
        format!("starts://{}/query", victim.to_lowercase()),
        LinkProfile::default(),
        Arc::new(|_: &[u8]| b"HTTP/1.0 500 Internal Server Error".to_vec()),
    );
    let degraded = run_phase("degraded", &workload[n_healthy..n_healthy + n_degraded]);
    let fired = monitor.is_source_firing(&victim);
    let wire_firing = client
        .fetch_alerts(&alerts_url)
        .map(|a| a.firing().len())
        .unwrap_or(0);
    if smoke {
        assert!(fired, "degradation did not fire: {:?}", monitor.alerts());
        assert!(wire_firing > 0, "firing alert not visible via /alerts");
    }

    // Phase 3: re-wire the victim healthy; probes drain the window.
    let s = &corpus.sources[0];
    wire_source(
        &net,
        Source::build(SourceConfig::new(&s.id), &s.docs),
        LinkProfile::default(),
    );
    let recovery = run_phase("recovery", &workload[n_healthy + n_degraded..]);
    let resolved = monitor
        .recent_events()
        .iter()
        .any(|e| e.state == AlertState::Resolved && e.source.as_deref() == Some(&*victim));
    if smoke {
        assert!(
            resolved,
            "alert never resolved after recovery: {:?}",
            monitor.recent_events()
        );
        assert_eq!(
            recovery.firing,
            0,
            "alerts still firing after recovery: {:?}",
            monitor.firing()
        );
        // The whole timeline, exactly: one per-source objective on the
        // victim walks pending -> firing -> resolved, and nothing else
        // makes a sound.
        let events = monitor.recent_events();
        let timeline: Vec<(&str, Option<&str>, AlertState)> = events
            .iter()
            .map(|e| (e.alert.as_str(), e.source.as_deref(), e.state))
            .collect();
        let on_victim = |state| ("source-error-rate", Some(&*victim), state);
        assert_eq!(
            timeline,
            [
                on_victim(AlertState::Pending),
                on_victim(AlertState::Firing),
                on_victim(AlertState::Resolved),
            ],
            "alert timeline"
        );
    }

    section("phases");
    print_table(
        &[
            "phase",
            "queries",
            "QPS",
            "victim mean rank",
            "events so far",
            "firing at end",
        ],
        &[
            healthy.row("healthy"),
            degraded.row("degraded"),
            recovery.row("recovery"),
        ],
    );
    println!();
    println!("{}", monitor.summary_line());
    println!(
        "victim {victim}: fired={fired} resolved={resolved} \
         (mean selection rank healthy {:.1} -> degraded {:.1})",
        healthy.mean_victim_rank, degraded.mean_victim_rank
    );
    section("alert timeline");
    for e in monitor.recent_events() {
        println!(
            "  t={:>4}s  {:<8}  {}{}  value={:.2}",
            e.ts_ms / 1_000,
            e.state.name(),
            e.alert,
            e.source
                .as_deref()
                .map(|s| format!(" [{s}]"))
                .unwrap_or_default(),
            e.value,
        );
    }

    let json = render_json(
        smoke, &healthy, &degraded, &recovery, &monitor, fired, resolved,
    );
    std::fs::write(&out_path, json).expect("write BENCH_monitor.json");
    println!("wrote {out_path}");
    if let Some(path) = &args.alerts_jsonl {
        println!("alert events appended to {path}");
    }
}

/// Per-phase summary.
struct PhaseStats {
    queries: usize,
    qps: f64,
    mean_victim_rank: f64,
    events_total: u64,
    firing: usize,
}

impl PhaseStats {
    fn row(&self, name: &str) -> Vec<String> {
        vec![
            name.to_string(),
            self.queries.to_string(),
            format!("{:.0}", self.qps),
            format!("{:.1}", self.mean_victim_rank),
            self.events_total.to_string(),
            self.firing.to_string(),
        ]
    }

    fn json(&self) -> String {
        format!(
            "{{\"queries\": {}, \"qps\": {:.1}, \"mean_victim_rank\": {:.1}, \
             \"events_total\": {}, \"firing\": {}}}",
            self.queries, self.qps, self.mean_victim_rank, self.events_total, self.firing
        )
    }
}

/// Map the last `width` points of a series onto ▁▂▃▄▅▆▇█.
fn spark(values: &[f64], width: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &values[values.len().saturating_sub(width)..];
    if tail.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in tail {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(1e-12);
    tail.iter()
        .map(|&v| BLOCKS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

/// One dashboard frame: clear the terminal, then sparklines, SLO
/// status, and the firing list.
fn render_live(monitor: &Monitor, phase: &str, done: usize, total: usize, victim: &str) {
    const WIDTH: usize = 48;
    print!("\x1b[2J\x1b[H");
    println!(
        "X18 live  phase={phase} ({done}/{total})   {}",
        monitor.summary_line()
    );
    println!();
    let series = [
        ("searches/s", "meta.searches", Vec::new(), Aspect::Rate),
        (
            "victim err",
            "health.error_rate",
            vec![("source", victim)],
            Aspect::Value,
        ),
        (
            "victim score",
            "health.score",
            vec![("source", victim)],
            Aspect::Value,
        ),
    ];
    for (label, metric, labels, aspect) in series {
        let pts = monitor.store().series(metric, &labels, aspect);
        let values: Vec<f64> = pts.iter().map(|p| p.value).collect();
        let latest = values.last().copied().unwrap_or(0.0);
        println!(
            "  {label:<12} {:<WIDTH$} {latest:.2}",
            spark(&values, WIDTH)
        );
    }
    println!();
    println!("  SLOs:");
    for s in monitor.slo_status() {
        println!(
            "    {:<18} {:<6} burn {:>6.1}/{:>6.1}  {}",
            s.slo,
            s.source.as_deref().unwrap_or("-"),
            s.burn_short,
            s.burn_long,
            if s.breaching { "BREACHING" } else { "ok" },
        );
    }
    let firing = monitor.firing();
    println!();
    if firing.is_empty() {
        println!("  firing: none");
    } else {
        println!("  firing:");
        for a in firing {
            println!(
                "    {} [{}] since t={}s (value {:.2})",
                a.name,
                a.source.as_deref().unwrap_or("-"),
                a.since_ms / 1_000,
                a.value,
            );
        }
    }
}

/// Hand-rolled JSON artifact (schema documented in
/// `docs/performance.md`).
fn render_json(
    smoke: bool,
    healthy: &PhaseStats,
    degraded: &PhaseStats,
    recovery: &PhaseStats,
    monitor: &Monitor,
    fired: bool,
    resolved: bool,
) -> String {
    let parallelism = machine_parallelism();
    let note = provenance_note(
        parallelism,
        "the alert timeline is clock-deterministic; absolute QPS is not",
    );
    format!(
        "{{\n  \"bench\": \"x18_monitor\",\n  \"note\": \"{note}\",\n  \
         \"smoke\": {smoke},\n  \"machine_parallelism\": {parallelism},\n  \
         \"qps\": {:.1},\n  \
         \"phases\": {{\n    \"healthy\": {},\n    \"degraded\": {},\n    \
         \"recovery\": {}\n  }},\n  \
         \"events_total\": {},\n  \"fired\": {fired},\n  \"resolved\": {resolved}\n}}\n",
        healthy.qps,
        healthy.json(),
        degraded.json(),
        recovery.json(),
        monitor.events_total(),
    )
}
