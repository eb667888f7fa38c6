//! `e2e` — the one benchmark of the STARTS stack.
//!
//! Every end-to-end number is taken at the user-facing entry point,
//! `starts_serve::Server::search`, under a closed loop of two client
//! threads with tracing off. A separate traced run (`--trace 1`) walks
//! the same requests down the stack through each crate's public
//! functions and reports per-layer numbers. See `benchmark/README.md`.

mod measure;
mod report;
mod setup;
mod trace;
mod walk;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use starts_meta::Metasearcher;
use starts_serve::Served;

use measure::{closed_loop, cross_path_check, Load};
use report::{metric, Json, Metric};
use workload::{Inputs, Spec, CLIENTS, DEFAULT_SEED, K, SPECS};

/// Timed window when `--seconds` is absent (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Timed window under `--smoke`; smoke numbers are never compared.
const SMOKE_SECONDS: f64 = 3.0;
/// Pool queries the cross-path check runs through both paths.
const CHECKED_QUERIES: usize = 500;
/// `qps` is the median completion rate over this many equal shares of
/// the window's completions.
const QPS_CHUNKS: usize = 10;
/// `fail_share` (shed + partial + wrong-length responses over requests
/// attempted) above this fails the run; any wrong-length response does.
const MAX_FAIL_SHARE: f64 = 0.001;
/// Deployments timed per run (`setup_s` is their median): at least
/// `MIN_SETUPS`, then more while they are cheap — until `MAX_SETUPS` or
/// `SETUP_BUDGET_S` of deploying, whichever comes first.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 7;
const SETUP_BUDGET_S: f64 = 3.0;

const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.json");

const USAGE: &str =
    "usage: e2e (--workload NAME | --all) [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
workloads: fed_zipf big_tree hot_repeat wan_straggler";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut explicit_seconds = false;
    let mut smoke = false;
    let mut rest = argv.iter().peekable();
    while let Some(arg) = rest.next() {
        let mut value = |flag: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                explicit_seconds = true;
            }
            // `--trace` alone selects the traced run; the driver passes
            // `--trace 0` or `--trace 1`.
            "--trace" => {
                args.trace = rest
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--all" => args.all = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if smoke && !explicit_seconds {
        args.seconds = SMOKE_SECONDS;
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(&args);
    }
    let name = args.workload.as_deref().expect("checked by parse_args");
    let Some(spec) = workload::spec(name) else {
        eprintln!("e2e: unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = if args.trace {
        run_traced(spec, &args)
    } else {
        run_untraced(spec, &args)
    };
    for problem in &outcome.problems {
        eprintln!("e2e: {name}: {problem}");
    }
    let correct = outcome.problems.is_empty();
    if let Some(digest) = outcome.digest {
        println!("{name} check.digest {digest:#018x} fnv1a64");
    }
    report::print_lines(name, &outcome.extra);
    report::print_lines(name, &outcome.metrics);
    let suffix = if args.trace { ".trace" } else { "" };
    let path = report::out_dir().join(format!("{name}{suffix}.json"));
    std::fs::write(
        &path,
        outcome.document(spec, &args, correct).render() + "\n",
    )
    .expect("write the result file");
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, each in a child process of
/// this binary so that `mem_peak_mb` is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut failed = Vec::new();
    for spec in &SPECS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status()
                .expect("start a child run");
            if !status.success() {
                failed.push(format!("{} --trace {trace}", spec.name));
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: failed runs: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

struct Outcome {
    /// The metrics `BENCHMARK.json` declares for this kind of run.
    metrics: Vec<Metric>,
    /// Printed and filed, but not part of the declared set.
    extra: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: Option<u64>,
}

impl Outcome {
    /// The result file: provenance, every pinned value, every number.
    fn document(&self, spec: &Spec, args: &Args, correct: bool) -> Json {
        Json::obj([
            ("workload", Json::str(spec.name)),
            ("traced", Json::Bool(args.trace)),
            ("correct", Json::Bool(correct)),
            ("seed", Json::Int(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("warmup_seconds", Json::Num(warmup_seconds(args.seconds))),
            ("clients", Json::Int(CLIENTS as u64)),
            (
                "nproc",
                Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
            ),
            ("git_revision", Json::str(report::git_revision())),
            (
                "pinned",
                Json::obj([
                    ("k", Json::Int(K as u64)),
                    ("spec", Json::str(format!("{spec:?}"))),
                    (
                        "corpus",
                        Json::str(format!("{:?}", workload::corpus_config(spec, args.seed))),
                    ),
                    (
                        "meta_config",
                        Json::str(format!("{:?}", setup::meta_config(spec))),
                    ),
                    (
                        "serve_config",
                        Json::str(format!(
                            "{:?}",
                            setup::serve_config(spec, Default::default())
                        )),
                    ),
                ]),
            ),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "digest",
                self.digest
                    .map_or(Json::Bool(false), |d| Json::str(format!("{d:#018x}"))),
            ),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            ("metrics", report::metrics_json(&self.metrics)),
            ("extra", report::metrics_json(&self.extra)),
        ])
    }
}

fn warmup_seconds(seconds: f64) -> f64 {
    (seconds / 4.0).min(3.0)
}

fn generate(spec: &Spec, seed: u64) -> (Inputs, f64) {
    let start = Instant::now();
    let inputs = workload::generate(spec, seed);
    (inputs, start.elapsed().as_secs_f64())
}

/// The end-to-end run: correctness check, warm-up, timed window.
fn run_untraced(spec: &Spec, args: &Args) -> Outcome {
    let mut problems = Vec::new();
    let (inputs, gen_s) = generate(spec, args.seed);
    let d = setup::deploy(spec, &inputs);
    let mut setups = vec![d.setup_s];

    // Correctness first, on cold caches and an unpaced net: the paths
    // must agree on content, and pacing only adds sleeps.
    let load = Load::new(spec, &inputs, &d);
    let check = {
        let meta = Metasearcher::new(&d.net, d.catalog.clone(), setup::meta_config(spec));
        cross_path_check(
            &d.server,
            &meta,
            &inputs.queries,
            CHECKED_QUERIES,
            &load.first_lengths,
        )
    };
    if let Some(index) = check.first_mismatch {
        problems.push(format!(
            "Server::search and Metasearcher::search disagree on pool query {index}"
        ));
    }
    if check.non_empty * 2 < check.queries {
        problems.push(format!(
            "only {} of {} checked queries returned anything",
            check.non_empty, check.queries
        ));
    }
    if args.seed == DEFAULT_SEED {
        match report::expected_digest(EXPECTED_DIGESTS, spec.name) {
            Some(expected) if expected == check.digest => {}
            Some(expected) => problems.push(format!(
                "result digest {:#018x} differs from the expected {expected:#018x}",
                check.digest
            )),
            None => problems.push(format!(
                "no expected digest for {}; this run's is {:#018x}",
                spec.name, check.digest
            )),
        }
    }

    d.set_paced(spec, true);
    closed_loop(
        &load,
        CLIENTS,
        Duration::from_secs_f64(warmup_seconds(args.seconds)),
    );
    let window = closed_loop(&load, CLIENTS, Duration::from_secs_f64(args.seconds));
    let mem_peak_mb = measure::process_peak_rss_mib();
    let cached_end = d.server.cached_responses();
    drop(load);
    drop(d);
    let fail_share = window.failed as f64 / window.attempted.max(1) as f64;
    if window.mismatched > 0 || fail_share > MAX_FAIL_SHARE {
        problems.push(format!(
            "{} of {} requests failed ({} shed, {} partial, {} of another length than the query's first answer)",
            window.failed, window.attempted, window.shed, window.partial, window.mismatched
        ));
    }

    // setup_s is the median of several deployments; the extra ones run
    // after the window so that they cannot touch mem_peak_mb.
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        setups.push(setup::deploy(spec, &inputs).setup_s);
    }

    let latencies = window.latencies_sorted(None);
    let (p50, p99) = if latencies.is_empty() {
        problems.push("no request completed in the timed window".to_string());
        (0.0, 0.0)
    } else {
        (
            measure::percentile(&latencies, 0.50) as f64 / 1e3,
            measure::percentile(&latencies, 0.99) as f64 / 1e3,
        )
    };
    let mut rates = window.chunk_rates(QPS_CHUNKS);
    let qps = if rates.is_empty() {
        0.0
    } else {
        measure::median_f64(&mut rates)
    };
    let (tail_us, tail_pct) = measure::tail_us(&latencies);
    let completed = window.completed().max(1) as f64;
    let metrics = vec![
        metric("setup_s", "s", measure::median_f64(&mut setups)),
        metric("qps", "1/s", qps),
        metric("lat_p50_us", "us", p50),
        metric("lat_p99_us", "us", p99),
        metric("cpu_ms_per_query", "ms", window.cpu_ms / completed),
        metric("mem_peak_mb", "MiB", mem_peak_mb),
    ];
    let extra = vec![
        metric("fail_share", "ratio", fail_share),
        metric("qps_mean", "1/s", completed / window.elapsed_s),
        metric("lat_tail_us", "us", tail_us),
        metric("lat_tail_pct", "%", tail_pct),
        metric("lat_samples", "count", latencies.len() as f64),
        metric(
            "cpu_cores_busy",
            "ratio",
            window.cpu_ms / 1e3 / window.elapsed_s,
        ),
        metric("serve.hit_ratio", "ratio", window.share(Served::CacheHit)),
        metric("serve.cached_responses_end", "count", cached_end as f64),
        metric("corpus.gen_s", "s", gen_s),
        metric("setup_samples", "count", setups.len() as f64),
        metric("check.queries", "count", check.queries as f64),
        metric("check.non_empty", "count", check.non_empty as f64),
    ];
    Outcome {
        metrics,
        extra,
        attempted: window.attempted + check.queries as u64,
        failed: window.failed + u64::from(check.first_mismatch.is_some()),
        problems,
        digest: Some(check.digest),
    }
}

/// The traced run: per-layer metrics and the span file.
fn run_traced(spec: &Spec, args: &Args) -> Outcome {
    let (inputs, gen_s) = generate(spec, args.seed);
    let run = walk::run(spec, &inputs, gen_s, args.seconds);
    let path = report::out_dir().join(format!("{}.trace.jsonl", spec.name));
    trace::write_jsonl(&run.spans, &path).expect("write the span file");
    Outcome {
        metrics: run.metrics,
        extra: Vec::new(),
        attempted: run.attempted,
        failed: run.failed,
        problems: run.problems,
        digest: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse_args(&argv(
            "--workload hot_repeat --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("hot_repeat"));
        assert_eq!((a.seed, a.seconds, a.trace, a.all), (7, 12.0, true, false));
        let a = parse_args(&argv("--workload fed_zipf --trace 0")).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
    }

    #[test]
    fn bare_trace_and_smoke_flags() {
        let a = parse_args(&argv("--workload big_tree --trace --smoke")).unwrap();
        assert!(a.trace);
        assert_eq!(a.seconds, SMOKE_SECONDS);
        let a = parse_args(&argv("--all --smoke --seconds 5")).unwrap();
        assert!(a.all && !a.trace);
        assert_eq!(a.seconds, 5.0);
    }

    #[test]
    fn bad_invocations_are_rejected() {
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("--all --workload fed_zipf")).is_err());
        assert!(parse_args(&argv("--workload fed_zipf --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload fed_zipf --seed")).is_err());
        assert!(parse_args(&argv("--workload fed_zipf --frobnicate")).is_err());
    }

    #[test]
    fn every_spec_is_reachable_by_name() {
        for s in &SPECS {
            assert_eq!(workload::spec(s.name).unwrap().name, s.name);
        }
        assert!(workload::spec("nope").is_none());
    }
}
