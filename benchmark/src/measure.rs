//! The closed-loop load generator, the harness math (percentiles,
//! `/proc` parsing) and the cross-path correctness check.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use starts_meta::merge::MergedDoc;
use starts_meta::Metasearcher;
use starts_proto::Query;
use starts_serve::{Served, Server};

use crate::setup::Deployment;
use crate::workload::{Inputs, Schedule, Spec};

// ---- harness math ----------------------------------------------------

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&p));
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond
/// it: `(value, percentile in %)`, or `None` under eleven samples.
pub fn tail(sorted: &[u64]) -> Option<(u64, f64)> {
    let index = sorted.len().checked_sub(11)?;
    Some((
        sorted[index],
        100.0 * (index + 1) as f64 / sorted.len() as f64,
    ))
}

/// [`tail`] in µs, `(0, 0)` when there are too few samples for one.
pub fn tail_us(sorted_ns: &[u64]) -> (f64, f64) {
    tail(sorted_ns).map_or((0.0, 0.0), |(v, p)| (v as f64 / 1e3, p))
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

/// `utime + stime` of `/proc/<pid>/stat`, in clock ticks. The command
/// name (field 2) may itself contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state is field 3, utime 14, stime 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Process CPU (user + system, all threads) so far, in ms. Linux reports
/// ticks of 1/100 s (`USER_HZ`, fixed by the kernel ABI on every port).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 * 10.0
}

pub fn process_peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("parse VmHWM") as f64 / 1024.0
}

// ---- closed loop -----------------------------------------------------

/// The merged length of each pool query's first execution; every later
/// response to the same query must match it.
pub struct FirstLengths(Vec<AtomicU32>);

const UNSEEN: u32 = u32::MAX;

impl FirstLengths {
    pub fn new(pool: usize) -> Self {
        FirstLengths((0..pool).map(|_| AtomicU32::new(UNSEEN)).collect())
    }

    /// Record `len` for query `index`, or compare against the record.
    pub fn agrees(&self, index: usize, len: usize) -> bool {
        let len = len as u32;
        match self.0[index].compare_exchange(UNSEEN, len, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => true,
            Err(first) => first == len,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time since the loop's start.
    pub done_ns: u64,
    pub latency_ns: u64,
    pub via: Served,
}

#[derive(Debug, Default)]
pub struct LoopResult {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// `Err` + `partial` + length-mismatch responses.
    pub failed: u64,
    pub shed: u64,
    pub partial: u64,
    /// Responses whose merged length differs from the first execution
    /// of the same query: wrong output, not just a refused request.
    pub mismatched: u64,
    pub elapsed_s: f64,
    pub cpu_ms: f64,
    pub invalidate_ns: Vec<u64>,
}

impl LoopResult {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn latencies_sorted(&self, via: Option<Served>) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| via.is_none_or(|want| s.via == want))
            .map(|s| s.latency_ns)
            .collect();
        v.sort_unstable();
        v
    }

    pub fn share(&self, via: Served) -> f64 {
        let n = self.samples.iter().filter(|s| s.via == via).count();
        n as f64 / self.samples.len().max(1) as f64
    }

    /// Completion rate of each of `chunks` equal shares of the loop's
    /// completions, in order of completion. The median of these is
    /// `qps`: one stalled stretch (a neighbour on a shared box) moves it
    /// far less than it moves the window mean.
    pub fn chunk_rates(&self, chunks: usize) -> Vec<f64> {
        let mut done: Vec<u64> = self.samples.iter().map(|s| s.done_ns).collect();
        done.sort_unstable();
        let size = (done.len() / chunks).max(1);
        let mut rates = Vec::with_capacity(chunks);
        let mut chunk_start = 0;
        for chunk in done.chunks_exact(size) {
            let chunk_end = *chunk.last().expect("chunks are non-empty");
            rates.push(size as f64 * 1e9 / (chunk_end - chunk_start).max(1) as f64);
            chunk_start = chunk_end;
        }
        rates
    }
}

/// Everything a client thread needs to issue the workload's requests.
pub struct Load<'a> {
    pub server: &'a Server,
    pub queries: &'a [Query],
    pub schedule: Schedule<'a>,
    pub source_ids: &'a [String],
    /// The global request counter; warm-up and the timed window share it.
    pub counter: AtomicU64,
    pub first_lengths: FirstLengths,
}

impl<'a> Load<'a> {
    pub fn new(spec: &Spec, inputs: &'a Inputs, d: &'a Deployment) -> Self {
        Load {
            server: &d.server,
            queries: &inputs.queries,
            schedule: Schedule {
                sequence: &inputs.sequence,
                invalidate_every: spec.invalidate_every,
                n_sources: d.source_ids.len(),
            },
            source_ids: &d.source_ids,
            counter: AtomicU64::new(0),
            first_lengths: FirstLengths::new(inputs.queries.len()),
        }
    }
}

/// `clients` threads, each sending its next request only after the
/// previous one completed, for `duration`.
pub fn closed_loop(load: &Load<'_>, clients: usize, duration: Duration) -> LoopResult {
    let sink: Mutex<LoopResult> = Mutex::new(LoopResult::default());
    let barrier = Barrier::new(clients + 1);
    let mut start = Instant::now();
    let mut cpu_start = 0.0;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut local = LoopResult::default();
                barrier.wait();
                let start = Instant::now();
                while start.elapsed() < duration {
                    let n = load.counter.fetch_add(1, Ordering::Relaxed);
                    if let Some(slot) = load.schedule.invalidation(n) {
                        let t = Instant::now();
                        load.server.invalidate_source(&load.source_ids[slot]);
                        local.invalidate_ns.push(t.elapsed().as_nanos() as u64);
                    }
                    let index = load.schedule.query_index(n);
                    let t = Instant::now();
                    let outcome = load.server.search(&load.queries[index]);
                    let latency_ns = t.elapsed().as_nanos() as u64;
                    local.attempted += 1;
                    match outcome {
                        Ok(o) => {
                            // A partial response is short by design;
                            // only a complete one is held to the record.
                            let agrees = o.response.partial
                                || load.first_lengths.agrees(index, o.response.merged.len());
                            let ok = agrees && !o.response.partial;
                            local.partial += u64::from(o.response.partial);
                            local.mismatched += u64::from(!agrees);
                            local.failed += u64::from(!ok);
                            if ok {
                                local.samples.push(Sample {
                                    done_ns: start.elapsed().as_nanos() as u64,
                                    latency_ns,
                                    via: o.via,
                                });
                            }
                        }
                        Err(_) => {
                            local.shed += 1;
                            local.failed += 1;
                        }
                    }
                }
                let mut sink = sink.lock().expect("result sink");
                sink.samples.append(&mut local.samples);
                sink.invalidate_ns.append(&mut local.invalidate_ns);
                sink.attempted += local.attempted;
                sink.failed += local.failed;
                sink.shed += local.shed;
                sink.partial += local.partial;
                sink.mismatched += local.mismatched;
            });
        }
        cpu_start = process_cpu_ms();
        start = Instant::now();
        barrier.wait();
    });
    let mut result = sink.into_inner().expect("result sink");
    result.elapsed_s = start.elapsed().as_secs_f64();
    result.cpu_ms = process_cpu_ms() - cpu_start;
    result
}

// ---- correctness -----------------------------------------------------

/// A merged rank reduced to what the check compares: `(linkage, score
/// bits)`, with every run of equal scores ordered by linkage. Within a
/// tie the merger's order follows `HashMap` iteration, which differs
/// from process to process; the tie run's *members* do not.
pub fn canonical(merged: &[MergedDoc]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = merged
        .iter()
        .map(|d| (d.linkage.clone(), d.score.to_bits()))
        .collect();
    let mut i = 0;
    while i < out.len() {
        let mut j = i + 1;
        while j < out.len() && out[j].1 == out[i].1 {
            j += 1;
        }
        out[i..j].sort();
        i = j;
    }
    out
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
pub struct CrossPath {
    pub queries: usize,
    /// Pool index of the first query on which the two paths disagreed.
    pub first_mismatch: Option<usize>,
    /// FNV-1a over every query's canonical `Server::search` rank.
    pub digest: u64,
    /// Queries whose merged rank was non-empty (a dead workload would
    /// pass equality vacuously).
    pub non_empty: usize,
}

/// Run the first `n` pool queries once through `Server::search` (cache
/// cold) and once through `Metasearcher::search` on the same net and
/// catalog; the canonical ranks must be equal.
pub fn cross_path_check(
    server: &Server,
    meta: &Metasearcher<'_>,
    queries: &[Query],
    n: usize,
    first_lengths: &FirstLengths,
) -> CrossPath {
    let mut fnv = Fnv::new();
    let mut first_mismatch = None;
    let mut non_empty = 0;
    let n = n.min(queries.len());
    for (index, query) in queries[..n].iter().enumerate() {
        let served = server
            .search(query)
            .map(|o| (o.response.partial, canonical(&o.response.merged)));
        let direct = canonical(&meta.search(query).merged);
        let equal = matches!(&served, Ok((false, rank)) if *rank == direct)
            && first_lengths.agrees(index, direct.len());
        if !equal && first_mismatch.is_none() {
            first_mismatch = Some(index);
        }
        let rank = served.map(|(_, rank)| rank).unwrap_or_default();
        non_empty += usize::from(!rank.is_empty());
        fnv.write(&(rank.len() as u32).to_le_bytes());
        for (linkage, bits) in &rank {
            fnv.write(linkage.as_bytes());
            fnv.write(&bits.to_le_bytes());
        }
    }
    CrossPath {
        queries: n,
        first_mismatch,
        digest: fnv.finish(),
        non_empty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // 1,000 samples: p99 is the 990th, ten lie beyond it.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), 990);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        assert_eq!(tail(&(1..=10).collect::<Vec<u64>>()), None);
        // Eleven samples: only the minimum has ten beyond it.
        let (v, pct) = tail(&(1..=11).collect::<Vec<u64>>()).unwrap();
        assert_eq!(v, 1);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        // 1,000 samples: exactly p99.
        let (v, pct) = tail(&(1..=1000).collect::<Vec<u64>>()).unwrap();
        assert_eq!((v, pct), (990, 99.0));
        // 100,000 samples: p99.99.
        let (v, pct) = tail(&(1..=100_000).collect::<Vec<u64>>()).unwrap();
        assert_eq!(v, 99_990);
        assert!((pct - 99.99).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn proc_stat_parses_past_a_hostile_command_name() {
        let stat = "4242 (e2e (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 56 0 0 20 0 5 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1290));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_parses_from_a_canned_status() {
        let status = "Name:\te2e\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\te2e\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(process_peak_rss_mib() > 0.0);
    }

    #[test]
    fn first_lengths_record_then_compare() {
        let f = FirstLengths::new(2);
        assert!(f.agrees(0, 10));
        assert!(f.agrees(0, 10));
        assert!(!f.agrees(0, 9));
        assert!(f.agrees(1, 0));
        assert!(!f.agrees(1, 10));
    }

    #[test]
    fn canonical_orders_tie_runs_only() {
        let doc = |l: &str, s: f64| MergedDoc {
            linkage: l.to_string(),
            title: None,
            score: s,
            sources: Vec::new(),
        };
        let a = canonical(&[doc("z", 2.0), doc("c", 1.0), doc("b", 1.0), doc("a", 0.5)]);
        let b = canonical(&[doc("z", 2.0), doc("b", 1.0), doc("c", 1.0), doc("a", 0.5)]);
        assert_eq!(a, b);
        assert_eq!(a[0].0, "z");
        assert_eq!(a[3].0, "a");
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn chunk_rates_time_equal_shares_of_the_completions() {
        let at = |s: f64| Sample {
            done_ns: (s * 1e9) as u64,
            latency_ns: 1,
            via: Served::Executed,
        };
        // Two completions in the first second, two in the next half
        // second, two in the two seconds after; one left over.
        let r = LoopResult {
            samples: vec![
                at(2.5),
                at(0.5),
                at(1.0),
                at(1.25),
                at(1.5),
                at(3.5),
                at(3.6),
            ],
            ..LoopResult::default()
        };
        assert_eq!(r.chunk_rates(3), vec![2.0, 4.0, 1.0]);
        assert!(LoopResult::default().chunk_rates(10).is_empty());
    }
}
