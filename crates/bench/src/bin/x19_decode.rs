//! X19 — block-decode kernel microbenchmark (beyond the paper's
//! artifacts).
//!
//! Isolates the two layers of the bit-packed block codec that the
//! query benches (X14–X16) only see blended into whole-query latency:
//!
//! * **kernel** — the runtime-dispatched [`unpack_bits`] (AVX2 on
//!   machines that have it) against the always-available scalar
//!   word-parallel kernel, unpacking the same fixed pseudo-random
//!   buffer at every bit width a block header can carry. The two must
//!   agree bit-for-bit — asserted here on every width and
//!   property-tested in `crates/index/tests/block_properties.rs` — so
//!   the only difference the table may show is speed.
//! * **streaming** — every postings list of a built engine decoded
//!   end-to-end (gap prefix sums, tf section, iterator overhead
//!   included): the figure query evaluation actually pays per posting.
//!
//! Writes `BENCH_decode.json` (override with `--out PATH`); pass
//! `--smoke` for the seconds-scale CI run. The artifact's
//! `decode_mints_per_s` is a reference figure for the docs: the
//! kernels' bit-for-bit agreement is what this binary asserts.
//!
//! [`unpack_bits`]: starts_index::blocks::unpack_bits

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starts_bench::{
    decode_mints_per_s, header, machine_parallelism, print_table, provenance_note, section,
    standard_corpus, BenchArgs,
};
use starts_index::blocks::{unpack_bits, unpack_bits_scalar};
use starts_index::{EngineConfig, ShardedEngine};

/// Every bit width worth a row: the dense low widths real doc-gap and
/// tf sections land on, the byte-aligned widths the AVX2 kernel
/// accelerates, and the 32-bit worst case.
const WIDTHS: &[u32] = &[1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32];

/// Packed input per width: 256 KiB of fixed pseudo-random bytes (plus
/// the 8-byte tail pad the word decoder requires).
const PACKED_BYTES: usize = 256 * 1024;

/// Output values per unpack call, capped so every width reads well
/// inside the packed buffer.
const COUNT: usize = 1 << 16;

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let out_path = args.out_or("BENCH_decode.json");
    let parallelism = machine_parallelism();
    let min_secs = if smoke { 0.05 } else { 0.25 };

    header("X19  block-decode kernels: dispatched vs scalar, plus streaming");
    let avx2 = avx2_available();
    println!(
        "machine parallelism: {parallelism}; avx2: {}",
        if avx2 { "yes" } else { "no" }
    );

    let mut rng = StdRng::seed_from_u64(0x1997_0526);
    let mut packed = vec![0u8; PACKED_BYTES + 8];
    for b in &mut packed[..PACKED_BYTES] {
        *b = rng.gen();
    }

    let mut rows = Vec::new();
    let mut kernel_json = Vec::new();
    let mut scalar_out = vec![0u32; COUNT];
    let mut dispatched_out = vec![0u32; COUNT];
    for &width in WIDTHS {
        let count = COUNT.min(if width == 0 {
            COUNT
        } else {
            PACKED_BYTES * 8 / width as usize
        });
        let scalar = bench_kernel(min_secs, count, || {
            unpack_bits_scalar(&packed, count, width, &mut scalar_out);
        });
        let dispatched = bench_kernel(min_secs, count, || {
            unpack_bits(&packed, count, width, &mut dispatched_out);
        });
        assert_eq!(
            scalar_out[..count],
            dispatched_out[..count],
            "kernels disagree at width {width}"
        );
        rows.push(vec![
            width.to_string(),
            format!("{scalar:.0}"),
            format!("{dispatched:.0}"),
            format!("{:.2}x", dispatched / scalar.max(1e-9)),
        ]);
        kernel_json.push(format!(
            "    {{\"width\": {width}, \"scalar_mints_per_s\": {scalar:.1}, \
             \"dispatched_mints_per_s\": {dispatched:.1}}}"
        ));
    }
    section("unpack kernels (millions of u32s per second)");
    print_table(&["width", "scalar", "dispatched", "speedup"], &rows);

    // Streaming: a real engine's whole postings store, decoded the way
    // query evaluation decodes it.
    let corpus = standard_corpus();
    let docs = corpus.all_docs();
    let engine = ShardedEngine::build(&docs, EngineConfig::default());
    let streaming = decode_mints_per_s(&engine, if smoke { 0.2 } else { 1.0 });
    section("streaming decode (full lists, prefix sums and iterator included)");
    println!(
        "{} docs, {} B block postings: {streaming:.1} M ints/s",
        docs.len(),
        engine.postings_footprint().block_bytes
    );

    let note = provenance_note(
        parallelism,
        "kernel rows unpack one fixed pseudo-random buffer; streaming decodes \
         a built engine's every postings list end-to-end",
    );
    let json = format!(
        "{{\n  \"bench\": \"x19_decode\",\n  \
         \"note\": \"{note}\",\n  \
         \"smoke\": {smoke},\n  \"machine_parallelism\": {parallelism},\n  \
         \"avx2\": {avx2},\n  \
         \"decode_mints_per_s\": {streaming:.1},\n  \
         \"kernels\": [\n{}\n  ]\n}}\n",
        kernel_json.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write BENCH_decode.json");
    println!("wrote {out_path}");
}

/// Whether the runtime dispatch in `unpack_bits` will pick the AVX2
/// kernel on this machine.
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Run `op` (which decodes `count` ints per call) until `min_secs` of
/// wall time has accumulated; returns millions of ints per second.
fn bench_kernel(min_secs: f64, count: usize, mut op: impl FnMut()) -> f64 {
    op(); // warm
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        op();
        calls += 1;
        if start.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    (calls * count as u64) as f64 / start.elapsed().as_secs_f64().max(1e-12) / 1e6
}
