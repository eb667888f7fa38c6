//! Property-based tests for the block postings codec and the
//! skip-capable cursor: bit-packed FOR encode/decode must round-trip
//! any posting list (including pathological tf runs and huge doc-id
//! gaps), agree stream-for-stream with the per-integer varint reference
//! codec it replaced, decode identically through the dispatched
//! (AVX2-capable) and scalar unpack kernels, survive hostile bytes
//! without panicking, and `next_geq` must land exactly where a linear
//! scan would, under arbitrary interleavings of `next` and `next_geq`.

use proptest::prelude::*;
use starts_index::{
    BlockCursor, BlockHeader, BlockPostings, DocId, Document, IndexBuilder, BLOCK_DOCS,
};
use starts_text::Analyzer;

/// An arbitrary posting list: strictly increasing doc ids built from
/// arbitrary positive gaps (1 to a whole-block-sized jump), each with an
/// arbitrary term frequency — including tf 0 and near-`u32::MAX` runs
/// the index itself never produces but the codec must not corrupt.
fn arb_postings() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec(
        (
            1u32..3 * BLOCK_DOCS as u32,
            prop_oneof![Just(0u32), 1u32..100, Just(u32::MAX - 1), Just(u32::MAX)],
        ),
        0..600,
    )
    .prop_map(|gaps| {
        let mut doc = 0u32;
        gaps.into_iter()
            .map(|(gap, tf)| {
                doc += gap;
                (doc, tf)
            })
            .collect()
    })
}

/// Edge-case posting lists the index itself rarely produces but the
/// codec must encode exactly: single-posting lists, doc ids at or next
/// to `u32::MAX - 1` (the largest legal id), gaps spanning most of the
/// id space, and `tf = u32::MAX`.
fn arb_extreme_postings() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec(
        (
            prop_oneof![
                Just(1u32),
                2u32..=3,
                Just(1 << 20),
                Just(u32::MAX / 2),
                Just(u32::MAX - 2),
            ],
            prop_oneof![Just(0u32), Just(1u32), Just(u32::MAX - 1), Just(u32::MAX)],
        ),
        1..6,
    )
    .prop_map(|gaps| {
        let mut doc = 0u64;
        let mut out = Vec::new();
        for (gap, tf) in gaps {
            doc += u64::from(gap);
            // Doc ids must stay below the EXHAUSTED sentinel (u32::MAX).
            if doc >= u64::from(u32::MAX) {
                break;
            }
            out.push((doc as u32, tf));
        }
        if out.is_empty() {
            out.push((u32::MAX - 1, u32::MAX));
        }
        out
    })
}

/// The reference codec the block store replaced: per-integer LEB128
/// varints over doc gaps and tfs. It is the ground truth the bit-packed
/// frames are proven equivalent to — both decode back to the same
/// `(doc, tf)` stream on every list.
fn varint_encode(postings: &[(u32, u32)]) -> Vec<u8> {
    fn put(out: &mut Vec<u8>, mut v: u32) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                break;
            }
            out.push(b | 0x80);
        }
    }
    let mut out = Vec::new();
    let mut prev = 0u32;
    for &(doc, tf) in postings {
        put(&mut out, doc - prev);
        put(&mut out, tf);
        prev = doc;
    }
    out
}

fn varint_decode(src: &[u8], n: usize) -> Vec<(u32, u32)> {
    fn get(src: &[u8], pos: &mut usize) -> u32 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = src[*pos];
            *pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return v as u32;
            }
            shift += 7;
        }
    }
    let mut out = Vec::with_capacity(n);
    let mut pos = 0;
    let mut doc = 0u32;
    for i in 0..n {
        let gap = get(src, &mut pos);
        let tf = get(src, &mut pos);
        doc = if i == 0 { gap } else { doc + gap };
        out.push((doc, tf));
    }
    out
}

/// Walk a block list back into `(doc, tf)` pairs through the cursor.
fn decode_via_cursor(list: &BlockPostings) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut cursor = BlockCursor::new(list.view());
    while !cursor.is_exhausted() {
        out.push((cursor.doc(), cursor.tf()));
        cursor.next();
    }
    out
}

fn arb_header() -> impl Strategy<Value = BlockHeader> {
    (
        any::<u32>(),
        // Bias toward the valid ranges so decode sometimes gets past
        // the header checks and into the data path.
        prop_oneof![1u16..=BLOCK_DOCS as u16, any::<u16>()],
        prop_oneof![0u8..=32, any::<u8>()],
        prop_oneof![0u8..=32, any::<u8>()],
        prop_oneof![0u32..=256, any::<u32>()],
    )
        .prop_map(|(max_doc, count, doc_bits, tf_bits, offset)| BlockHeader {
            max_doc,
            count,
            doc_bits,
            tf_bits,
            offset,
        })
}

/// One cursor operation: a single-step advance or a seek relative to
/// the current doc (0 = a no-op backward/at-current seek, larger =
/// anywhere from within the current block to several blocks ahead).
#[derive(Debug, Clone, Copy)]
enum Op {
    Next,
    NextGeq(u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Op::Next),
            (0u32..5 * BLOCK_DOCS as u32).prop_map(Op::NextGeq),
        ],
        0..80,
    )
}

/// Which of `n` documents hold the probe term, and how often. The
/// member counts pin the block shapes a point lookup can land in: a
/// lone single-doc block, exactly full blocks, a single-doc last block
/// after full ones, and arbitrary last-block tails.
fn arb_membership() -> impl Strategy<Value = Vec<u32>> {
    let b = BLOCK_DOCS;
    let max = 3 * b + 40;
    (
        prop_oneof![Just(1usize), Just(b), Just(b + 1), Just(2 * b + 1), 1..max,],
        proptest::collection::vec((1u32..5, any::<bool>()), max),
    )
        .prop_map(|(members, drawn)| {
            // A non-member document (tf 0) after some members, so
            // absent ids fall inside blocks as well as past the end.
            drawn
                .into_iter()
                .take(members)
                .flat_map(|(tf, gap)| if gap { vec![tf, 0] } else { vec![tf] })
                .collect()
        })
}

proptest! {
    /// `PostingsList::find` — header seek plus one block decoded on the
    /// stack — answers exactly what a linear scan of the list does, for
    /// members and non-members alike.
    #[test]
    fn find_equals_linear_scan(tfs in arb_membership()) {
        let mut builder = IndexBuilder::new(Analyzer::default());
        for &tf in &tfs {
            let text = match tf {
                0 => "filler".to_string(),
                n => vec!["probe"; n as usize].join(" "),
            };
            builder.add(&Document::new().field("body-of-text", text));
        }
        let index = builder.build();
        let body = index.schema().get("body-of-text").expect("an indexed field");
        let list = index.postings(body, "probe").expect("at least one member");
        let scanned: Vec<(DocId, u32)> = list.docs_tfs().collect();
        prop_assert_eq!(scanned.len(), tfs.iter().filter(|&&tf| tf > 0).count());
        for doc in (0..tfs.len() as u32 + 2).map(DocId) {
            let expect = scanned
                .iter()
                .position(|&(d, _)| d == doc)
                .map(|i| (i, scanned[i].1));
            prop_assert_eq!(list.find(doc), expect, "doc={:?}", doc);
            prop_assert_eq!(list.tf_of(doc), expect.map_or(0, |(_, tf)| tf));
        }
    }

    /// Encode → decode is the identity, block structure included.
    #[test]
    fn codec_round_trips(postings in arb_postings()) {
        let list = BlockPostings::encode(&postings);
        prop_assert_eq!(list.view().len(), postings.len() as u64);
        prop_assert_eq!(list.view().n_blocks(), postings.len().div_ceil(BLOCK_DOCS));
        let mut cursor = BlockCursor::new(list.view());
        for &(doc, tf) in &postings {
            prop_assert!(!cursor.is_exhausted());
            prop_assert_eq!((cursor.doc(), cursor.tf()), (doc, tf));
            cursor.next();
        }
        prop_assert!(cursor.is_exhausted());
        // Header fence posts are exactly the per-block last doc ids.
        for b in 0..list.view().n_blocks() {
            let chunk = &postings[b * BLOCK_DOCS..((b + 1) * BLOCK_DOCS).min(postings.len())];
            prop_assert_eq!(list.view().header(b).max_doc, chunk.last().unwrap().0);
            prop_assert_eq!(usize::from(list.view().header(b).count), chunk.len());
        }
        // Every posting visited once, no block ever jumped.
        prop_assert_eq!(cursor.visited(), postings.len() as u64);
        prop_assert_eq!(cursor.blocks_skipped(), 0);
    }

    /// Under any interleaving of `next` / `next_geq`, the skipping
    /// cursor tracks a linear-scan reference position exactly, and its
    /// work counters stay consistent (visited ≤ len, each posting
    /// counted at most once).
    #[test]
    fn next_geq_equals_linear_scan(postings in arb_postings(), ops in arb_ops()) {
        let list = BlockPostings::encode(&postings);
        let mut cursor = BlockCursor::new(list.view());
        let mut pos = 0usize; // reference: index into `postings`
        for op in ops {
            match op {
                Op::Next => {
                    if pos < postings.len() {
                        pos += 1;
                    }
                    cursor.next();
                }
                Op::NextGeq(delta) => {
                    if pos >= postings.len() {
                        continue;
                    }
                    // Seek targets relative to the current doc so they
                    // land before, at, inside, and past the current
                    // block with roughly equal probability.
                    let target = postings[pos].0.saturating_add(delta);
                    while pos < postings.len() && postings[pos].0 < target {
                        pos += 1;
                    }
                    cursor.next_geq(target);
                }
            }
            match postings.get(pos) {
                Some(&(doc, tf)) => {
                    prop_assert!(!cursor.is_exhausted());
                    prop_assert_eq!((cursor.doc(), cursor.tf()), (doc, tf));
                }
                None => prop_assert!(cursor.is_exhausted()),
            }
        }
        prop_assert!(cursor.visited() <= list.view().len());
        prop_assert!(cursor.blocks_skipped() as usize <= list.view().n_blocks());
    }

    /// The bit-packed frames and the varint reference codec are
    /// equivalent: both losslessly round-trip every list, so their
    /// decoded streams are identical.
    #[test]
    fn bitpacked_agrees_with_varint_reference(postings in arb_postings()) {
        let packed = decode_via_cursor(&BlockPostings::encode(&postings));
        let varint = varint_decode(&varint_encode(&postings), postings.len());
        prop_assert_eq!(&packed, &postings);
        prop_assert_eq!(&varint, &postings);
        prop_assert_eq!(packed, varint);
    }

    /// The equivalence holds at the extremes: single-posting lists,
    /// near-`u32::MAX` doc ids and gaps, and `tf = u32::MAX` — all of
    /// which force 32-bit frame widths.
    #[test]
    fn extreme_lists_round_trip_both_codecs(postings in arb_extreme_postings()) {
        let list = BlockPostings::encode(&postings);
        let packed = decode_via_cursor(&list);
        let varint = varint_decode(&varint_encode(&postings), postings.len());
        prop_assert_eq!(&packed, &postings);
        prop_assert_eq!(packed, varint);
        // The strict and lenient decoders agree on well-formed frames.
        for b in 0..list.view().n_blocks() {
            let (docs, tfs) = list.view().try_decode_block(b).expect("valid block");
            let lo = b * BLOCK_DOCS;
            let hi = (lo + BLOCK_DOCS).min(postings.len());
            prop_assert_eq!(docs, postings[lo..hi].iter().map(|p| p.0).collect::<Vec<_>>());
            prop_assert_eq!(tfs, postings[lo..hi].iter().map(|p| p.1).collect::<Vec<_>>());
        }
    }

    /// The runtime-dispatched unpack kernel (AVX2 where the CPU has it)
    /// and the scalar word-parallel kernel produce identical lanes on
    /// arbitrary byte streams, at every width.
    #[test]
    fn dispatched_unpack_equals_scalar(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        width in 0u32..=32,
    ) {
        let count = if width == 0 { 200 } else { (bytes.len() * 8) / width as usize };
        let mut src = bytes;
        src.extend_from_slice(&[0u8; 8]); // the codec's tail pad
        let mut dispatched = vec![0u32; count];
        let mut scalar = vec![0u32; count];
        starts_index::blocks::unpack_bits(&src, count, width, &mut dispatched);
        starts_index::blocks::unpack_bits_scalar(&src, count, width, &mut scalar);
        prop_assert_eq!(dispatched, scalar);
    }

    /// Hostile bytes: arbitrary headers over arbitrary data must never
    /// panic the lenient decoder — it returns `None` for anything that
    /// fails validation and decodes only in-bounds frames.
    #[test]
    fn hostile_bytes_never_panic(
        headers in proptest::collection::vec(arb_header(), 0..8),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        len in any::<u64>(),
    ) {
        let list = BlockPostings::from_raw_parts(headers, data, len);
        for b in 0..list.view().n_blocks() {
            let _ = list.view().try_decode_block(b);
        }
    }

    /// `block_for` is a pure header lookup: it agrees with where a real
    /// seek lands, and never moves the cursor.
    #[test]
    fn block_for_predicts_the_seek(postings in arb_postings(), target_gap in 0u32..10 * BLOCK_DOCS as u32) {
        prop_assume!(!postings.is_empty());
        let list = BlockPostings::encode(&postings);
        let cursor = BlockCursor::new(list.view());
        let target = postings[0].0.saturating_add(target_gap);
        let predicted = cursor.block_for(target);
        prop_assert_eq!(cursor.doc(), postings[0].0, "lookup moved the cursor");
        let mut seeker = BlockCursor::new(list.view());
        seeker.next_geq(target);
        match predicted {
            Some(b) => prop_assert_eq!(seeker.block_index(), b),
            None => prop_assert!(seeker.is_exhausted()),
        }
    }
}
