//! Fixed-size bit-packed block postings and the skip-capable cursor —
//! the storage layer behind Block-Max-WAND pruning (see
//! `docs/performance.md` § Block codec & memory footprint).
//!
//! Every posting list is chunked into blocks of at most [`BLOCK_DOCS`]
//! documents. Within a block, doc ids are delta-encoded against the
//! previous posting (the previous *block's* last doc for the block's
//! first entry) and stored as **FOR-style bit-packed frames**: the block
//! header records the bit width of the widest doc-gap and the widest
//! term frequency, and every value in the block is packed at exactly
//! that width, LSB-first. Each block carries a small uncompressed
//! header — last doc id, posting count, the two widths, byte offset —
//! so a cursor can decide whether a block can contain a target document,
//! and what the block's best score is, *without decoding it*. `next_geq`
//! seeks by header, decodes only the landing block, and counts every
//! block it jumped clean over.
//!
//! Layout of one encoded list (`B` = number of blocks):
//!
//! ```text
//! headers: [ {max_doc, count, doc_bits, tf_bits, offset} ; B ]   (12 B each)
//! data:    [ block 0 frame | block 1 frame | … | block B-1 frame | pad ]
//! frame b: [ Δdoc × count_b  @ doc_bits ] [ tf × count_b @ tf_bits ]
//!          each section bit-packed LSB-first and padded to a byte
//!          boundary; Δdoc of the first entry is against
//!          headers[b-1].max_doc (0 for block 0), so any block decodes
//!          independently.
//! pad:     8 zero bytes, so the word-parallel decoder may always read
//!          whole u64 words without running off the buffer.
//! ```
//!
//! Decoding is word-parallel: the scalar kernel is monomorphized per
//! width and reads each value with one unaligned `u64` load at a
//! compile-time-constant offset and shift (eight values always realign
//! to a byte boundary, so there is no carried bit-buffer and no
//! per-value byte loop), and on `x86_64` an AVX2 kernel — selected by
//! runtime feature detection, bit-identical to the scalar path —
//! widens whole 32-lane groups at the byte-aligned widths (8/16/32).
//! SSE2-only or non-x86 machines always take the scalar kernel.
//!
//! One codec, two owners: every decode method lives on [`BlockView`],
//! a borrowed `Copy` view of one list's headers and frame bytes. An
//! [`crate::Index`] lends views into its per-index arenas (one list's
//! headers and bytes sit back to back with the next key's, each list
//! keeping its own tail pad); an owned [`BlockPostings`] — what
//! [`BlockPostings::encode`] returns — lends a view of its own two
//! buffers. Both are byte-identical for the same postings, and the
//! cursor cannot tell them apart.
//!
//! Score bounds are *not* stored here — they depend on the ranking
//! algorithm, so the engine keeps them in its [`crate::TermBounds`]
//! sidecar and hands a key's per-block slice to
//! [`BlockCursor::with_bounds`].

/// Documents per block. 128 keeps headers tiny (one per 128 postings)
/// while making a skipped block worth ~128 avoided score evaluations.
pub const BLOCK_DOCS: usize = 128;

/// The sentinel [`BlockCursor::doc`] returns once a cursor is past its
/// last posting. Doc ids are `Vec` indices (`DocId(u32)`), so a real
/// document can never carry this id.
pub const EXHAUSTED: u32 = u32::MAX;

/// Zero bytes appended after the last frame so the u64-word decoder can
/// always load a full word at the tail of the final section.
pub(crate) const PAD_BYTES: usize = 8;

/// The uncompressed per-block header: everything a cursor may read
/// without decoding the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// The last (largest) doc id in the block.
    pub max_doc: u32,
    /// Postings in the block (`1..=BLOCK_DOCS`).
    pub count: u16,
    /// Bit width of the block's packed doc-gap section (`0..=32`).
    pub doc_bits: u8,
    /// Bit width of the block's packed term-frequency section (`0..=32`).
    pub tf_bits: u8,
    /// Byte offset of the block's frame in the data stream.
    pub offset: u32,
}

/// One posting list, block-compressed and owned: per-block headers
/// plus one contiguous stream of bit-packed frames. Read it through
/// [`BlockPostings::view`].
#[derive(Debug, Clone, Default)]
pub struct BlockPostings {
    headers: Vec<BlockHeader>,
    data: Vec<u8>,
    len: u64,
    sum_tf: u64,
}

/// One posting list's blocks, borrowed: its headers and its frame bytes
/// (tail pad included), wherever they are stored — an [`crate::Index`]'s
/// arenas or a [`BlockPostings`]. Every decode runs here.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockView<'a> {
    headers: &'a [BlockHeader],
    data: &'a [u8],
    len: u64,
    sum_tf: u64,
}

/// Packed byte length of `count` values at `width` bits each.
#[inline]
fn packed_byte_len(count: usize, width: u32) -> usize {
    (count * width as usize).div_ceil(8)
}

/// Bits needed to represent `v` (0 for 0).
#[inline]
pub(crate) fn bits_for(v: u32) -> u32 {
    32 - v.leading_zeros()
}

impl BlockPostings {
    /// Encode a posting list given as `(doc, tf)` pairs with strictly
    /// increasing doc ids below [`EXHAUSTED`]: one
    /// [`BlockPostings::push_block`] per [`BLOCK_DOCS`] chunk, then
    /// [`BlockPostings::finish`].
    ///
    /// # Panics
    /// Panics (debug builds) when doc ids are not strictly increasing.
    pub fn encode(postings: &[(u32, u32)]) -> Self {
        let mut list = BlockPostings::default();
        for chunk in postings.chunks(BLOCK_DOCS) {
            list.push_block(chunk);
        }
        list.finish();
        list
    }

    /// Append one block of `1..=BLOCK_DOCS` `(doc, tf)` postings. Doc
    /// ids continue strictly increasing from the previous block's last;
    /// every block but the last must be full (posting ordinals are
    /// `block * BLOCK_DOCS + i`). This is how the index builder freezes
    /// a list block by block as it fills.
    ///
    /// # Panics
    /// Panics (debug builds) on an empty or oversized block, a block
    /// after a partial one, or when doc ids are not strictly increasing.
    pub fn push_block(&mut self, postings: &[(u32, u32)]) {
        self.sum_tf += push_block_at(&mut self.headers, &mut self.data, (0, 0), postings);
        self.len += postings.len() as u64;
    }

    /// Seal the list after its last [`BlockPostings::push_block`]:
    /// append the decoder's tail pad and release spare capacity.
    pub fn finish(&mut self) {
        if !self.headers.is_empty() {
            self.data.extend_from_slice(&[0u8; PAD_BYTES]);
        }
        self.headers.shrink_to_fit();
        self.data.shrink_to_fit();
    }

    /// Reassemble a list from raw parts *without validation* — the entry
    /// point for hostile-bytes fuzzing of the lenient decoder. A list
    /// built this way must only be decoded through
    /// [`BlockView::try_decode_block`], which checks every header
    /// invariant before touching the data.
    pub fn from_raw_parts(headers: Vec<BlockHeader>, data: Vec<u8>, len: u64) -> Self {
        BlockPostings {
            headers,
            data,
            len,
            sum_tf: 0,
        }
    }

    /// The list's blocks as a borrowed view — what cursors and decoders
    /// read.
    pub fn view(&self) -> BlockView<'_> {
        BlockView::new(&self.headers, &self.data, self.len, self.sum_tf)
    }
}

impl<'a> BlockView<'a> {
    /// One list's headers and frame bytes (tail pad included), whose
    /// header offsets count from `data[0]`, plus its posting count and
    /// tf sum.
    pub(crate) fn new(headers: &'a [BlockHeader], data: &'a [u8], len: u64, sum_tf: u64) -> Self {
        BlockView {
            headers,
            data,
            len,
            sum_tf,
        }
    }

    /// The headers and frame bytes (tail pad included) — the inverse of
    /// [`BlockPostings::from_raw_parts`], for byte-level comparisons of
    /// encoders.
    #[doc(hidden)]
    pub fn raw_parts(&self) -> (&'a [BlockHeader], &'a [u8]) {
        (self.headers, self.data)
    }

    /// Total postings across all blocks.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the list holds no postings.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all term frequencies in the list (total postings count in
    /// the content-summary sense).
    pub fn total_tf(&self) -> u64 {
        self.sum_tf
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.headers.len()
    }

    /// The header of block `b`.
    pub fn header(&self, b: usize) -> &'a BlockHeader {
        &self.headers[b]
    }

    /// Bytes held by this list: the packed frames (incl. the tail pad)
    /// plus the headers.
    pub fn bytes(&self) -> u64 {
        (self.data.len() + std::mem::size_of_val(self.headers)) as u64
    }

    /// Decode only block `b`'s doc ids (gap unpack + prefix sum). The
    /// cursor uses this on every landing block and defers
    /// [`BlockView::decode_block_tfs_range`] until a tf is actually read
    /// — blocks that are bounded out never pay for their tf section.
    pub(crate) fn decode_block_docs(&self, b: usize, docs: &mut Vec<u32>) {
        docs.clear();
        docs.resize(usize::from(self.headers[b].count), 0);
        self.decode_block_docs_into(b, docs);
    }

    /// [`BlockView::decode_block_docs`] into caller-provided scratch of
    /// at least the block's count (a `[u32; BLOCK_DOCS]` on the stack
    /// always fits). Returns the block's count.
    pub(crate) fn decode_block_docs_into(&self, b: usize, docs: &mut [u32]) -> usize {
        let h = self.headers[b];
        let count = usize::from(h.count);
        let docs = &mut docs[..count];
        unpack_bits(
            &self.data[h.offset as usize..],
            count,
            h.doc_bits.into(),
            docs,
        );
        let mut prev = if b == 0 {
            0
        } else {
            self.headers[b - 1].max_doc
        };
        for d in docs.iter_mut() {
            prev = prev.wrapping_add(*d);
            *d = prev;
        }
        count
    }

    /// Decode block `b`'s term frequencies into caller-provided scratch
    /// of at least the block's count.
    pub(crate) fn decode_block_tfs_into(&self, b: usize, tfs: &mut [u32]) {
        self.decode_block_tfs_range(b, 0, usize::from(self.headers[b].count), tfs);
    }

    /// Decode block `b`'s term frequencies `start..end` into
    /// `tfs[start..end]`. `start` must be a multiple of 8: eight values
    /// at any width end on a byte boundary, so the range starts on one.
    pub(crate) fn decode_block_tfs_range(
        &self,
        b: usize,
        start: usize,
        end: usize,
        tfs: &mut [u32],
    ) {
        debug_assert!(start.is_multiple_of(8) && start <= end);
        let h = self.headers[b];
        let width = u32::from(h.tf_bits);
        let base = h.offset as usize
            + packed_byte_len(h.count.into(), h.doc_bits.into())
            + packed_byte_len(start, width);
        unpack_bits(&self.data[base..], end - start, width, &mut tfs[start..end]);
    }

    /// Where posting `i` of block `b` sits in the block's positional
    /// frame: the sum of the term frequencies before it, and its own.
    /// Decodes only the first `i + 1` tfs.
    pub(crate) fn tf_prefix(&self, b: usize, i: usize) -> (usize, u32) {
        let mut tfs = [0u32; BLOCK_DOCS];
        self.decode_block_tfs_range(b, 0, i + 1, &mut tfs);
        (tfs[..i].iter().map(|&tf| tf as usize).sum(), tfs[i])
    }

    /// Lenient decode of block `b`: validates the header against the
    /// data before unpacking and returns `None` instead of panicking on
    /// any malformed input (bad widths, counts, offsets, truncated
    /// data). This is the path fuzzed with hostile bytes.
    pub fn try_decode_block(&self, b: usize) -> Option<(Vec<u32>, Vec<u32>)> {
        let h = *self.headers.get(b)?;
        let count = usize::from(h.count);
        if count == 0 || count > BLOCK_DOCS || h.doc_bits > 32 || h.tf_bits > 32 {
            return None;
        }
        let base = h.offset as usize;
        let doc_bytes = packed_byte_len(count, h.doc_bits.into());
        let tf_bytes = packed_byte_len(count, h.tf_bits.into());
        // The word decoder may overrun a section by up to 7 bytes; the
        // pad requirement keeps every u64 load inside `data`.
        let end = base
            .checked_add(doc_bytes)?
            .checked_add(tf_bytes)?
            .checked_add(PAD_BYTES)?;
        if end > self.data.len() {
            return None;
        }
        let mut docs = vec![0u32; count];
        let mut tfs = vec![0u32; count];
        unpack_bits(&self.data[base..], count, h.doc_bits.into(), &mut docs);
        unpack_bits(
            &self.data[base + doc_bytes..],
            count,
            h.tf_bits.into(),
            &mut tfs,
        );
        let mut prev = if b == 0 {
            0u32
        } else {
            self.headers[b - 1].max_doc
        };
        for d in docs.iter_mut() {
            prev = prev.wrapping_add(*d);
            *d = prev;
        }
        Some((docs, tfs))
    }
}

/// The bit widths of one block's doc-gap and tf sections, `prev` being
/// the list's previous block's last doc (`None` for its first block).
fn block_widths(prev: Option<u32>, postings: &[(u32, u32)]) -> (u32, u32) {
    debug_assert!(
        !postings.is_empty() && postings.len() <= BLOCK_DOCS,
        "a block holds 1..=BLOCK_DOCS postings"
    );
    let (mut last, mut first) = (prev.unwrap_or(0), prev.is_none());
    let (mut doc_bits, mut tf_bits) = (0u32, 0u32);
    for &(doc, tf) in postings {
        debug_assert!(
            doc < EXHAUSTED && (first && doc >= last || doc > last),
            "doc ids must be strictly increasing and below u32::MAX"
        );
        doc_bits = doc_bits.max(bits_for(doc - last));
        tf_bits = tf_bits.max(bits_for(tf));
        last = doc;
        first = false;
    }
    (doc_bits, tf_bits)
}

/// Bytes one block's frame takes ([`push_block_at`] appends exactly
/// this much, pad excluded).
pub(crate) fn block_frame_len(prev: Option<u32>, postings: &[(u32, u32)]) -> usize {
    let (doc_bits, tf_bits) = block_widths(prev, postings);
    packed_byte_len(postings.len(), doc_bits) + packed_byte_len(postings.len(), tf_bits)
}

/// The block encoder both owners share: append one block's frame to
/// `data` and its header to `headers`, for the list that starts at
/// `start` — its first block's index in `headers` and its first byte
/// in `data`, which header offsets count from. Returns the block's tf
/// sum. The contract is [`BlockPostings::push_block`]'s.
pub(crate) fn push_block_at(
    headers: &mut Vec<BlockHeader>,
    data: &mut Vec<u8>,
    start: (usize, usize),
    postings: &[(u32, u32)],
) -> u64 {
    let (first_block, first_byte) = start;
    let prev = headers[first_block..].last().map(|h| {
        debug_assert!(
            usize::from(h.count) == BLOCK_DOCS,
            "only the last block may be partial"
        );
        h.max_doc
    });
    debug_assert!(
        !postings.is_empty() && postings.len() <= BLOCK_DOCS,
        "a block holds 1..=BLOCK_DOCS postings"
    );
    let offset = u32::try_from(data.len() - first_byte).expect("block data exceeds u32 offsets");
    let n = postings.len();
    let (mut gaps, mut tfs) = ([0u32; BLOCK_DOCS], [0u32; BLOCK_DOCS]);
    // The widest value's bit length is the bit length of all of them
    // or-ed together: one pass finds both widths.
    let (mut gap_bits, mut tf_bits) = (0u32, 0u32);
    let mut last = prev.unwrap_or(0);
    for (i, &(doc, tf)) in postings.iter().enumerate() {
        debug_assert!(
            doc < EXHAUSTED && (i == 0 && prev.is_none() && doc >= last || doc > last),
            "doc ids must be strictly increasing and below u32::MAX"
        );
        gaps[i] = doc - last;
        tfs[i] = tf;
        gap_bits |= gaps[i];
        tf_bits |= tf;
        last = doc;
    }
    let (doc_bits, tf_bits) = (bits_for(gap_bits), bits_for(tf_bits));
    // Room for the tail pad too: a one-block list then seals without
    // another reallocation.
    data.reserve(packed_byte_len(n, doc_bits) + packed_byte_len(n, tf_bits) + PAD_BYTES);
    pack_bits(data, &gaps[..n], doc_bits);
    pack_bits(data, &tfs[..n], tf_bits);
    headers.push(BlockHeader {
        max_doc: last,
        count: n as u16,
        doc_bits: doc_bits as u8,
        tf_bits: tf_bits as u8,
        offset,
    });
    tfs[..n].iter().map(|&tf| u64::from(tf)).sum()
}

/// Append `values` to `out`, packed at `width` bits each, LSB-first:
/// the packed bytes are sized once, then filled four at a time.
pub(crate) fn pack_bits(out: &mut Vec<u8>, values: &[u32], width: u32) {
    if width == 0 {
        return;
    }
    let start = out.len();
    out.resize(start + packed_byte_len(values.len(), width), 0);
    let dst = &mut out[start..];
    let mut at = 0;
    let mut acc = 0u64;
    let mut have = 0u32;
    for &v in values {
        debug_assert!(width == 32 || v < (1 << width));
        acc |= u64::from(v) << have;
        have += width;
        if have >= 32 {
            dst[at..at + 4].copy_from_slice(&(acc as u32).to_le_bytes());
            at += 4;
            acc >>= 32;
            have -= 32;
        }
    }
    for byte in &mut dst[at..] {
        *byte = acc as u8;
        acc >>= 8;
    }
}

/// Unpack `count` values of `width` bits from the head of `src` into
/// `out`, choosing the best kernel for this machine at runtime: on
/// `x86_64` with AVX2, whole 32-lane groups at byte widths (8/16/32)
/// take the vector kernel; everything else takes the word-parallel
/// scalar kernel. Both kernels are bit-identical by construction and by
/// the `simd_matches_scalar` property test.
///
/// `src` must hold at least `packed_byte_len(count, width) + 8` bytes —
/// the decoder reads whole u64 words and may overrun the packed section
/// by up to 7 bytes.
#[doc(hidden)]
pub fn unpack_bits(src: &[u8], count: usize, width: u32, out: &mut [u32]) {
    assert!(width <= 32 && count <= out.len());
    assert!(src.len() >= packed_byte_len(count, width) + PAD_BYTES);
    #[cfg(target_arch = "x86_64")]
    {
        if matches!(width, 8 | 16 | 32)
            && count >= 32
            && std::arch::is_x86_feature_detected!("avx2")
        {
            let groups = count / 32;
            // Safety: AVX2 presence was just detected; the length
            // assertion above covers every load the kernel performs
            // (groups * 4 * width bytes, all inside the packed section).
            unsafe { unpack_groups_avx2(src, groups, width, out) };
            let done = groups * 32;
            let consumed = groups * 4 * width as usize;
            unpack_bits_scalar(&src[consumed..], count - done, width, &mut out[done..]);
            return;
        }
    }
    unpack_bits_scalar(src, count, width, out);
}

/// The scalar unpacking kernel, word-parallel with no carried state:
/// eight consecutive values at `width` bits always realign to a byte
/// boundary (8·width ≡ 0 mod 8), so the loop is monomorphized per
/// width and every value inside an 8-group is one unaligned `u64` load
/// at a compile-time-constant byte offset, shift and mask — a form the
/// optimizer unrolls and vectorizes freely. Public (hidden) so
/// property tests can pin the dispatched kernel against it. Same `src`
/// length contract as [`unpack_bits`].
#[doc(hidden)]
pub fn unpack_bits_scalar(src: &[u8], count: usize, width: u32, out: &mut [u32]) {
    assert!(width <= 32 && count <= out.len());
    if width == 0 {
        out[..count].fill(0);
        return;
    }
    assert!(src.len() >= packed_byte_len(count, width) + PAD_BYTES);
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width {
                $($w => unpack_fixed::<$w>(src, count, out),)*
                _ => unreachable!("width checked above"),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
}

/// One value of the packed stream: an unaligned little-endian `u64`
/// load covering bit `bit` onward (at most 7 + 32 = 39 bits needed, so
/// one word always suffices), shifted and masked. The +8 pad in the
/// `src` contract keeps the load in bounds even for the last value.
#[inline(always)]
fn extract<const W: u32>(src: &[u8], bit: usize) -> u32 {
    let mask = if W == 32 { u32::MAX } else { (1u32 << W) - 1 };
    let byte = bit >> 3;
    let word = u64::from_le_bytes(src[byte..byte + 8].try_into().unwrap());
    (word >> (bit & 7)) as u32 & mask
}

/// [`unpack_bits_scalar`] at one compile-time width: full 8-value
/// groups with constant in-group offsets, then a tail loop.
fn unpack_fixed<const W: u32>(src: &[u8], count: usize, out: &mut [u32]) {
    let groups = count / 8;
    let mut base = 0usize;
    for chunk in out[..groups * 8].chunks_exact_mut(8) {
        for (j, o) in chunk.iter_mut().enumerate() {
            *o = extract::<W>(&src[base..], j * W as usize);
        }
        base += W as usize;
    }
    for (i, o) in out[groups * 8..count].iter_mut().enumerate() {
        *o = extract::<W>(src, (groups * 8 + i) * W as usize);
    }
}

/// AVX2 kernel: widen `groups` full 32-lane groups at a byte-aligned
/// width (8, 16 or 32 bits) straight into `out`.
///
/// # Safety
/// Requires AVX2; `src` must hold `groups * 4 * width` readable bytes
/// and `out` at least `groups * 32` slots.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn unpack_groups_avx2(src: &[u8], groups: usize, width: u32, out: &mut [u32]) {
    use std::arch::x86_64::*;
    debug_assert!(matches!(width, 8 | 16 | 32));
    debug_assert!(src.len() >= groups * 4 * width as usize && out.len() >= groups * 32);
    let mut src_p = src.as_ptr();
    let mut out_p = out.as_mut_ptr();
    for _ in 0..groups {
        match width {
            8 => {
                // 32 bytes -> four 8-lane zero-extensions.
                for k in 0..4 {
                    let v = _mm_loadl_epi64(src_p.add(8 * k).cast());
                    _mm256_storeu_si256(out_p.add(8 * k).cast(), _mm256_cvtepu8_epi32(v));
                }
            }
            16 => {
                // 64 bytes -> four 8-lane zero-extensions.
                for k in 0..4 {
                    let v = _mm_loadu_si128(src_p.add(16 * k).cast());
                    _mm256_storeu_si256(out_p.add(8 * k).cast(), _mm256_cvtepu16_epi32(v));
                }
            }
            _ => {
                // width 32: 128 bytes copied through four 256-bit lanes.
                for k in 0..4 {
                    let v = _mm256_loadu_si256(src_p.add(32 * k).cast());
                    _mm256_storeu_si256(out_p.add(8 * k).cast(), v);
                }
            }
        }
        src_p = src_p.add(4 * width as usize);
        out_p = out_p.add(32);
    }
}

/// A forward-only cursor over one list's [`BlockView`] — borrowed from an
/// index's arenas or from an owned [`BlockPostings`], which it cannot
/// tell apart — with header-level skipping: `next()` steps one posting, `next_geq(d)` seeks to the
/// first posting at or past `d` decoding only the landing block, and
/// `block_max_score()` exposes the current block's score upper bound.
/// The cursor tallies the blocks it jumped without decoding and the
/// postings it actually rested on — the raw feed for the engine's
/// `blocks_skipped` / `skipped_docs` telemetry.
#[derive(Debug)]
pub struct BlockCursor<'a> {
    list: BlockView<'a>,
    /// Per-block score upper bounds (engine-computed); empty = unknown.
    bounds: &'a [f64],
    /// Current block; `list.n_blocks()` once exhausted.
    block: usize,
    pos: usize,
    /// `docs[pos]`, or [`EXHAUSTED`]: the hot loops ask for the current
    /// doc far more often than they move.
    cur: u32,
    docs: Vec<u32>,
    /// The current block's frequencies, valid up to `tfs_decoded`. Doc
    /// ids are decoded on every landing block; the tf section only as
    /// far as a read needs it — all of it on the first
    /// [`BlockCursor::tf`], up to the posting for a positional read —
    /// so blocks that are bounded out never pay the second unpack.
    tfs: Vec<u32>,
    /// A multiple of 8, or the block's count.
    tfs_decoded: usize,
    /// Running `tfs[..tf_prefix_pos]` sum for [`BlockCursor::frame_span`]:
    /// the cursor only moves forward within a block, so successive
    /// positional reads extend the sum instead of redoing it.
    tf_prefix_pos: usize,
    tf_prefix: usize,
    blocks_skipped: u64,
    visited: u64,
}

impl<'a> BlockCursor<'a> {
    /// A cursor positioned on the first posting (exhausted immediately
    /// for an empty list), without score bounds.
    pub fn new(list: BlockView<'a>) -> Self {
        Self::with_bounds(list, &[])
    }

    /// [`BlockCursor::new`] with per-block score upper bounds; `bounds[b]`
    /// must dominate every score contribution a document of block `b`
    /// can make. The engine records these from the exact `term_weight`
    /// values in its [`crate::TermBounds`] sidecar.
    pub fn with_bounds(list: BlockView<'a>, bounds: &'a [f64]) -> Self {
        let mut cursor = BlockCursor {
            list,
            bounds,
            block: 0,
            pos: 0,
            cur: EXHAUSTED,
            docs: Vec::new(),
            tfs: Vec::new(),
            tfs_decoded: 0,
            tf_prefix_pos: 0,
            tf_prefix: 0,
            blocks_skipped: 0,
            visited: 0,
        };
        if cursor.list.n_blocks() > 0 {
            cursor.list.decode_block_docs(0, &mut cursor.docs);
            cursor.cur = cursor.docs[0];
            cursor.visited = 1;
        }
        cursor
    }

    /// The current doc id, or [`EXHAUSTED`] past the end.
    #[inline]
    pub fn doc(&self) -> u32 {
        self.cur
    }

    /// Re-read the current doc after a move.
    #[inline]
    fn settle(&mut self) {
        self.cur = if self.is_exhausted() {
            EXHAUSTED
        } else {
            self.docs[self.pos]
        };
    }

    /// Term frequency of the current posting, decoding the block's tf
    /// section on first use.
    ///
    /// # Panics
    /// Panics when the cursor is exhausted.
    pub fn tf(&mut self) -> u32 {
        self.decode_tfs();
        self.tfs[self.pos]
    }

    /// Whether the cursor is past its last posting.
    pub fn is_exhausted(&self) -> bool {
        self.block >= self.list.n_blocks()
    }

    /// Advance to the next posting.
    pub fn next(&mut self) {
        if self.is_exhausted() {
            return;
        }
        self.pos += 1;
        if self.pos == self.docs.len() {
            self.block += 1;
            self.pos = 0;
            if self.block < self.list.n_blocks() {
                self.land();
            }
        }
        self.settle();
        if !self.is_exhausted() {
            self.visited += 1;
        }
    }

    /// Seek to the first posting with doc id `>= target`, decoding only
    /// the block it lands in: candidate blocks are located through the
    /// header `max_doc` fence posts, and every block passed clean over
    /// is tallied in [`BlockCursor::blocks_skipped`] without being
    /// decoded. A target at or before the current doc is a no-op.
    #[inline]
    pub fn next_geq(&mut self, target: u32) {
        // An exhausted cursor sits on the largest id there is.
        if target > self.cur {
            self.seek_forward(target);
        }
    }

    /// [`BlockCursor::next_geq`] for a target past the current doc.
    fn seek_forward(&mut self, target: u32) {
        if target > self.list.header(self.block).max_doc {
            // Header-only seek to the first block that can hold target.
            let rest = &self.list.headers[self.block + 1..];
            let ahead = rest.partition_point(|h| h.max_doc < target);
            self.blocks_skipped += ahead as u64;
            self.block += 1 + ahead;
            self.pos = 0;
            if self.is_exhausted() {
                self.cur = EXHAUSTED;
                return;
            }
            self.land();
        }
        // Gallop from the current posting before bisecting: most seeks
        // are short hops (the next posting, a neighbour's doc), which
        // this settles in a compare or two.
        let rest = &self.docs[self.pos..];
        let mut hi = 1;
        while hi < rest.len() && rest[hi] < target {
            hi *= 2;
        }
        let lo = hi / 2;
        let hi = hi.min(rest.len());
        self.pos += lo + rest[lo..hi].partition_point(|&d| d < target);
        debug_assert!(
            self.pos < self.docs.len(),
            "header promised a doc >= target"
        );
        self.cur = self.docs[self.pos];
        self.visited += 1;
    }

    /// Index of the current block.
    pub fn block_index(&self) -> usize {
        self.block
    }

    /// Index of the current posting within the whole list — what
    /// [`crate::PostingsList::positions_into`] takes. Every block but
    /// the last is full, so it is the block index scaled plus the
    /// in-block position. Meaningless once exhausted.
    pub fn ordinal(&self) -> usize {
        self.block * BLOCK_DOCS + self.pos
    }

    /// Where the current posting's values sit in the positional frames:
    /// its block, the sum of the term frequencies before it in the
    /// block, and its own. Extends a running sum over the tfs the cursor
    /// already decoded; a block whose tfs nobody read yet is decoded no
    /// further than the posting.
    ///
    /// # Panics
    /// Panics when the cursor is exhausted.
    pub(crate) fn frame_span(&mut self) -> (usize, usize, u32) {
        self.decode_tfs_to(self.pos + 1);
        let skipped = &self.tfs[self.tf_prefix_pos..self.pos];
        self.tf_prefix += skipped.iter().map(|&tf| tf as usize).sum::<usize>();
        self.tf_prefix_pos = self.pos;
        (self.block, self.tf_prefix, self.tfs[self.pos])
    }

    /// Decode the doc ids of the block the cursor just moved to, and
    /// forget the previous block's tfs.
    fn land(&mut self) {
        self.list.decode_block_docs(self.block, &mut self.docs);
        self.tfs_decoded = 0;
        self.tf_prefix_pos = 0;
        self.tf_prefix = 0;
    }

    /// Decode the whole of the current block's tf section unless already
    /// done.
    #[inline]
    fn decode_tfs(&mut self) {
        self.decode_tfs_to(self.docs.len());
    }

    /// Decode the current block's tfs at least up to `end`: the first
    /// read of a block decodes the whole 8-value groups it needs, any
    /// later one the rest of the block.
    #[inline]
    fn decode_tfs_to(&mut self, end: usize) {
        if end > self.tfs_decoded {
            if self.tfs.is_empty() {
                self.tfs.resize(BLOCK_DOCS, 0);
            }
            let count = self.docs.len();
            let end = if self.tfs_decoded == 0 {
                end.next_multiple_of(8).min(count)
            } else {
                count
            };
            self.list
                .decode_block_tfs_range(self.block, self.tfs_decoded, end, &mut self.tfs);
            self.tfs_decoded = end;
        }
    }

    /// Last doc id of the current block (the header fence post).
    ///
    /// # Panics
    /// Panics when the cursor is exhausted.
    pub fn block_max_doc(&self) -> u32 {
        self.list.header(self.block).max_doc
    }

    /// Score upper bound of the current block; `+inf` when the cursor
    /// was built without bounds (no skipping is then ever justified).
    pub fn block_max_score(&self) -> f64 {
        self.bounds
            .get(self.block)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Header-only lookup: the first block at or after the current one
    /// whose `max_doc` reaches `target` — the block a `next_geq(target)`
    /// would land in — or `None` when the list ends before `target`.
    /// Does not move the cursor and decodes nothing.
    pub fn block_for(&self, target: u32) -> Option<usize> {
        if self.is_exhausted() {
            return None;
        }
        if self.list.header(self.block).max_doc >= target {
            return Some(self.block);
        }
        let rest = &self.list.headers[self.block + 1..];
        let ahead = rest.partition_point(|h| h.max_doc < target);
        let b = self.block + 1 + ahead;
        (b < self.list.n_blocks()).then_some(b)
    }

    /// Score upper bound of block `b` (see [`BlockCursor::block_max_score`]).
    pub fn block_max_score_at(&self, b: usize) -> f64 {
        self.bounds.get(b).copied().unwrap_or(f64::INFINITY)
    }

    /// Last doc id of block `b`.
    pub fn block_last_doc(&self, b: usize) -> u32 {
        self.list.header(b).max_doc
    }

    /// Total postings in the underlying list.
    pub fn len(&self) -> u64 {
        self.list.len()
    }

    /// Whether the underlying list is empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Blocks jumped over without decoding, so far.
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped
    }

    /// Distinct postings the cursor has rested on, so far. The
    /// difference `len() - visited()` is the number of postings the
    /// cursor never paid a score evaluation for.
    pub fn visited(&self) -> u64 {
        self.visited
    }

    /// The current block's remaining postings, from the cursor's
    /// position to the block's end, as parallel `(docs, tfs)` slices
    /// (entry 0 is the current posting). Decodes the block's tf
    /// section on first use — callers bulk-scoring a run read both
    /// arrays directly instead of paying a `next()`/[`BlockCursor::tf`]
    /// round-trip per posting.
    ///
    /// # Panics
    /// Panics when the cursor is exhausted.
    pub fn remaining_in_block(&mut self) -> (&[u32], &[u32]) {
        self.decode_tfs();
        (&self.docs[self.pos..], &self.tfs[self.pos..self.docs.len()])
    }

    /// Step `m` postings forward within the current block — `m` at most
    /// the length of [`BlockCursor::remaining_in_block`] — with the
    /// same bookkeeping as `m` successive [`BlockCursor::next`] calls:
    /// each posting stepped over counts as visited, and consuming the
    /// whole remainder rolls over into the next block.
    pub fn advance_in_block(&mut self, m: usize) {
        debug_assert!(self.pos + m <= self.docs.len());
        self.pos += m;
        if self.pos == self.docs.len() {
            self.block += 1;
            self.pos = 0;
            if self.block < self.list.n_blocks() {
                self.land();
            }
        }
        self.settle();
        self.visited += m as u64;
        if m > 0 && self.is_exhausted() {
            // The last step moved past the end, not onto a posting —
            // exactly as `next()` refuses to count exhaustion.
            self.visited -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(list: &BlockPostings) -> Vec<(u32, u32)> {
        let mut cursor = BlockCursor::new(list.view());
        let mut out = Vec::new();
        while !cursor.is_exhausted() {
            out.push((cursor.doc(), cursor.tf()));
            cursor.next();
        }
        out
    }

    #[test]
    fn batch_walk_matches_next_walk() {
        let postings: Vec<(u32, u32)> = (0..300u32).map(|i| (i * 3, 1 + (i % 5))).collect();
        let list = BlockPostings::encode(&postings);
        let mut batch = BlockCursor::new(list.view());
        let mut from_batch = Vec::new();
        while !batch.is_exhausted() {
            let (docs, tfs) = batch.remaining_in_block();
            let run = docs.len();
            from_batch.extend(docs.iter().copied().zip(tfs.iter().copied()));
            batch.advance_in_block(run);
        }
        assert_eq!(from_batch, postings);
        let mut single = BlockCursor::new(list.view());
        while !single.is_exhausted() {
            single.next();
        }
        assert_eq!(batch.visited(), single.visited());
        // A partial advance agrees with the same number of `next()` steps.
        let mut a = BlockCursor::new(list.view());
        let mut b = BlockCursor::new(list.view());
        a.advance_in_block(2);
        b.next();
        b.next();
        assert_eq!((a.doc(), a.tf()), (b.doc(), b.tf()));
        assert_eq!(a.visited(), b.visited());
    }

    #[test]
    fn round_trip_small() {
        let postings = vec![(0, 1), (3, 2), (4, 1), (1000, 70000)];
        let list = BlockPostings::encode(&postings);
        assert_eq!(list.view().len(), 4);
        assert_eq!(list.view().n_blocks(), 1);
        assert_eq!(decode_all(&list), postings);
        assert_eq!(list.view().total_tf(), 1 + 2 + 1 + 70000);
    }

    #[test]
    fn round_trip_multi_block() {
        let postings: Vec<(u32, u32)> = (0..1000).map(|i| (i * 3, i % 7 + 1)).collect();
        let list = BlockPostings::encode(&postings);
        assert_eq!(list.view().n_blocks(), 1000usize.div_ceil(BLOCK_DOCS));
        assert_eq!(decode_all(&list), postings);
        // Header fence posts partition the doc space.
        assert_eq!(list.view().header(0).max_doc, (BLOCK_DOCS as u32 - 1) * 3);
        assert_eq!(
            list.view().header(list.view().n_blocks() - 1).max_doc,
            999 * 3
        );
    }

    #[test]
    fn empty_list() {
        let list = BlockPostings::encode(&[]);
        assert!(list.view().is_empty());
        assert_eq!(list.view().n_blocks(), 0);
        let cursor = BlockCursor::new(list.view());
        assert!(cursor.is_exhausted());
        assert_eq!(cursor.doc(), EXHAUSTED);
    }

    #[test]
    fn headers_record_frame_widths() {
        // Gaps of 3 need 2 bits; tfs up to 7 need 3 bits.
        let postings: Vec<(u32, u32)> = (0..200).map(|i| (i * 3, i % 7 + 1)).collect();
        let list = BlockPostings::encode(&postings);
        assert_eq!(list.view().header(0).doc_bits, 2);
        assert_eq!(list.view().header(0).tf_bits, 3);
        // A lone zero needs zero bits for both sections.
        let tiny = BlockPostings::encode(&[(0, 0)]);
        assert_eq!(tiny.view().header(0).doc_bits, 0);
        assert_eq!(tiny.view().header(0).tf_bits, 0);
        assert_eq!(decode_all(&tiny), vec![(0, 0)]);
    }

    #[test]
    fn next_geq_skips_blocks_without_decoding() {
        let postings: Vec<(u32, u32)> = (0..1000).map(|i| (i, 1)).collect();
        let list = BlockPostings::encode(&postings);
        let mut cursor = BlockCursor::new(list.view());
        cursor.next_geq(900);
        assert_eq!(cursor.doc(), 900);
        // Blocks 1..block(900) were passed without decode.
        assert_eq!(cursor.block_index(), 900 / BLOCK_DOCS);
        assert_eq!(cursor.blocks_skipped(), (900 / BLOCK_DOCS - 1) as u64);
        // Only the first and the landing posting were rested on.
        assert_eq!(cursor.visited(), 2);
    }

    #[test]
    fn next_geq_is_monotone_and_clamps() {
        let list = BlockPostings::encode(&[(5, 1), (9, 2), (200, 3)]);
        let mut cursor = BlockCursor::new(list.view());
        cursor.next_geq(0); // target before current: no-op
        assert_eq!(cursor.doc(), 5);
        cursor.next_geq(6);
        assert_eq!((cursor.doc(), cursor.tf()), (9, 2));
        cursor.next_geq(9); // at current: no-op
        assert_eq!(cursor.doc(), 9);
        cursor.next_geq(201);
        assert!(cursor.is_exhausted());
        cursor.next(); // past end: stays exhausted
        assert_eq!(cursor.doc(), EXHAUSTED);
    }

    #[test]
    fn block_for_is_a_pure_lookup() {
        let postings: Vec<(u32, u32)> = (0..300).map(|i| (i * 2, 1)).collect();
        let list = BlockPostings::encode(&postings);
        let cursor = BlockCursor::new(list.view());
        assert_eq!(cursor.block_for(0), Some(0));
        assert_eq!(cursor.block_for(2 * BLOCK_DOCS as u32), Some(1));
        assert_eq!(cursor.block_for(598), Some(2));
        assert_eq!(cursor.block_for(599), None);
        assert_eq!(cursor.doc(), 0, "lookup must not move the cursor");
        assert_eq!(cursor.blocks_skipped(), 0);
    }

    #[test]
    fn bounds_surface() {
        let postings: Vec<(u32, u32)> = (0..200).map(|i| (i, 1)).collect();
        let list = BlockPostings::encode(&postings);
        let bounds = [0.5, 2.0];
        let mut cursor = BlockCursor::with_bounds(list.view(), &bounds);
        assert_eq!(cursor.block_max_score(), 0.5);
        cursor.next_geq(BLOCK_DOCS as u32);
        assert_eq!(cursor.block_max_score(), 2.0);
        assert_eq!(cursor.block_max_score_at(0), 0.5);
        let unbounded = BlockCursor::new(list.view());
        assert_eq!(unbounded.block_max_score(), f64::INFINITY);
    }

    #[test]
    fn extreme_widths_round_trip() {
        // 32-bit gaps and 32-bit tfs in one block.
        let postings = vec![(0, u32::MAX), (u32::MAX - 1, 1)];
        let list = BlockPostings::encode(&postings);
        assert_eq!(list.view().header(0).doc_bits, 32);
        assert_eq!(list.view().header(0).tf_bits, 32);
        assert_eq!(decode_all(&list), postings);
    }

    #[test]
    fn dispatched_unpack_matches_scalar() {
        // Exercise every width 0..=32 with >32 values so the AVX2
        // group kernel (when present) covers full groups and the
        // scalar tail.
        for width in 0..=32u32 {
            let mask = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width).wrapping_sub(1)
            };
            let values: Vec<u32> = (0..77u32)
                .map(|i| i.wrapping_mul(0x9e37_79b9).rotate_left(i % 31) & mask)
                .collect();
            let mut packed = Vec::new();
            pack_bits(&mut packed, &values, width);
            packed.extend_from_slice(&[0u8; PAD_BYTES]);
            let mut scalar = vec![0u32; values.len()];
            let mut dispatched = vec![0u32; values.len()];
            unpack_bits_scalar(&packed, values.len(), width, &mut scalar);
            unpack_bits(&packed, values.len(), width, &mut dispatched);
            assert_eq!(scalar, values, "width {width}");
            assert_eq!(dispatched, values, "width {width}");
        }
    }

    #[test]
    fn lenient_decode_rejects_malformed_headers() {
        // Offset far past the data.
        let h = BlockHeader {
            max_doc: 10,
            count: 4,
            doc_bits: 8,
            tf_bits: 8,
            offset: 1000,
        };
        let list = BlockPostings::from_raw_parts(vec![h], vec![0u8; 16], 4);
        assert!(list.view().try_decode_block(0).is_none());
        // Width out of range.
        let h = BlockHeader {
            max_doc: 10,
            count: 4,
            doc_bits: 64,
            tf_bits: 8,
            offset: 0,
        };
        let list = BlockPostings::from_raw_parts(vec![h], vec![0u8; 64], 4);
        assert!(list.view().try_decode_block(0).is_none());
        // Count out of range.
        let h = BlockHeader {
            max_doc: 10,
            count: 60_000,
            doc_bits: 1,
            tf_bits: 1,
            offset: 0,
        };
        let list = BlockPostings::from_raw_parts(vec![h], vec![0u8; 64], 4);
        assert!(list.view().try_decode_block(0).is_none());
        // Missing block.
        assert!(list.view().try_decode_block(7).is_none());
    }

    #[test]
    fn lenient_decode_agrees_with_cursor_on_valid_lists() {
        let postings: Vec<(u32, u32)> = (0..300).map(|i| (i * 5 + 2, i % 9)).collect();
        let list = BlockPostings::encode(&postings);
        let mut seen = Vec::new();
        for b in 0..list.view().n_blocks() {
            let (docs, tfs) = list.view().try_decode_block(b).expect("valid block");
            seen.extend(docs.into_iter().zip(tfs));
        }
        assert_eq!(seen, postings);
    }

    #[test]
    fn compression_beats_raw_pairs() {
        // Dense doc ids and small tfs: ~2 bytes per posting vs 8 raw.
        let postings: Vec<(u32, u32)> = (0..10_000).map(|i| (i, 1)).collect();
        let list = BlockPostings::encode(&postings);
        assert!(
            list.view().bytes() < 8 * list.view().len() / 2,
            "bytes={}",
            list.view().bytes()
        );
    }
}
