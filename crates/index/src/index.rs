//! The inverted index and its builder.
//!
//! A posting list is a block-compressed `(doc, tf)` stream (always
//! present, always what search evaluates) plus optional *positional
//! frames* consulted only by `prox`: one bit-packed frame of token
//! positions per 128-doc block, in the same FOR codec as the doc/tf
//! frames. Engines whose queries can never reach `prox` build with
//! [`PositionsMode::None`] and store no positions at all.
//!
//! Every `(field, term)` key has one dense slot. The lists of all keys
//! live in a handful of per-index arenas, back to back in slot order —
//! no list owns a heap object of its own:
//!
//! ```text
//! lists:      [ ListRef ; K + 1 ]    by slot; one sentinel at the end
//!               {block, len, bytes, pos_bytes, sum_tf}   (24 B)
//! headers:    [ key 0's blocks | key 1's blocks | … ]    block ordinal
//! pos_frames: [ key 0's frames | key 1's frames | … ]    same ordinal
//! frames:     [ key 0's frames, pad | key 1's frames, pad | … ]
//! pos_data:   [ key 0's positions, pad | key 1's positions, pad | … ]
//! ```
//!
//! A slot's list runs from its `ListRef` to the next slot's, in every
//! arena. Each list keeps its own 8-byte tail pad and its headers'
//! offsets count from its own first byte, so a list's slices are
//! byte-identical to [`BlockPostings::encode`] of its postings and the
//! decoders never read a neighbour's bits. [`Index::postings`] hands
//! out a [`PostingsList`]: a `Copy` view of those slices. Anything kept
//! per block — the engine's [`TermBounds`] block maxima — is indexed by
//! the same block ordinal as `headers`.
//!
//! Every token is indexed once, under its own field, at its
//! field-local position. The `Any` pseudo-field (§4.1.1: "If no field
//! is specified, `Any` is assumed") is a view, not a second index: an
//! unfielded key expands at query time to the term's list in every
//! concrete field ([`Index::field_lists`]), and what `Any` needs beyond
//! those lists is kept per term and per stored value:
//!
//! ```text
//! any_df, any_tf: [ u32 ; T ], [ u64 ; T ]   by term id
//! global_bases:   [ u32 ; stored values ]    document-global position
//! ```
//!
//! The columns answer `Any`'s document frequency and total postings
//! (content summaries, ranking df, doc norms) exactly as a list of its
//! own would, and a stored value's global base maps a field-local
//! position onto the document-global one an unfielded `prox` compares
//! ([`Index::to_global_positions`]).
//!
//! The builder freezes as it goes: a list keeps only its open block
//! uncompressed, and encodes it (doc/tf frame and positional frame) the
//! moment a document arrives for a full one. [`IndexBuilder::build`]
//! sizes the arenas exactly, then moves each list into them — frozen
//! blocks copied, open tail block encoded in place — and drops its
//! builder. Stored field values live in one text buffer per index,
//! fenced by a small field table.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::OnceLock;

use starts_text::{Analyzer, LangTag};

use crate::blocks::{
    bits_for, block_frame_len, pack_bits, push_block_at, BlockCursor, BlockHeader, BlockPostings,
    BlockView, BLOCK_DOCS, PAD_BYTES,
};
use crate::doc::{DocId, Document};
use crate::matchspec::FoldTable;
use crate::schema::{FieldId, Schema, ANY_FIELD};

/// Position gap inserted between separate field instances so that `prox`
/// never matches across a field boundary (§4.1.1's word-distance prox is
/// defined within running text).
const FIELD_GAP: u32 = 100;

/// Interned term identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TermId(pub u32);

/// Whether an index keeps token positions next to its block postings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PositionsMode {
    /// Keep the positional frames for every field (the default): `prox`
    /// filters on real word distances.
    #[default]
    All,
    /// Store no positions. Ranking and Boolean evaluation are
    /// unaffected (they only read the block postings); `prox` degrades
    /// to plain document intersection, the honest capability of a
    /// source without a positional index.
    None,
}

/// Where one block's positional frame starts among its list's
/// positional bytes, and the bit width of its values.
#[derive(Debug, Clone, Copy)]
struct PositionFrame {
    offset: u32,
    bits: u8,
}

/// The bit width of one block's positional frame: the widest of each
/// posting's first position and of the gaps after it. `positions` are
/// the block's positions back to back, each posting's tf of them.
fn frame_bits(postings: &[(u32, u32)], positions: &[u32]) -> u32 {
    let mut start = 0usize;
    let mut bits = 0;
    for &(_, tf) in postings {
        let posting = &positions[start..start + tf as usize];
        if let Some(&first) = posting.first() {
            bits = bits.max(bits_for(first));
        }
        for pair in posting.windows(2) {
            let gap = pair[1]
                .checked_sub(pair[0])
                .expect("token positions decrease within a posting");
            bits = bits.max(bits_for(gap));
        }
        start += tf as usize;
    }
    bits
}

/// Encode one block's positions — given as the block's postings and
/// its positions back to back, sorted within each posting — as the
/// next frame of the list whose positional bytes start at `first_byte`
/// of `data`. Turns `positions` into gaps in place.
fn push_frame_at(
    frames: &mut Vec<PositionFrame>,
    data: &mut Vec<u8>,
    first_byte: usize,
    postings: &[(u32, u32)],
    positions: &mut [u32],
) {
    let bits = frame_bits(postings, positions);
    let mut start = 0usize;
    for &(_, tf) in postings {
        let end = start + tf as usize;
        for k in (start + 1..end).rev() {
            positions[k] = positions[k]
                .checked_sub(positions[k - 1])
                .expect("token positions decrease within a posting");
        }
        start = end;
    }
    debug_assert_eq!(start, positions.len(), "tfs must cover the positions");
    let offset =
        u32::try_from(data.len() - first_byte).expect("positional frames exceed u32 offsets");
    data.reserve((positions.len() * bits as usize).div_ceil(8) + PAD_BYTES);
    pack_bits(data, positions, bits);
    frames.push(PositionFrame {
        offset,
        bits: bits as u8,
    });
}

/// One posting list's positional frames, borrowed: one frame per block
/// of the list, each holding the block's positions posting by posting —
/// the first position of a posting absolute, the rest as gaps from the
/// one before — bit-packed at the frame's widest value, the list's
/// bytes closed by a tail pad. A posting's values start at the sum of
/// the tfs before it in its block, so no per-posting offsets are kept.
///
/// ```text
/// frames: [ {offset, bits} ; B ]
/// data:   [ frame 0 | frame 1 | … | frame B-1 | pad ]
/// frame b: [ p0, p1-p0, …, (next posting) q0, q1-q0, … ] @ bits
/// ```
#[derive(Debug, Clone, Copy)]
struct Positions<'a> {
    frames: &'a [PositionFrame],
    data: &'a [u8],
}

impl Positions<'_> {
    /// Append the `tf` positions that start `before` values into block
    /// `block`'s frame: one unaligned `u64` load per value (the tail pad
    /// keeps the last in bounds), summed from 0 — the first value is
    /// absolute, so the running sum restores every position.
    fn decode_into(&self, block: usize, before: usize, tf: u32, out: &mut Vec<u32>) {
        let frame = self.frames[block];
        let bits = usize::from(frame.bits);
        let mask = (1u64 << bits) - 1;
        let src = &self.data[frame.offset as usize..];
        let start = out.len();
        out.resize(start + tf as usize, 0);
        let mut bit = before * bits;
        let mut position = 0u32;
        for v in &mut out[start..] {
            let byte = bit >> 3;
            let word = u64::from_le_bytes(src[byte..byte + 8].try_into().unwrap());
            position += ((word >> (bit & 7)) & mask) as u32;
            *v = position;
            bit += bits;
        }
    }

    fn bytes(&self) -> u64 {
        (self.data.len() + std::mem::size_of_val(self.frames)) as u64
    }
}

/// One term's posting list, borrowed from its index's arenas: the
/// block-compressed `(doc, tf)` stream all evaluation runs on, plus the
/// positional frames `prox` reads when the index stores them.
/// [`Index::postings`] hands these out by value.
#[derive(Debug, Clone, Copy)]
pub struct PostingsList<'a> {
    blocks: BlockView<'a>,
    positions: Option<Positions<'a>>,
}

impl<'a> PostingsList<'a> {
    /// Number of postings (documents) in the list.
    pub fn len(&self) -> usize {
        self.blocks.len() as usize
    }

    /// Whether the list holds no postings.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block-compressed stream (the store cursors seek over).
    pub fn blocks(&self) -> BlockView<'a> {
        self.blocks
    }

    /// Sum of term frequencies across the list (the content summary's
    /// "total number of postings").
    pub fn total_tf(&self) -> u64 {
        self.blocks.total_tf()
    }

    /// Iterate the `(doc, tf)` pairs in doc order, decoding block by
    /// block.
    pub fn docs_tfs(&self) -> PostingsIter<'a> {
        PostingsIter::new(self.blocks)
    }

    /// Iterate the doc ids in order.
    pub fn docs(&self) -> impl Iterator<Item = DocId> + 'a {
        self.docs_tfs().map(|(doc, _)| doc)
    }

    /// Locate a document: its posting index and term frequency. Seeks
    /// by block header and decodes only the landing block.
    pub fn find(&self, doc: DocId) -> Option<(usize, u32)> {
        let n = self.blocks.n_blocks();
        if n == 0 {
            return None;
        }
        // Binary search the header fence posts for the landing block.
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.blocks.header(mid).max_doc < doc.0 {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let b = lo;
        if b == n {
            return None;
        }
        // Stack scratch: a point lookup must not allocate (result
        // construction calls this once per (document, term)).
        let mut docs = [0u32; BLOCK_DOCS];
        let count = self.blocks.decode_block_docs_into(b, &mut docs);
        let i = docs[..count].binary_search(&doc.0).ok()?;
        let mut tfs = [0u32; BLOCK_DOCS];
        self.blocks.decode_block_tfs_into(b, &mut tfs);
        Some((b * BLOCK_DOCS + i, tfs[i]))
    }

    /// Term frequency of a document, 0 when absent.
    pub fn tf_of(&self, doc: DocId) -> u32 {
        self.find(doc).map_or(0, |(_, tf)| tf)
    }

    /// Whether this list carries token positions.
    pub fn has_positions(&self) -> bool {
        self.positions.is_some()
    }

    /// Append the sorted token positions of the `i`-th posting to `out`
    /// — nothing when the index was built without positions. Decodes
    /// the landing block's tfs up to the posting to find it in its frame.
    pub fn positions_into(&self, i: usize, out: &mut Vec<u32>) {
        if let Some(positions) = &self.positions {
            let block = i / BLOCK_DOCS;
            let (before, tf) = self.blocks.tf_prefix(block, i % BLOCK_DOCS);
            positions.decode_into(block, before, tf, out);
        }
    }

    /// [`PostingsList::positions_into`] for the posting a cursor over
    /// this list sits on, located through the tfs the cursor already
    /// decoded instead of decoding the block again.
    pub(crate) fn cursor_positions_into(&self, cursor: &mut BlockCursor<'_>, out: &mut Vec<u32>) {
        if let Some(positions) = &self.positions {
            let (block, before, tf) = cursor.frame_span();
            positions.decode_into(block, before, tf, out);
        }
    }

    /// Bytes held by the positional frames, fences included (0 without
    /// positions).
    pub fn positional_bytes(&self) -> u64 {
        self.positions.as_ref().map_or(0, Positions::bytes)
    }
}

/// Block-decoding iterator over a posting list's `(doc, tf)` pairs. The
/// current block is decoded into two arrays it carries, so iterating
/// allocates nothing.
#[derive(Debug)]
pub struct PostingsIter<'a> {
    list: BlockView<'a>,
    block: usize,
    pos: usize,
    /// Postings in the decoded block.
    count: usize,
    docs: [u32; BLOCK_DOCS],
    tfs: [u32; BLOCK_DOCS],
}

impl<'a> PostingsIter<'a> {
    fn new(list: BlockView<'a>) -> Self {
        let mut it = PostingsIter {
            list,
            block: 0,
            pos: 0,
            count: 0,
            docs: [0; BLOCK_DOCS],
            tfs: [0; BLOCK_DOCS],
        };
        it.land();
        it
    }

    /// Decode the current block, if there is one.
    fn land(&mut self) {
        if self.block < self.list.n_blocks() {
            self.count = self.list.decode_block_docs_into(self.block, &mut self.docs);
            self.list.decode_block_tfs_into(self.block, &mut self.tfs);
        }
    }
}

impl Iterator for PostingsIter<'_> {
    type Item = (DocId, u32);

    fn next(&mut self) -> Option<(DocId, u32)> {
        if self.block >= self.list.n_blocks() {
            return None;
        }
        let out = (DocId(self.docs[self.pos]), self.tfs[self.pos]);
        self.pos += 1;
        if self.pos == self.count {
            self.block += 1;
            self.pos = 0;
            self.land();
        }
        Some(out)
    }
}

/// A stored document: where its field values start in the index's
/// field table, plus the statistics STARTS results report (`DocSize`,
/// `DocCount`). Its fields run to the next document's `first_field`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoredDoc {
    first_field: u32,
    /// Number of tokens in the document ("the number of tokens (as
    /// determined by the source)" — `DocCount`).
    pub token_count: u32,
    /// Total byte size of the document text (`DocSize` reports KBytes).
    pub byte_size: u32,
}

/// One stored field value: its field, its language (`lang - 1` indexes
/// the index's interned tags; 0 is none) and where its text ends in the
/// index's text buffer. It starts where the entry before it ends.
#[derive(Debug, Clone, Copy)]
struct StoredField {
    field: FieldId,
    lang: u16,
    end: u32,
}

/// What pruning knows about one `(field, term)` key as a whole: the
/// envelope of the ranking algorithm's `term_weight` across its
/// postings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TermBound {
    /// Float max of the key's term weights: the `total_cmp` maximum of
    /// its block maxima.
    pub max: f64,
    /// Float min — pruning demands non-negative weights, so a negative
    /// (or non-finite) envelope disables the bound for its key.
    pub min: f64,
}

/// Per-`(field, term)` extrema of the ranking algorithm's term weights
/// over one index's postings — the build-time sidecar behind the
/// engine's dynamic pruning (see `docs/performance.md`). Two tables, on
/// the index's own numbering: one `(max, min)` per key slot, and one
/// maximum per 128-doc block (see [`crate::blocks::BLOCK_DOCS`]) on the
/// index's block ordinal, so a key's block maxima are the slice at its
/// block range — the "block-max" side of Block-Max-WAND, each the float
/// max of the exact weights of its block only, usually far tighter than
/// the key's `max`. For a shard of a sharded collection the weights are
/// computed against the *global* collection statistics, so each
/// recorded maximum is the float max of exactly the weight values
/// query-time scoring can produce for that key on this shard; a leaf's
/// upper bound therefore holds without any epsilon.
#[derive(Debug, Default)]
pub struct TermBounds {
    keys: Vec<TermBound>,
    block_max: Vec<f64>,
}

impl TermBounds {
    /// Empty tables with room for exactly `keys` slots and `blocks`
    /// blocks.
    pub(crate) fn with_capacity(keys: usize, blocks: usize) -> Self {
        TermBounds {
            keys: Vec::with_capacity(keys),
            block_max: Vec::with_capacity(blocks),
        }
    }

    /// Record the next block's weight maximum.
    pub(crate) fn push_block(&mut self, max: f64) {
        self.block_max.push(max);
    }

    /// Record the next slot's key envelope. The extrema are
    /// `total_cmp`'s, so a NaN weight poisons the envelope (it sorts
    /// above +inf) and disables pruning for the key.
    pub(crate) fn push_key(&mut self, max: f64, min: f64) {
        self.keys.push(TermBound { max, min });
    }

    /// What was recorded for a key slot, if anything.
    pub(crate) fn get(&self, slot: u32) -> Option<TermBound> {
        self.keys.get(slot as usize).copied()
    }

    /// The block maxima of a block range ([`Index::block_range`]).
    pub(crate) fn block_max(&self, blocks: Range<usize>) -> &[f64] {
        &self.block_max[blocks]
    }

    /// Blocks recorded so far.
    pub(crate) fn n_blocks(&self) -> usize {
        self.block_max.len()
    }
}

/// Memory accounting for an index's posting storage, split by
/// representation so the block codec's compression win — and the
/// positional diet — stay measurable (`Index::postings_footprint`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingsFootprint {
    /// Number of posting lists (distinct `(field, term)` keys).
    pub lists: u64,
    /// Lists that carry positional frames (0 under
    /// [`PositionsMode::None`]).
    pub positional_lists: u64,
    /// Total postings across all lists.
    pub postings: u64,
    /// Bytes held by the positional frames and their fences.
    pub positional_bytes: u64,
    /// Bytes held by the bit-packed block streams, headers included.
    pub block_bytes: u64,
    /// Bytes held by the stored field values: the text buffer plus the
    /// field table.
    pub stored_bytes: u64,
}

impl PostingsFootprint {
    /// Fold another footprint into this one (shard aggregation).
    pub fn merge(&mut self, other: &PostingsFootprint) {
        self.lists += other.lists;
        self.positional_lists += other.positional_lists;
        self.postings += other.postings;
        self.positional_bytes += other.positional_bytes;
        self.block_bytes += other.block_bytes;
        self.stored_bytes += other.stored_bytes;
    }
}

/// An immutable, fully-built index.
#[derive(Debug)]
pub struct Index {
    schema: Schema,
    analyzer: Analyzer,
    terms: Vec<String>,
    vocab: HashMap<String, TermId>,
    /// The one key table: every `(field, term)` key's dense slot, which
    /// indexes `lists` here and the engine's [`TermBounds`].
    slots: HashMap<(FieldId, TermId), u32>,
    /// Where each slot's list starts in the four arenas below, plus one
    /// sentinel: a list ends where the next slot's begins.
    lists: Vec<ListRef>,
    /// Every list's block headers, back to back in slot order. A
    /// header's position here is the index's *block ordinal*.
    headers: Vec<BlockHeader>,
    /// Every list's doc/tf frames, back to back in slot order, each
    /// list closed by its own tail pad.
    frames: Vec<u8>,
    /// One positional frame per block, on the block ordinal of
    /// `headers` (empty under [`PositionsMode::None`]).
    pos_frames: Vec<PositionFrame>,
    /// Every list's positional bytes, back to back in slot order, each
    /// list closed by its own tail pad.
    pos_data: Vec<u8>,
    /// `Any` document frequency of each term, by [`TermId`]: the
    /// documents holding it in any field.
    any_df: Vec<u32>,
    /// `Any` total postings of each term, by [`TermId`]: its tf summed
    /// over every field and document.
    any_tf: Vec<u64>,
    docs: Vec<StoredDoc>,
    fields: Vec<StoredField>,
    /// The document-global position of each stored value's first token
    /// slot, on the ordinal of `fields` (empty under
    /// [`PositionsMode::None`]): what maps a field-local position to
    /// the document-global one an unfielded `prox` compares. Counted by
    /// no [`PostingsFootprint`] field.
    global_bases: Vec<u32>,
    /// Every stored field value back to back, fenced by `fields`.
    text: String,
    /// The distinct language tags of stored values, interned.
    langs: Vec<LangTag>,
    total_tokens: u64,
    /// Languages observed per field, for metadata export.
    field_langs: HashMap<FieldId, BTreeSet<LangTag>>,
    positions_stored: bool,
    /// Accumulated by [`IndexBuilder::build`] as each list is frozen;
    /// the index is immutable afterwards, so it never goes stale.
    footprint: PostingsFootprint,
    /// Case-insensitive lookup over `terms`, built by the first query
    /// that needs it (a plain term on a case-sensitive index).
    fold: OnceLock<FoldTable>,
}

/// Where one slot's list starts in its index's arenas: its first block
/// ordinal, its first frame byte and its first positional byte, plus
/// its posting count and tf sum.
#[derive(Debug, Clone, Copy)]
struct ListRef {
    block: u32,
    len: u32,
    bytes: u32,
    pos_bytes: u32,
    sum_tf: u64,
}

/// An arena length as a [`ListRef`] offset.
fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect("index arenas exceed u32 offsets")
}

/// The full blocks a list builder has encoded so far: doc/tf frames
/// and positional frames, in the layout one list takes in the arenas.
#[derive(Debug, Default)]
struct Frozen {
    blocks: BlockPostings,
    frames: Vec<PositionFrame>,
    data: Vec<u8>,
}

/// Build-time state of one posting list: the blocks frozen so far plus
/// the open block — at most [`BLOCK_DOCS`] `(doc, tf)` postings and
/// their positions back to back (none under [`PositionsMode::None`]).
/// Documents arrive in increasing order and positions in increasing
/// order within a document, so everything is append-only. One is kept
/// per key slot and most keys never fill a block, so the frozen part
/// is boxed and the slot stays small.
#[derive(Debug, Default)]
struct ListBuilder {
    frozen: Option<Box<Frozen>>,
    open: Vec<(u32, u32)>,
    positions: Vec<u32>,
}

impl ListBuilder {
    /// Count one occurrence of the list's term in `doc` at `position`
    /// (`None` when positions are not stored), freezing the open block
    /// first when `doc` would be its 129th posting.
    fn push(&mut self, doc: DocId, position: Option<u32>) {
        match self.open.last_mut() {
            Some((last, tf)) if *last == doc.0 => *tf += 1,
            _ => {
                if self.open.len() == BLOCK_DOCS {
                    self.freeze_block();
                }
                self.open.push((doc.0, 1));
            }
        }
        if let Some(position) = position {
            self.positions.push(position);
        }
    }

    /// Encode the open block into the frozen streams and empty it,
    /// releasing its capacity: the next block grows from nothing, so
    /// when `build` begins an open block holds at most twice its
    /// postings, not a full block's room.
    fn freeze_block(&mut self) {
        let frozen = self.frozen.get_or_insert_with(Box::default);
        frozen.blocks.push_block(&self.open);
        if !self.positions.is_empty() {
            push_frame_at(
                &mut frozen.frames,
                &mut frozen.data,
                0,
                &self.open,
                &mut self.positions,
            );
        }
        self.open = Vec::new();
        self.positions = Vec::new();
    }

    /// The frozen blocks' headers, frame bytes, positional frames and
    /// positional bytes (all empty before the first freeze).
    fn frozen_parts(&self) -> (&[BlockHeader], &[u8], &[PositionFrame], &[u8]) {
        match self.frozen.as_deref() {
            Some(f) => {
                let (headers, data) = f.blocks.view().raw_parts();
                (headers, data, &f.frames, &f.data)
            }
            None => (&[], &[], &[], &[]),
        }
    }

    /// What the sealed list takes in each arena — blocks, frame bytes,
    /// positional bytes — its open block and tail pads included. A list
    /// exists only once it has a posting, and a freeze is always
    /// followed by the posting that caused it, so the open block is
    /// never empty.
    fn sealed_len(&self, store_positions: bool) -> (usize, usize, usize) {
        let (headers, data, _, pos_data) = self.frozen_parts();
        let prev = headers.last().map(|h| h.max_doc);
        let bytes = data.len() + block_frame_len(prev, &self.open) + PAD_BYTES;
        let pos_bytes = if store_positions {
            let bits = frame_bits(&self.open, &self.positions) as usize;
            pos_data.len() + (self.positions.len() * bits).div_ceil(8) + PAD_BYTES
        } else {
            0
        };
        (headers.len() + 1, bytes, pos_bytes)
    }

    /// Move the list into the index's arenas at their current ends: the
    /// frozen blocks copied, the open block encoded in place, each
    /// stream closed by its tail pad — the bytes
    /// [`BlockPostings::encode`] of the same postings would hold.
    fn seal_into(mut self, index: &mut Index, store_positions: bool) {
        debug_assert!(!self.open.is_empty(), "a list's open block holds a posting");
        let (block, bytes, pos_bytes) = (
            index.headers.len(),
            index.frames.len(),
            index.pos_data.len(),
        );
        let (headers, data, frames, pos_data) = self.frozen_parts();
        index.headers.extend_from_slice(headers);
        index.frames.extend_from_slice(data);
        let (mut len, mut sum_tf) = self.frozen.as_ref().map_or((0, 0), |f| {
            (f.blocks.view().len(), f.blocks.view().total_tf())
        });
        len += self.open.len() as u64;
        sum_tf += push_block_at(
            &mut index.headers,
            &mut index.frames,
            (block, bytes),
            &self.open,
        );
        index.frames.extend_from_slice(&[0u8; PAD_BYTES]);
        if store_positions {
            index.pos_frames.extend_from_slice(frames);
            index.pos_data.extend_from_slice(pos_data);
            push_frame_at(
                &mut index.pos_frames,
                &mut index.pos_data,
                pos_bytes,
                &self.open,
                &mut self.positions,
            );
            index.pos_data.extend_from_slice(&[0u8; PAD_BYTES]);
        }
        index.lists.push(ListRef {
            block: arena_offset(block),
            len: u32::try_from(len).expect("posting list longer than the u32 doc-id space"),
            bytes: arena_offset(bytes),
            pos_bytes: arena_offset(pos_bytes),
            sum_tf,
        });
    }
}

/// Mutable index construction.
#[derive(Debug)]
pub struct IndexBuilder {
    inner: Index,
    /// The open lists, indexed by slot (`inner.slots`).
    lists: Vec<ListBuilder>,
    store_positions: bool,
    /// The last document each term was counted in for its `Any`
    /// document frequency, by [`TermId`] (`u32::MAX` before the first).
    any_last_doc: Vec<u32>,
    /// The current document's next field-local position base of each
    /// field seen so far (repeated fields continue after a gap).
    field_bases: Vec<(FieldId, u32)>,
}

impl IndexBuilder {
    /// Start building with the engine's analyzer (the source's whole text
    /// pipeline: tokenizer, case mode, stemming, stop list).
    pub fn new(analyzer: Analyzer) -> Self {
        IndexBuilder::with_schema(analyzer, Schema::new())
    }

    /// Start building with a pre-interned schema. Shard builders use this
    /// so that every shard of a [`crate::ShardedEngine`] assigns the same
    /// `FieldId` to the same field name, letting per-shard statistics be
    /// merged by id.
    pub fn with_schema(analyzer: Analyzer, schema: Schema) -> Self {
        IndexBuilder {
            inner: Index {
                schema,
                analyzer,
                terms: Vec::new(),
                vocab: HashMap::new(),
                slots: HashMap::new(),
                lists: Vec::new(),
                headers: Vec::new(),
                frames: Vec::new(),
                pos_frames: Vec::new(),
                pos_data: Vec::new(),
                any_df: Vec::new(),
                any_tf: Vec::new(),
                docs: Vec::new(),
                fields: Vec::new(),
                global_bases: Vec::new(),
                text: String::new(),
                langs: Vec::new(),
                total_tokens: 0,
                field_langs: HashMap::new(),
                positions_stored: true,
                footprint: PostingsFootprint::default(),
                fold: OnceLock::new(),
            },
            lists: Vec::new(),
            store_positions: true,
            any_last_doc: Vec::new(),
            field_bases: Vec::new(),
        }
    }

    /// Select whether token positions are stored
    /// ([`PositionsMode::All`], the default) or retired entirely
    /// ([`PositionsMode::None`]).
    pub fn positions(mut self, mode: PositionsMode) -> Self {
        self.store_positions = mode == PositionsMode::All;
        self.inner.positions_stored = self.store_positions;
        self
    }

    /// Add a document; returns its id. Every token is indexed once,
    /// under its field, at its field-local position; `Any` is counted
    /// per term (document frequency and total postings) and, with
    /// positions stored, each value records its document-global base.
    pub fn add(&mut self, doc: &Document) -> DocId {
        let idx = &mut self.inner;
        let doc_id = DocId(idx.docs.len() as u32);
        let first_field =
            u32::try_from(idx.fields.len()).expect("stored fields exceed the u32 field space");
        let mut token_count: u32 = 0;
        let mut byte_size: u32 = 0;
        self.field_bases.clear();
        let mut global_base: u32 = 0;
        for fv in doc.fields() {
            let fid = idx.schema.intern(&fv.name);
            byte_size += fv.text.len() as u32;
            if let Some(lang) = &fv.lang {
                for field in [fid, ANY_FIELD] {
                    let seen = idx.field_langs.entry(field).or_default();
                    if !seen.contains(lang) {
                        seen.insert(lang.clone());
                    }
                }
            }
            // Borrowed tokens: no per-token String allocation — terms
            // only get copied on a vocabulary miss inside `intern_term`.
            let tokens = idx.analyzer.analyze_borrowed(&fv.text);
            let at = self.field_bases.iter().position(|&(f, _)| f == fid);
            let fbase = at.map_or(0, |i| self.field_bases[i].1);
            let store = self.store_positions;
            let mut max_pos = 0u32;
            for (term, position) in &tokens {
                max_pos = max_pos.max(*position);
                token_count += 1;
                let tid = intern_term(&mut idx.vocab, &mut idx.terms, term);
                let t = tid.0 as usize;
                if t == idx.any_df.len() {
                    idx.any_df.push(0);
                    idx.any_tf.push(0);
                    self.any_last_doc.push(u32::MAX);
                }
                if self.any_last_doc[t] != doc_id.0 {
                    self.any_last_doc[t] = doc_id.0;
                    idx.any_df[t] += 1;
                }
                idx.any_tf[t] += 1;
                let slot = *idx.slots.entry((fid, tid)).or_insert_with(|| {
                    self.lists.push(ListBuilder::default());
                    u32::try_from(self.lists.len() - 1)
                        .expect("posting lists exceed the u32 slot space")
                });
                let position = store.then(|| position_at(fbase, *position));
                self.lists[slot as usize].push(doc_id, position);
            }
            let advance = if tokens.is_empty() { 0 } else { max_pos + 1 };
            let next = position_at(fbase, advance + FIELD_GAP);
            match at {
                Some(i) => self.field_bases[i].1 = next,
                None => self.field_bases.push((fid, next)),
            }
            if store {
                idx.global_bases.push(global_base);
            }
            global_base = position_at(global_base, advance + FIELD_GAP);
            idx.text.push_str(&fv.text);
            let lang = fv
                .lang
                .as_ref()
                .map_or(0, |lang| intern_lang(&mut idx.langs, lang));
            idx.fields.push(StoredField {
                field: fid,
                lang,
                end: u32::try_from(idx.text.len())
                    .expect("stored text exceeds the u32 offset space"),
            });
        }
        idx.total_tokens += u64::from(token_count);
        idx.docs.push(StoredDoc {
            first_field,
            token_count,
            byte_size,
        });
        doc_id
    }

    /// Finish building: size the arenas exactly in one pass over the
    /// lists, then move each list into them in slot order — its frozen
    /// blocks copied, its open tail block encoded in place — dropping
    /// its builder as soon as it is copied.
    pub fn build(self) -> Index {
        let mut index = self.inner;
        let store_positions = self.store_positions;
        let (mut blocks, mut bytes, mut pos_bytes) = (0, 0, 0);
        for list in &self.lists {
            let (b, f, p) = list.sealed_len(store_positions);
            blocks += b;
            bytes += f;
            pos_bytes += p;
        }
        index.lists = Vec::with_capacity(self.lists.len() + 1);
        index.headers = Vec::with_capacity(blocks);
        index.frames = Vec::with_capacity(bytes);
        index.pos_frames = Vec::with_capacity(if store_positions { blocks } else { 0 });
        index.pos_data = Vec::with_capacity(pos_bytes);
        for list in self.lists {
            list.seal_into(&mut index, store_positions);
        }
        debug_assert!(
            index.headers.len() == blocks
                && index.frames.len() == bytes
                && index.pos_data.len() == pos_bytes,
            "arenas sized exactly"
        );
        let n_lists = index.lists.len() as u64;
        let postings = index.lists.iter().map(|l| u64::from(l.len)).sum();
        index.lists.push(ListRef {
            block: arena_offset(index.headers.len()),
            len: 0,
            bytes: arena_offset(index.frames.len()),
            pos_bytes: arena_offset(index.pos_data.len()),
            sum_tf: 0,
        });
        index.any_df.shrink_to_fit();
        index.any_tf.shrink_to_fit();
        index.docs.shrink_to_fit();
        index.fields.shrink_to_fit();
        index.global_bases.shrink_to_fit();
        index.text.shrink_to_fit();
        index.footprint = PostingsFootprint {
            lists: n_lists,
            positional_lists: if store_positions { n_lists } else { 0 },
            postings,
            positional_bytes: (index.pos_data.len() + std::mem::size_of_val(&index.pos_frames[..]))
                as u64,
            block_bytes: (index.frames.len() + std::mem::size_of_val(&index.headers[..])) as u64,
            stored_bytes: (index.text.len() + std::mem::size_of_val(&index.fields[..])) as u64,
        };
        index
    }
}

/// `base + offset` as a token position, panicking instead of wrapping:
/// the positional frames gap-code positions, so a wrapped one would
/// corrupt `prox` silently.
fn position_at(base: u32, offset: u32) -> u32 {
    base.checked_add(offset)
        .expect("token position exceeds the u32 position space")
}

fn intern_term(vocab: &mut HashMap<String, TermId>, terms: &mut Vec<String>, term: &str) -> TermId {
    if let Some(&tid) = vocab.get(term) {
        return tid;
    }
    let tid = TermId(terms.len() as u32);
    terms.push(term.to_string());
    vocab.insert(term.to_string(), tid);
    tid
}

/// The [`StoredField::lang`] code of a tag, interning it on first sight.
fn intern_lang(langs: &mut Vec<LangTag>, lang: &LangTag) -> u16 {
    let i = match langs.iter().position(|l| l == lang) {
        Some(i) => i,
        None => {
            langs.push(lang.clone());
            langs.len() - 1
        }
    };
    u16::try_from(i + 1).expect("more distinct languages than the u16 language space")
}

impl Index {
    /// The field schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The engine's analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Number of documents (the content summary's `NumDocs`).
    pub fn n_docs(&self) -> u32 {
        self.docs.len() as u32
    }

    /// Total tokens across all documents.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Mean document length in tokens (for BM25-style rankers).
    pub fn avg_doc_tokens(&self) -> f64 {
        if self.docs.is_empty() {
            0.0
        } else {
            self.total_tokens as f64 / self.docs.len() as f64
        }
    }

    /// Token count of one document (`DocCount`).
    pub fn doc_token_count(&self, doc: DocId) -> u32 {
        self.docs[doc.0 as usize].token_count
    }

    /// Byte size of one document (`DocSize` is this, reported in KBytes).
    pub fn doc_byte_size(&self, doc: DocId) -> u32 {
        self.docs[doc.0 as usize].byte_size
    }

    /// A document's stored values as `(field, text, lang)`, borrowed
    /// from the text buffer, in insertion order.
    fn stored_fields(&self, doc: DocId) -> impl Iterator<Item = (FieldId, &str, u16)> {
        let d = doc.0 as usize;
        let first = self.docs[d].first_field as usize;
        let end = self
            .docs
            .get(d + 1)
            .map_or(self.fields.len(), |next| next.first_field as usize);
        (first..end).map(move |k| {
            let start = if k == 0 { 0 } else { self.fields[k - 1].end };
            let f = self.fields[k];
            (f.field, &self.text[start as usize..f.end as usize], f.lang)
        })
    }

    /// Stored field values of a document, in insertion order.
    pub fn doc_fields(&self, doc: DocId) -> impl Iterator<Item = (&str, &str, Option<&LangTag>)> {
        self.stored_fields(doc).map(|(fid, text, lang)| {
            let lang = lang.checked_sub(1).map(|i| &self.langs[usize::from(i)]);
            (self.schema.name(fid), text, lang)
        })
    }

    /// First stored value of the named field for a document.
    pub fn doc_field(&self, doc: DocId, field: FieldId) -> Option<&str> {
        self.stored_fields(doc)
            .find(|(fid, _, _)| *fid == field)
            .map(|(_, text, _)| text)
    }

    /// Whether this index stores token positions ([`PositionsMode`]).
    pub fn has_positions(&self) -> bool {
        self.positions_stored
    }

    /// The posting list for a (field, term) pair. The term must be in
    /// index-normalized form (the caller normalizes via the analyzer).
    /// `Any` has no lists of its own, so [`ANY_FIELD`] yields `None`:
    /// an unfielded term reads [`Index::field_lists`].
    pub fn postings(&self, field: FieldId, term: &str) -> Option<PostingsList<'_>> {
        self.slot(field, term).map(|slot| self.list(slot))
    }

    /// Document frequency of a term in a field (`Document-frequency`);
    /// for [`ANY_FIELD`], the documents holding it in any field.
    /// Doc ids are `u32`, so a list can never exceed `u32::MAX` entries;
    /// the checked conversion turns a broken invariant into a loud
    /// panic instead of a silent truncation.
    pub fn df(&self, field: FieldId, term: &str) -> u32 {
        if field == ANY_FIELD {
            return self
                .vocab
                .get(term)
                .map_or(0, |t| self.any_df[t.0 as usize]);
        }
        self.postings(field, term).map_or(0, |p| {
            u32::try_from(p.len()).expect("posting list longer than the u32 doc-id space")
        })
    }

    /// Total postings (sum of tf over docs) of a term in a field — the
    /// content summary's "total number of postings" statistic; for
    /// [`ANY_FIELD`], summed over every field.
    pub fn total_postings(&self, field: FieldId, term: &str) -> u64 {
        if field == ANY_FIELD {
            return self
                .vocab
                .get(term)
                .map_or(0, |t| self.any_tf[t.0 as usize]);
        }
        self.postings(field, term).map_or(0, |p| p.total_tf())
    }

    /// Every term of the index with its `Any` statistics: `(term,
    /// document frequency, total postings)` across all fields, in
    /// interning order.
    pub fn any_vocabulary(&self) -> impl Iterator<Item = (&str, u32, u64)> + '_ {
        self.terms
            .iter()
            .zip(&self.any_df)
            .zip(&self.any_tf)
            .map(|((term, &df), &tf)| (term.as_str(), df, tf))
    }

    /// The lists an unfielded term reads — its list in every concrete
    /// field that holds it, each with its field, in field order: one key
    /// probe per field of the schema. Their positions are field-local;
    /// [`Index::to_global_positions`] maps them onto the document.
    pub fn field_lists<'a>(
        &'a self,
        term: &str,
    ) -> impl Iterator<Item = (FieldId, PostingsList<'a>)> + 'a {
        let tid = self.vocab.get(term).copied();
        self.schema.concrete_fields().filter_map(move |field| {
            let slot = *self.slots.get(&(field, tid?))?;
            Some((field, self.list(slot)))
        })
    }

    /// Rewrite sorted field-local token positions of `field` in `doc`
    /// — as one of `field`'s lists holds them — into the
    /// document-global positions an unfielded term has: each value of a
    /// field starts where the field's earlier values ended plus a gap,
    /// and is moved to the global base recorded for it. The span of a
    /// value is the distance to the next stored value's global base, so
    /// a value's local base is the sum of the spans of the field's
    /// earlier values. A no-op without positions.
    pub fn to_global_positions(&self, doc: DocId, field: FieldId, positions: &mut [u32]) {
        if self.global_bases.is_empty() || positions.is_empty() {
            return;
        }
        let d = doc.0 as usize;
        let first = self.docs[d].first_field as usize;
        let end = self
            .docs
            .get(d + 1)
            .map_or(self.fields.len(), |next| next.first_field as usize);
        let mut local = 0u32;
        let mut rest = positions;
        for k in first..end {
            if self.fields[k].field != field {
                continue;
            }
            let base = self.global_bases[k];
            // The field's next value — if any — starts one span on.
            let next = (k + 1..end)
                .find(|&j| self.fields[j].field == field)
                .map(|_| local + self.global_bases[k + 1] - base);
            let here = next.map_or(rest.len(), |n| rest.partition_point(|&p| p < n));
            let (mine, later) = rest.split_at_mut(here);
            for p in mine {
                *p = *p - local + base;
            }
            rest = later;
            match next {
                Some(n) if !rest.is_empty() => local = n,
                _ => break,
            }
        }
    }

    /// Iterate the vocabulary of a field: `(term, postings)`. Empty for
    /// [`ANY_FIELD`] (see [`Index::any_vocabulary`]).
    pub fn field_vocabulary(
        &self,
        field: FieldId,
    ) -> impl Iterator<Item = (&str, PostingsList<'_>)> + '_ {
        self.slots
            .iter()
            .filter(move |((fid, _), _)| *fid == field)
            .map(|((_, tid), &slot)| (self.terms[tid.0 as usize].as_str(), self.list(slot)))
    }

    /// The vocabulary terms, in any field, that are not their own case
    /// fold and fold to `fold` ([`FoldTable`]; built on first use).
    pub(crate) fn fold_variants<'a>(&'a self, fold: &'a str) -> impl Iterator<Item = &'a str> {
        self.fold
            .get_or_init(|| FoldTable::new(self.terms.iter().map(String::as_str)))
            .get(fold)
    }

    /// Languages observed in a field's values.
    pub fn field_languages(&self, field: FieldId) -> Vec<LangTag> {
        self.field_langs
            .get(&field)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Distinct terms in the index (vocabulary size).
    pub fn vocabulary_size(&self) -> usize {
        self.terms.len()
    }

    /// All document ids.
    pub fn all_docs(&self) -> impl Iterator<Item = DocId> {
        (0..self.docs.len() as u32).map(DocId)
    }

    /// Every `(field, term, postings)` key in slot order — the raw feed
    /// for merging per-shard document frequencies into global
    /// collection statistics and for building the [`TermBounds`]
    /// pruning sidecar, whose entries it lines up with.
    pub(crate) fn all_postings(
        &self,
    ) -> impl Iterator<Item = (FieldId, &str, PostingsList<'_>)> + '_ {
        let mut keys = vec![(ANY_FIELD, TermId(0)); self.slots.len()];
        for (&key, &slot) in &self.slots {
            keys[slot as usize] = key;
        }
        (0u32..)
            .zip(keys)
            .map(|(slot, (fid, tid))| (fid, self.terms[tid.0 as usize].as_str(), self.list(slot)))
    }

    /// Every key as `(term, the term's Any document frequency, slot)`,
    /// in no particular order.
    pub(crate) fn term_keys(&self) -> impl Iterator<Item = (&str, u32, u32)> + '_ {
        self.slots.iter().map(|(&(_, tid), &slot)| {
            let t = tid.0 as usize;
            (self.terms[t].as_str(), self.any_df[t], slot)
        })
    }

    /// The slot of a `(field, index-normalized term)` key, if the index
    /// holds it.
    pub(crate) fn slot(&self, field: FieldId, term: &str) -> Option<u32> {
        let tid = *self.vocab.get(term)?;
        self.slots.get(&(field, tid)).copied()
    }

    /// The posting list in a slot: views of its ranges of the arenas.
    pub(crate) fn list(&self, slot: u32) -> PostingsList<'_> {
        let (at, end) = (self.lists[slot as usize], self.lists[slot as usize + 1]);
        let blocks = self.block_range(slot);
        let bytes = at.bytes as usize..end.bytes as usize;
        PostingsList {
            blocks: BlockView::new(
                &self.headers[blocks.clone()],
                &self.frames[bytes],
                u64::from(at.len),
                at.sum_tf,
            ),
            positions: self.positions_stored.then(|| Positions {
                frames: &self.pos_frames[blocks],
                data: &self.pos_data[at.pos_bytes as usize..end.pos_bytes as usize],
            }),
        }
    }

    /// The block ordinals of a slot's list — where its entries sit in
    /// any per-block table of this index ([`TermBounds`]).
    pub(crate) fn block_range(&self, slot: u32) -> Range<usize> {
        let (at, end) = (self.lists[slot as usize], self.lists[slot as usize + 1]);
        at.block as usize..end.block as usize
    }

    /// Keys (and so lists) in the index.
    pub(crate) fn n_keys(&self) -> usize {
        self.slots.len()
    }

    /// Blocks across all lists: the length of the block ordinal.
    pub(crate) fn n_blocks(&self) -> usize {
        self.headers.len()
    }

    /// Memory held by posting and stored-field storage, split into the
    /// bit-packed block streams, the positional frames and the stored
    /// values, so the codec's compression ratio and the positional
    /// diet are directly observable. Accumulated once at build time;
    /// this is a copy of six integers.
    pub fn postings_footprint(&self) -> PostingsFootprint {
        self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_text::{Analyzer, AnalyzerConfig, StopWordList};
    use std::collections::BTreeMap;

    fn plain_analyzer() -> Analyzer {
        Analyzer::new(AnalyzerConfig {
            stop_words: StopWordList::none(),
            ..AnalyzerConfig::default()
        })
    }

    fn positions(list: &PostingsList, i: usize) -> Vec<u32> {
        let mut out = Vec::new();
        list.positions_into(i, &mut out);
        out
    }

    fn small_index() -> Index {
        let mut b = IndexBuilder::new(plain_analyzer());
        b.add(
            &Document::new()
                .field("title", "Distributed Databases")
                .field("body-of-text", "databases for distributed systems"),
        );
        b.add(
            &Document::new()
                .field("title", "Operating Systems")
                .field("body-of-text", "scheduling and paging"),
        );
        b.build()
    }

    #[test]
    fn postings_and_df() {
        let idx = small_index();
        let title = idx.schema().get("title").unwrap();
        let body = idx.schema().get("body-of-text").unwrap();
        assert_eq!(idx.df(title, "databases"), 1);
        assert_eq!(idx.df(body, "databases"), 1);
        assert_eq!(idx.df(ANY_FIELD, "databases"), 1);
        assert_eq!(idx.df(ANY_FIELD, "systems"), 2);
        assert_eq!(idx.df(title, "systems"), 1);
        assert_eq!(idx.df(title, "missing"), 0);
    }

    /// The unfielded view of a term: `(doc, tf, document-global
    /// positions)` merged from its field lists.
    fn any_view(idx: &Index, term: &str) -> Vec<(DocId, u32, Vec<u32>)> {
        let mut by_doc: BTreeMap<DocId, (u32, Vec<u32>)> = BTreeMap::new();
        for (field, list) in idx.field_lists(term) {
            for (i, (doc, tf)) in list.docs_tfs().enumerate() {
                let mut own = positions(&list, i);
                idx.to_global_positions(doc, field, &mut own);
                let entry = by_doc.entry(doc).or_default();
                entry.0 += tf;
                entry.1.extend(own);
            }
        }
        by_doc
            .into_iter()
            .map(|(doc, (tf, mut pos))| {
                pos.sort_unstable();
                (doc, tf, pos)
            })
            .collect()
    }

    #[test]
    fn tf_counts_occurrences_across_doc() {
        let idx = small_index();
        // doc 0 contains "databases" twice (title + body) under Any,
        // which keeps no list of its own.
        assert!(idx.postings(ANY_FIELD, "databases").is_none());
        assert_eq!(idx.field_lists("databases").count(), 2);
        let any: Vec<(DocId, u32)> = any_view(&idx, "databases")
            .into_iter()
            .map(|(doc, tf, _)| (doc, tf))
            .collect();
        assert_eq!(any, vec![(DocId(0), 2)]);
        assert!(idx
            .any_vocabulary()
            .any(|entry| entry == ("databases", 1, 2)));
        assert_eq!(idx.df(ANY_FIELD, "databases"), 1);
        assert_eq!(idx.total_postings(ANY_FIELD, "databases"), 2);
    }

    #[test]
    fn positions_have_field_gaps() {
        let idx = small_index();
        // "databases" is title token 1 and body token 0; body starts
        // after title's 2 tokens + FIELD_GAP.
        let body = idx.schema().get("body-of-text").unwrap();
        let p = idx.postings(body, "databases").unwrap();
        assert!(p.has_positions());
        assert_eq!(positions(&p, 0), [0]);
        assert_eq!(
            any_view(&idx, "databases"),
            [(DocId(0), 2, vec![1, 2 + FIELD_GAP])]
        );
    }

    #[test]
    fn repeated_fields_map_onto_document_positions() {
        let mut b = IndexBuilder::new(plain_analyzer());
        b.add(&Document::new().field("title", "unrelated"));
        b.add(
            &Document::new()
                .field("author", "Jeff Ullman")
                .field("title", "databases")
                .field("author", "Hector Garcia"),
        );
        let idx = b.build();
        let author = idx.schema().get("author").unwrap();
        // The second author value is local position 2 + FIELD_GAP, and
        // starts after author 1 (2 tokens) and the title (1 token), each
        // closed by a gap.
        let p = idx.postings(author, "hector").unwrap();
        assert_eq!(positions(&p, 0), [2 + FIELD_GAP]);
        let second = 2 + FIELD_GAP + 1 + FIELD_GAP;
        assert_eq!(any_view(&idx, "hector"), [(DocId(1), 1, vec![second])]);
        assert_eq!(any_view(&idx, "ullman"), [(DocId(1), 1, vec![1])]);
        assert_eq!(
            any_view(&idx, "databases"),
            [(DocId(1), 1, vec![2 + FIELD_GAP])]
        );
    }

    #[test]
    fn positions_mode_none_drops_the_arena() {
        let mut b = IndexBuilder::new(plain_analyzer()).positions(PositionsMode::None);
        b.add(&Document::new().field("body-of-text", "lean lean postings"));
        let idx = b.build();
        assert!(!idx.has_positions());
        let body = idx.schema().get("body-of-text").unwrap();
        let p = idx.postings(body, "lean").unwrap();
        assert!(!p.has_positions());
        assert_eq!(positions(&p, 0), [] as [u32; 0]);
        // Doc/tf data is unaffected by the diet.
        assert_eq!(p.tf_of(DocId(0)), 2);
        assert_eq!(idx.total_postings(ANY_FIELD, "lean"), 2);
        let fp = idx.postings_footprint();
        assert_eq!(fp.positional_lists, 0);
        assert_eq!(fp.positional_bytes, 0);
        assert!(fp.block_bytes > 0);
    }

    #[test]
    fn doc_statistics() {
        let idx = small_index();
        assert_eq!(idx.n_docs(), 2);
        assert_eq!(idx.doc_token_count(DocId(0)), 6);
        assert_eq!(
            idx.doc_byte_size(DocId(0)),
            ("Distributed Databases".len() + "databases for distributed systems".len()) as u32
        );
        // doc 0 has 6 tokens, doc 1 has 5 ("and" etc. are not stopped by
        // the plain analyzer) → mean 5.5.
        assert!((idx.avg_doc_tokens() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn stored_fields_retrievable() {
        let idx = small_index();
        let title = idx.schema().get("title").unwrap();
        assert_eq!(idx.doc_field(DocId(1), title), Some("Operating Systems"));
        assert_eq!(idx.doc_fields(DocId(0)).count(), 2);
    }

    #[test]
    fn vocabulary_iteration() {
        let idx = small_index();
        let title = idx.schema().get("title").unwrap();
        let mut terms: Vec<&str> = idx.field_vocabulary(title).map(|(t, _)| t).collect();
        terms.sort_unstable();
        assert_eq!(
            terms,
            vec!["databases", "distributed", "operating", "systems"]
        );
    }

    #[test]
    fn stop_words_respected_at_index_time() {
        let mut b = IndexBuilder::new(Analyzer::default()); // minimal stops
        b.add(&Document::new().field("body-of-text", "the quick fox"));
        let idx = b.build();
        assert_eq!(idx.df(ANY_FIELD, "the"), 0);
        assert_eq!(idx.df(ANY_FIELD, "quick"), 1);
        // DocCount counts only indexed tokens.
        assert_eq!(idx.doc_token_count(DocId(0)), 2);
    }

    #[test]
    fn repeated_fields_gap_positions() {
        let mut b = IndexBuilder::new(plain_analyzer());
        b.add(
            &Document::new()
                .field("author", "Jeff Ullman")
                .field("author", "Hector Garcia"),
        );
        let idx = b.build();
        let author = idx.schema().get("author").unwrap();
        let p = idx.postings(author, "hector").unwrap();
        // Second author instance starts after 2 tokens + FIELD_GAP.
        assert_eq!(positions(&p, 0), [2 + FIELD_GAP]);
    }

    #[test]
    fn empty_index() {
        let idx = IndexBuilder::new(plain_analyzer()).build();
        assert_eq!(idx.n_docs(), 0);
        assert_eq!(idx.avg_doc_tokens(), 0.0);
        assert_eq!(idx.vocabulary_size(), 0);
    }

    #[test]
    fn blocks_agree_with_iteration_and_find() {
        let idx = small_index();
        for (field, term, list) in idx.all_postings() {
            assert_eq!(idx.postings(field, term).unwrap().len(), list.len());
            let mut cursor = BlockCursor::new(list.blocks());
            for (doc, tf) in list.docs_tfs() {
                assert_eq!((cursor.doc(), cursor.tf()), (doc.0, tf));
                assert_eq!(list.tf_of(doc), tf);
                cursor.next();
            }
            assert!(cursor.is_exhausted());
        }
    }

    #[test]
    fn footprint_counts_both_representations() {
        let idx = small_index();
        let fp = idx.postings_footprint();
        assert!(fp.lists > 0);
        assert_eq!(fp.positional_lists, fp.lists);
        assert!(fp.postings > 0);
        assert!(fp.positional_bytes > 0);
        assert!(fp.block_bytes > 0);
        let empty = IndexBuilder::new(plain_analyzer()).build();
        assert_eq!(empty.postings_footprint(), PostingsFootprint::default());
    }

    #[test]
    fn field_languages_tracked() {
        let mut b = IndexBuilder::new(plain_analyzer());
        b.add(
            &Document::new()
                .field_lang("title", "algorithm analysis", starts_text::LangTag::en_us())
                .field_lang("title", "algoritmo de datos", starts_text::LangTag::es()),
        );
        let idx = b.build();
        let title = idx.schema().get("title").unwrap();
        let langs = idx.field_languages(title);
        assert_eq!(langs.len(), 2);
    }
}
