//! The inverted index and its builder.
//!
//! A posting list is a [`BlockPostings`] stream (always present, always
//! what search evaluates) plus an optional *positional arena* consulted
//! only by `prox`: one bit-packed frame of token positions per 128-doc
//! block, in the same FOR codec as the doc/tf frames. Engines whose
//! queries can never reach `prox` build with [`PositionsMode::None`] and
//! store no positions at all.
//!
//! The builder freezes as it goes: a list keeps only its open block
//! uncompressed, and encodes it (doc/tf frame and positional frame) the
//! moment a document arrives for a full one; [`IndexBuilder::build`]
//! only flushes the tails. Stored field values live in one text buffer
//! per index, fenced by a small field table. Every `(field, term)` key
//! has one dense slot, which indexes both the lists and the engine's
//! [`TermBounds`].

use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

use starts_text::{Analyzer, LangTag};

use crate::blocks::{bits_for, pack_bits, BlockCursor, BlockPostings, BLOCK_DOCS, PAD_BYTES};
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
    /// Keep the positional arena for every field (the default): `prox`
    /// filters on real word distances.
    #[default]
    All,
    /// Store no positions. Ranking and Boolean evaluation are
    /// unaffected (they only read the block postings); `prox` degrades
    /// to plain document intersection, the honest capability of a
    /// source without a positional index.
    None,
}

/// Where one block's positional frame starts in
/// [`PositionalArena::data`], and the bit width of its values.
#[derive(Debug, Clone, Copy)]
struct PositionFrame {
    offset: u32,
    bits: u8,
}

/// The positional arena of one posting list: one frame per block of
/// the list's [`BlockPostings`], each holding the block's positions
/// posting by posting — the first position of a posting absolute, the
/// rest as gaps from the one before — bit-packed at the frame's widest
/// value. A posting's values start at the sum of the tfs before it in
/// its block, so the arena needs no per-posting offsets.
///
/// ```text
/// frames: [ {offset, bits} ; B ]
/// data:   [ frame 0 | frame 1 | … | frame B-1 | pad ]
/// frame b: [ p0, p1-p0, …, (next posting) q0, q1-q0, … ] @ bits
/// ```
#[derive(Debug, Clone, Default)]
struct PositionalArena {
    frames: Vec<PositionFrame>,
    data: Vec<u8>,
}

impl PositionalArena {
    /// Encode one block's positions, given as the block's tfs and its
    /// positions back to back (sorted within each posting). Turns
    /// `positions` into gaps in place.
    fn push_block(&mut self, tfs: &[u32], positions: &mut [u32]) {
        let mut start = 0usize;
        for &tf in tfs {
            let end = start + tf as usize;
            for k in (start + 1..end).rev() {
                positions[k] = positions[k]
                    .checked_sub(positions[k - 1])
                    .expect("token positions decrease within a posting");
            }
            start = end;
        }
        debug_assert_eq!(start, positions.len(), "tfs must cover the positions");
        let bits = positions.iter().fold(0, |w, &v| w.max(bits_for(v)));
        let offset = u32::try_from(self.data.len()).expect("positional frames exceed u32 offsets");
        self.data
            .reserve((positions.len() * bits as usize).div_ceil(8) + PAD_BYTES);
        pack_bits(&mut self.data, positions, bits);
        self.frames.push(PositionFrame {
            offset,
            bits: bits as u8,
        });
    }

    /// Seal the arena: the decoder's tail pad, no spare capacity.
    fn finish(&mut self) {
        if !self.frames.is_empty() {
            self.data.extend_from_slice(&[0u8; PAD_BYTES]);
        }
        self.frames.shrink_to_fit();
        self.data.shrink_to_fit();
    }

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
        (self.data.len() + self.frames.len() * std::mem::size_of::<PositionFrame>()) as u64
    }
}

/// One term's posting list: the block-compressed `(doc, tf)` stream all
/// evaluation runs on, plus the optional positional arena for `prox`.
#[derive(Debug, Clone, Default)]
pub struct PostingsList {
    blocks: BlockPostings,
    positions: Option<PositionalArena>,
}

impl PostingsList {
    /// Number of postings (documents) in the list.
    pub fn len(&self) -> usize {
        self.blocks.len() as usize
    }

    /// Whether the list holds no postings.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block-compressed stream (the store cursors seek over).
    pub fn blocks(&self) -> &BlockPostings {
        &self.blocks
    }

    /// Sum of term frequencies across the list (the content summary's
    /// "total number of postings").
    pub fn total_tf(&self) -> u64 {
        self.blocks.total_tf()
    }

    /// Iterate the `(doc, tf)` pairs in doc order, decoding block by
    /// block.
    pub fn docs_tfs(&self) -> PostingsIter<'_> {
        PostingsIter::new(&self.blocks)
    }

    /// Iterate the doc ids in order.
    pub fn docs(&self) -> impl Iterator<Item = DocId> + '_ {
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
        if let Some(arena) = &self.positions {
            let block = i / BLOCK_DOCS;
            let (before, tf) = self.blocks.tf_prefix(block, i % BLOCK_DOCS);
            arena.decode_into(block, before, tf, out);
        }
    }

    /// [`PostingsList::positions_into`] for the posting a cursor over
    /// this list sits on, located through the tfs the cursor already
    /// decoded instead of decoding the block again.
    pub(crate) fn cursor_positions_into(&self, cursor: &mut BlockCursor<'_>, out: &mut Vec<u32>) {
        if let Some(arena) = &self.positions {
            let (block, before, tf) = cursor.frame_span();
            arena.decode_into(block, before, tf, out);
        }
    }

    /// Bytes held by the positional arena, frames and fences (0 without
    /// positions).
    pub fn positional_bytes(&self) -> u64 {
        self.positions.as_ref().map_or(0, PositionalArena::bytes)
    }
}

/// Block-decoding iterator over a posting list's `(doc, tf)` pairs.
#[derive(Debug)]
pub struct PostingsIter<'a> {
    list: &'a BlockPostings,
    block: usize,
    pos: usize,
    docs: Vec<u32>,
    tfs: Vec<u32>,
}

impl<'a> PostingsIter<'a> {
    fn new(list: &'a BlockPostings) -> Self {
        let mut it = PostingsIter {
            list,
            block: 0,
            pos: 0,
            docs: Vec::new(),
            tfs: Vec::new(),
        };
        if list.n_blocks() > 0 {
            list.decode_block(0, &mut it.docs, &mut it.tfs);
        }
        it
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
        if self.pos == self.docs.len() {
            self.block += 1;
            self.pos = 0;
            if self.block < self.list.n_blocks() {
                self.list
                    .decode_block(self.block, &mut self.docs, &mut self.tfs);
            }
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

/// What pruning knows about one `(field, term)` key: the envelope of the
/// ranking algorithm's `term_weight` across the key's postings, whole
/// list and block by block.
#[derive(Debug, Clone)]
pub(crate) struct TermBound {
    /// Float max of the key's term weights: the `total_cmp` maximum of
    /// `block_max`.
    pub max: f64,
    /// Float min — pruning demands non-negative weights, so a negative
    /// (or non-finite) envelope disables the bound for its key.
    pub min: f64,
    /// Per-block maxima, one per 128-doc block of the key's posting list
    /// (see [`crate::blocks::BLOCK_DOCS`]) — the "block-max" side of
    /// Block-Max-WAND. Each is the float max of the exact weights of its
    /// block only, so it is usually far tighter than `max`.
    pub block_max: Box<[f64]>,
}

/// Per-`(field, term)` extrema of the ranking algorithm's term weights
/// over one index's postings — the build-time sidecar behind the
/// engine's dynamic pruning (see `docs/performance.md`), one entry per
/// key, indexed by the key's slot in the index. For a shard of a
/// sharded collection the weights are computed against the *global*
/// collection statistics, so each recorded maximum is the float max of
/// exactly the weight values query-time scoring can produce for that
/// key on this shard; a leaf's upper bound therefore holds without any
/// epsilon.
#[derive(Debug, Default)]
pub struct TermBounds {
    bounds: Vec<TermBound>,
}

impl TermBounds {
    /// Record the next slot's key: its weight minimum and its per-block
    /// maxima, the largest of which is its whole-list maximum. The
    /// extrema are `total_cmp`'s, so a NaN weight poisons the envelope
    /// (it sorts above +inf) and disables pruning for the key.
    pub(crate) fn push(&mut self, min: f64, block_max: Vec<f64>) {
        let max = block_max.iter().copied().max_by(f64::total_cmp);
        self.bounds.push(TermBound {
            max: max.unwrap_or(f64::NEG_INFINITY),
            min,
            block_max: block_max.into_boxed_slice(),
        });
    }

    /// What was recorded for a key slot, if anything.
    pub(crate) fn get(&self, slot: u32) -> Option<&TermBound> {
        self.bounds.get(slot as usize)
    }
}

/// Memory accounting for an index's posting storage, split by
/// representation so the block codec's compression win — and the
/// positional diet — stay measurable (`Index::postings_footprint`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingsFootprint {
    /// Number of posting lists (distinct `(field, term)` keys).
    pub lists: u64,
    /// Lists that carry a positional arena (0 under
    /// [`PositionsMode::None`]).
    pub positional_lists: u64,
    /// Total postings across all lists.
    pub postings: u64,
    /// Bytes held by the positional arenas (frames + fences).
    pub positional_bytes: u64,
    /// Bytes held by the bit-packed block streams, headers included.
    pub block_bytes: u64,
    /// Bytes held by the stored field values: the text buffer plus the
    /// field table.
    pub stored_bytes: u64,
}

impl PostingsFootprint {
    /// Account for one posting list.
    fn add_list(&mut self, list: &PostingsList) {
        self.lists += 1;
        self.postings += list.len() as u64;
        self.block_bytes += list.blocks.bytes();
        if list.has_positions() {
            self.positional_lists += 1;
            self.positional_bytes += list.positional_bytes();
        }
    }

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
    lists: Vec<PostingsList>,
    docs: Vec<StoredDoc>,
    fields: Vec<StoredField>,
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

/// Build-time state of one posting list: the blocks frozen so far plus
/// the open block — at most [`BLOCK_DOCS`] postings as doc/tf columns
/// and their positions back to back (none under
/// [`PositionsMode::None`]). Documents arrive in increasing order and
/// positions in increasing order within a document, so everything is
/// append-only.
#[derive(Debug, Default)]
struct ListBuilder {
    blocks: BlockPostings,
    arena: PositionalArena,
    docs: Vec<u32>,
    tfs: Vec<u32>,
    positions: Vec<u32>,
}

impl ListBuilder {
    /// Count one occurrence of the list's term in `doc` at `position`
    /// (`None` when positions are not stored), freezing the open block
    /// first when `doc` would be its 129th posting.
    fn push(&mut self, doc: DocId, position: Option<u32>) {
        match self.docs.last() {
            Some(&last) if last == doc.0 => *self.tfs.last_mut().unwrap() += 1,
            _ => {
                if self.docs.len() == BLOCK_DOCS {
                    self.freeze_block();
                }
                self.docs.push(doc.0);
                self.tfs.push(1);
            }
        }
        if let Some(position) = position {
            self.positions.push(position);
        }
    }

    /// Encode the open block into the frozen streams and empty it.
    fn freeze_block(&mut self) {
        self.blocks.push_block(&self.docs, &self.tfs);
        if !self.positions.is_empty() {
            self.arena.push_block(&self.tfs, &mut self.positions);
        }
        self.docs.clear();
        self.tfs.clear();
        self.positions.clear();
    }

    /// Flush the tail block and seal the list.
    fn finish(mut self, store_positions: bool) -> PostingsList {
        if !self.docs.is_empty() {
            self.freeze_block();
        }
        self.blocks.finish();
        let positions = store_positions.then(|| {
            self.arena.finish();
            self.arena
        });
        PostingsList {
            blocks: self.blocks,
            positions,
        }
    }
}

/// Mutable index construction.
#[derive(Debug)]
pub struct IndexBuilder {
    inner: Index,
    /// The open lists, indexed by slot (`inner.slots`).
    lists: Vec<ListBuilder>,
    store_positions: bool,
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
                docs: Vec::new(),
                fields: Vec::new(),
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

    /// Add a document; returns its id. Every token is indexed under its
    /// field and under the `Any` pseudo-field (with document-global
    /// positions, so unfielded `prox` works).
    pub fn add(&mut self, doc: &Document) -> DocId {
        let idx = &mut self.inner;
        let doc_id = DocId(idx.docs.len() as u32);
        let first_field =
            u32::try_from(idx.fields.len()).expect("stored fields exceed the u32 field space");
        let mut token_count: u32 = 0;
        let mut byte_size: u32 = 0;
        // Per-field position bases (repeated fields continue with a gap).
        let mut field_base: HashMap<FieldId, u32> = HashMap::new();
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
            let fbase = *field_base.get(&fid).unwrap_or(&0);
            let mut max_pos = 0u32;
            for (term, position) in &tokens {
                max_pos = max_pos.max(*position);
                token_count += 1;
                let tid = intern_term(&mut idx.vocab, &mut idx.terms, term);
                let store = self.store_positions;
                for (key, base) in [((fid, tid), fbase), ((ANY_FIELD, tid), global_base)] {
                    let position = store.then(|| position_at(base, *position));
                    let slot = *idx.slots.entry(key).or_insert_with(|| {
                        self.lists.push(ListBuilder::default());
                        u32::try_from(self.lists.len() - 1)
                            .expect("posting lists exceed the u32 slot space")
                    });
                    self.lists[slot as usize].push(doc_id, position);
                }
            }
            let advance = if tokens.is_empty() { 0 } else { max_pos + 1 };
            field_base.insert(fid, position_at(fbase, advance + FIELD_GAP));
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

    /// Finish building: flush each list's open tail block — every full
    /// block was frozen as it filled — and release the builders' spare
    /// capacity.
    pub fn build(self) -> Index {
        let mut index = self.inner;
        let store_positions = self.store_positions;
        index.lists = self
            .lists
            .into_iter()
            .map(|list| list.finish(store_positions))
            .collect();
        for list in &index.lists {
            index.footprint.add_list(list);
        }
        index.docs.shrink_to_fit();
        index.fields.shrink_to_fit();
        index.text.shrink_to_fit();
        index.footprint.stored_bytes =
            (index.text.len() + index.fields.len() * std::mem::size_of::<StoredField>()) as u64;
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
    pub fn postings(&self, field: FieldId, term: &str) -> Option<&PostingsList> {
        self.slot(field, term).map(|slot| self.list(slot))
    }

    /// Document frequency of a term in a field (`Document-frequency`).
    /// Doc ids are `u32`, so a list can never exceed `u32::MAX` entries;
    /// the checked conversion turns a broken invariant into a loud
    /// panic instead of a silent truncation.
    pub fn df(&self, field: FieldId, term: &str) -> u32 {
        self.postings(field, term).map_or(0, |p| {
            u32::try_from(p.len()).expect("posting list longer than the u32 doc-id space")
        })
    }

    /// Total postings (sum of tf over docs) of a term in a field — the
    /// content summary's "total number of postings" statistic.
    pub fn total_postings(&self, field: FieldId, term: &str) -> u64 {
        self.postings(field, term).map_or(0, PostingsList::total_tf)
    }

    /// Iterate the vocabulary of a field: `(term, postings)`.
    pub fn field_vocabulary(
        &self,
        field: FieldId,
    ) -> impl Iterator<Item = (&str, &PostingsList)> + '_ {
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
    pub(crate) fn all_postings(&self) -> impl Iterator<Item = (FieldId, &str, &PostingsList)> + '_ {
        let mut keys = vec![(ANY_FIELD, TermId(0)); self.lists.len()];
        for (&key, &slot) in &self.slots {
            keys[slot as usize] = key;
        }
        keys.into_iter()
            .zip(&self.lists)
            .map(|((fid, tid), list)| (fid, self.terms[tid.0 as usize].as_str(), list))
    }

    /// The slot of a `(field, index-normalized term)` key, if the index
    /// holds it.
    pub(crate) fn slot(&self, field: FieldId, term: &str) -> Option<u32> {
        let tid = *self.vocab.get(term)?;
        self.slots.get(&(field, tid)).copied()
    }

    /// The posting list in a slot.
    pub(crate) fn list(&self, slot: u32) -> &PostingsList {
        &self.lists[slot as usize]
    }

    /// Memory held by posting and stored-field storage, split into the
    /// bit-packed block streams, the positional arenas and the stored
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

    #[test]
    fn tf_counts_occurrences_across_doc() {
        let idx = small_index();
        // doc 0 contains "databases" twice (title + body) under Any.
        let p = idx.postings(ANY_FIELD, "databases").unwrap();
        assert_eq!(p.len(), 1);
        let pairs: Vec<(DocId, u32)> = p.docs_tfs().collect();
        assert_eq!(pairs, vec![(DocId(0), 2)]);
        assert_eq!(p.tf_of(DocId(0)), 2);
        assert_eq!(p.find(DocId(0)), Some((0, 2)));
        assert_eq!(p.find(DocId(1)), None);
        assert_eq!(idx.total_postings(ANY_FIELD, "databases"), 2);
    }

    #[test]
    fn positions_have_field_gaps() {
        let idx = small_index();
        let p = idx.postings(ANY_FIELD, "databases").unwrap();
        // "databases" is title token 1 and body token 0; body starts
        // after title's 2 tokens + FIELD_GAP.
        assert!(p.has_positions());
        assert_eq!(positions(p, 0), [1, 2 + FIELD_GAP]);
    }

    #[test]
    fn positions_mode_none_drops_the_arena() {
        let mut b = IndexBuilder::new(plain_analyzer()).positions(PositionsMode::None);
        b.add(&Document::new().field("body-of-text", "lean lean postings"));
        let idx = b.build();
        assert!(!idx.has_positions());
        let p = idx.postings(ANY_FIELD, "lean").unwrap();
        assert!(!p.has_positions());
        assert_eq!(positions(p, 0), [] as [u32; 0]);
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
        assert_eq!(positions(p, 0), [2 + FIELD_GAP]);
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
            let mut cursor = crate::blocks::BlockCursor::new(list.blocks());
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
