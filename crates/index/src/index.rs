//! The inverted index and its builder.
//!
//! Since the block codec became the primary doc/tf store, a posting
//! list is a [`BlockPostings`] stream (always present, always what
//! search evaluates) plus an optional *positional arena* — a compact
//! `offsets`/`positions` pair consulted only by `prox` and stats
//! reporting. Engines whose queries can never reach `prox` build with
//! [`PositionsMode::None`] and store no positions at all.

use std::collections::{BTreeSet, HashMap};

use starts_text::{Analyzer, LangTag};

use crate::blocks::{BlockPostings, BLOCK_DOCS};
use crate::doc::{DocId, Document};
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

/// The positional arena of one posting list: all position lists
/// back-to-back in one `u32` buffer, fenced by `offsets` (one entry per
/// posting plus a final end fence). Replaces the former per-posting
/// `Vec<u32>` representation at a fraction of the memory.
#[derive(Debug, Clone, Default)]
struct PositionalArena {
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl PositionalArena {
    fn slice(&self, i: usize) -> &[u32] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.positions[lo..hi]
    }

    fn bytes(&self) -> u64 {
        ((self.offsets.len() + self.positions.len()) * std::mem::size_of::<u32>()) as u64
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

    /// Sorted token positions of the `i`-th posting; empty when the
    /// index was built without positions.
    pub fn positions_at(&self, i: usize) -> &[u32] {
        self.positions.as_ref().map_or(&[], |a| a.slice(i))
    }

    /// Bytes held by the positional arena (0 without positions).
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

/// A stored document: field values plus the statistics STARTS results
/// report (`DocSize`, `DocCount`).
#[derive(Debug, Clone)]
pub(crate) struct StoredDoc {
    pub fields: Vec<(FieldId, String, Option<LangTag>)>,
    /// Number of tokens in the document ("the number of tokens (as
    /// determined by the source)" — `DocCount`).
    pub token_count: u32,
    /// Total byte size of the document text (`DocSize` reports KBytes).
    pub byte_size: u32,
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
/// key. For a shard of a sharded collection the weights are computed
/// against the *global* collection statistics, so each recorded maximum
/// is the float max of exactly the weight values query-time scoring can
/// produce for that key on this shard; a leaf's upper bound therefore
/// holds without any epsilon.
#[derive(Debug, Default)]
pub struct TermBounds {
    bounds: HashMap<(FieldId, TermId), TermBound>,
}

impl TermBounds {
    /// Record one key: its weight minimum and its per-block maxima, the
    /// largest of which is its whole-list maximum. The extrema are
    /// `total_cmp`'s, so a NaN weight poisons the envelope (it sorts
    /// above +inf) and disables pruning for the key.
    pub(crate) fn insert(&mut self, field: FieldId, term: TermId, min: f64, block_max: Vec<f64>) {
        let max = block_max.iter().copied().max_by(f64::total_cmp);
        let bound = TermBound {
            max: max.unwrap_or(f64::NEG_INFINITY),
            min,
            block_max: block_max.into_boxed_slice(),
        };
        self.bounds.insert((field, term), bound);
    }

    /// What was recorded for a key, if anything.
    pub(crate) fn get(&self, field: FieldId, term: TermId) -> Option<&TermBound> {
        self.bounds.get(&(field, term))
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
    /// Bytes held by the positional arenas (offsets + positions).
    pub positional_bytes: u64,
    /// Bytes held by the bit-packed block streams, headers included.
    pub block_bytes: u64,
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
    }
}

/// An immutable, fully-built index.
#[derive(Debug)]
pub struct Index {
    schema: Schema,
    analyzer: Analyzer,
    terms: Vec<String>,
    vocab: HashMap<String, TermId>,
    postings: HashMap<(FieldId, TermId), PostingsList>,
    docs: Vec<StoredDoc>,
    total_tokens: u64,
    /// Languages observed per field, for metadata export.
    field_langs: HashMap<FieldId, BTreeSet<LangTag>>,
    positions_stored: bool,
    /// Accumulated by [`IndexBuilder::build`] as each list is frozen;
    /// the index is immutable afterwards, so it never goes stale.
    footprint: PostingsFootprint,
}

/// Build-time accumulation for one posting list: columnar doc/tf plus
/// the flat position stream (empty under [`PositionsMode::None`]).
/// Documents arrive in increasing order and positions in increasing
/// order within a document, so everything is append-only.
#[derive(Debug, Default)]
struct ScratchList {
    docs: Vec<u32>,
    tfs: Vec<u32>,
    positions: Vec<u32>,
}

/// Mutable index construction.
#[derive(Debug)]
pub struct IndexBuilder {
    inner: Index,
    scratch: HashMap<(FieldId, TermId), ScratchList>,
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
                postings: HashMap::new(),
                docs: Vec::new(),
                total_tokens: 0,
                field_langs: HashMap::new(),
                positions_stored: true,
                footprint: PostingsFootprint::default(),
            },
            scratch: HashMap::new(),
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
        let mut stored = Vec::with_capacity(doc.fields().len());
        let mut token_count: u32 = 0;
        let mut byte_size: u32 = 0;
        // Per-field position bases (repeated fields continue with a gap).
        let mut field_base: HashMap<FieldId, u32> = HashMap::new();
        let mut global_base: u32 = 0;
        for fv in doc.fields() {
            let fid = idx.schema.intern(&fv.name);
            byte_size += fv.text.len() as u32;
            if let Some(lang) = &fv.lang {
                idx.field_langs.entry(fid).or_default().insert(lang.clone());
                idx.field_langs
                    .entry(ANY_FIELD)
                    .or_default()
                    .insert(lang.clone());
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
                push_position(
                    &mut self.scratch,
                    (fid, tid),
                    doc_id,
                    fbase + position,
                    self.store_positions,
                );
                push_position(
                    &mut self.scratch,
                    (ANY_FIELD, tid),
                    doc_id,
                    global_base + position,
                    self.store_positions,
                );
            }
            let advance = if tokens.is_empty() { 0 } else { max_pos + 1 };
            field_base.insert(fid, fbase + advance + FIELD_GAP);
            global_base += advance + FIELD_GAP;
            stored.push((fid, fv.text.clone(), fv.lang.clone()));
        }
        idx.total_tokens += u64::from(token_count);
        idx.docs.push(StoredDoc {
            fields: stored,
            token_count,
            byte_size,
        });
        doc_id
    }

    /// Finish building: bit-pack each accumulated list into 128-doc
    /// blocks (the store all evaluation runs on) and freeze the flat
    /// position streams into per-list arenas — or drop them under
    /// [`PositionsMode::None`].
    pub fn build(self) -> Index {
        let mut index = self.inner;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (key, scratch) in self.scratch {
            pairs.clear();
            pairs.extend(
                scratch
                    .docs
                    .iter()
                    .copied()
                    .zip(scratch.tfs.iter().copied()),
            );
            let blocks = BlockPostings::encode(&pairs);
            let positions = self.store_positions.then(|| {
                let mut offsets = Vec::with_capacity(scratch.tfs.len() + 1);
                let mut acc = 0u32;
                offsets.push(0);
                for &tf in &scratch.tfs {
                    acc = acc
                        .checked_add(tf)
                        .expect("position arena longer than the u32 offset space");
                    offsets.push(acc);
                }
                PositionalArena {
                    offsets,
                    positions: scratch.positions,
                }
            });
            let list = PostingsList { blocks, positions };
            index.footprint.add_list(&list);
            index.postings.insert(key, list);
        }
        index
    }
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

fn push_position(
    scratch: &mut HashMap<(FieldId, TermId), ScratchList>,
    key: (FieldId, TermId),
    doc: DocId,
    position: u32,
    store_positions: bool,
) {
    let list = scratch.entry(key).or_default();
    match list.docs.last() {
        Some(&last) if last == doc.0 => *list.tfs.last_mut().unwrap() += 1,
        _ => {
            list.docs.push(doc.0);
            list.tfs.push(1);
        }
    }
    if store_positions {
        list.positions.push(position);
    }
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

    /// Stored field values of a document, in insertion order.
    pub fn doc_fields(&self, doc: DocId) -> impl Iterator<Item = (&str, &str, Option<&LangTag>)> {
        self.docs[doc.0 as usize]
            .fields
            .iter()
            .map(|(fid, text, lang)| (self.schema.name(*fid), text.as_str(), lang.as_ref()))
    }

    /// First stored value of the named field for a document.
    pub fn doc_field(&self, doc: DocId, field: FieldId) -> Option<&str> {
        self.docs[doc.0 as usize]
            .fields
            .iter()
            .find(|(fid, _, _)| *fid == field)
            .map(|(_, text, _)| text.as_str())
    }

    /// Whether this index stores token positions ([`PositionsMode`]).
    pub fn has_positions(&self) -> bool {
        self.positions_stored
    }

    /// The posting list for a (field, term) pair. The term must be in
    /// index-normalized form (the caller normalizes via the analyzer).
    pub fn postings(&self, field: FieldId, term: &str) -> Option<&PostingsList> {
        let tid = self.vocab.get(term)?;
        self.postings.get(&(field, *tid))
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
        self.postings
            .iter()
            .filter(move |((fid, _), _)| *fid == field)
            .map(|((_, tid), list)| (self.terms[tid.0 as usize].as_str(), list))
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

    /// Every `(field, term id, term, postings)` tuple in the index, in
    /// arbitrary order — the raw feed for merging per-shard document
    /// frequencies into global collection statistics and for building
    /// the [`TermBounds`] pruning sidecar.
    pub(crate) fn all_postings(
        &self,
    ) -> impl Iterator<Item = (FieldId, TermId, &str, &PostingsList)> + '_ {
        self.postings
            .iter()
            .map(|((fid, tid), list)| (*fid, *tid, self.terms[tid.0 as usize].as_str(), list))
    }

    /// The interned id of an index-normalized term, if present.
    pub(crate) fn term_id(&self, term: &str) -> Option<TermId> {
        self.vocab.get(term).copied()
    }

    /// The posting list of an interned key, if present.
    pub(crate) fn postings_by_id(&self, field: FieldId, term: TermId) -> Option<&PostingsList> {
        self.postings.get(&(field, term))
    }

    /// Memory held by posting storage, split into the bit-packed block
    /// streams and the positional arenas, so both the codec's
    /// compression ratio and the positional diet are directly
    /// observable. Accumulated once at build time; this is a copy of
    /// five integers.
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
        assert_eq!(p.positions_at(0), &[1, 2 + FIELD_GAP]);
    }

    #[test]
    fn positions_mode_none_drops_the_arena() {
        let mut b = IndexBuilder::new(plain_analyzer()).positions(PositionsMode::None);
        b.add(&Document::new().field("body-of-text", "lean lean postings"));
        let idx = b.build();
        assert!(!idx.has_positions());
        let p = idx.postings(ANY_FIELD, "lean").unwrap();
        assert!(!p.has_positions());
        assert_eq!(p.positions_at(0), &[] as &[u32]);
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
        assert_eq!(p.positions_at(0), &[2 + FIELD_GAP]);
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
        for (field, tid, _, list) in idx.all_postings() {
            assert_eq!(idx.postings_by_id(field, tid).unwrap().len(), list.len());
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
