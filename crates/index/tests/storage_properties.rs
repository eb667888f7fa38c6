//! Property-based tests for the frozen index storage: what the builder
//! freezes block by block as documents arrive must read back exactly
//! what the documents said.
//!
//! * `positions_into` returns the positions a fresh analysis of the
//!   input gives — field bases and the gap between field instances
//!   included — for repeated, empty and non-ASCII fields and for lists
//!   that straddle a 128-posting block boundary with tf > 1 on the
//!   boundary document;
//! * `Any` is a view, not a list: no key of the index is unfielded, and
//!   for every term the view — its field lists merged, positions mapped
//!   through `to_global_positions` — reads back the `(doc, tf,
//!   document-global positions)` a fresh analysis gives, its `Any`
//!   document frequency and total postings equal that analysis, and the
//!   sharded collection statistics' `Any` df equal the monolithic
//!   index's; an unfielded `prox` measures distances across fields and
//!   across the values of a repeated field on those global positions;
//! * `doc_fields` returns every input field in order: name, text and
//!   language tag;
//! * `BlockPostings::encode` (a loop of `push_block` + `finish`) is
//!   byte-identical to the one-shot encoder it replaced, kept here as
//!   the oracle;
//! * the lists an index packs back to back into its per-index arenas
//!   read back exactly, at 1, 2 and 3 shards: every key's headers and
//!   frames are the bytes `BlockPostings::encode` gives for its
//!   postings, a cursor walk yields those postings, and its positions
//!   equal a fresh analysis — and a one-posting list directly before
//!   another key's bytes decodes as it does alone.

use std::collections::BTreeMap;

use proptest::prelude::*;
use starts_index::{
    BlockCursor, BlockHeader, BlockPostings, BoolNode, DocId, Document, Engine, EngineConfig,
    Index, IndexBuilder, PostingsList, ShardPolicy, ShardedEngine, TermSpec, ANY_FIELD, BLOCK_DOCS,
};
use starts_text::{Analyzer, LangTag};

/// The position gap the index leaves between separate field instances.
const FIELD_GAP: u32 = 100;

const FIELDS: &[&str] = &["title", "author", "body-of-text"];

/// Words with repeats, case variants and non-ASCII letters; "hot" is
/// drawn often enough that its lists run past one block.
const WORDS: &[&str] = &[
    "hot",
    "hot",
    "hot",
    "Hot",
    "cold",
    "über",
    "naïve",
    "日本",
    "ελλάδα",
    "x1",
    "the",
    "and",
];

fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        1 => Just(String::new()),
        1 => Just(" ,; ".to_string()),
        8 => proptest::collection::vec(0..WORDS.len(), 1..12)
            .prop_map(|w| w.iter().map(|&i| WORDS[i]).collect::<Vec<_>>().join(" ")),
    ]
}

fn arb_lang() -> impl Strategy<Value = Option<LangTag>> {
    prop_oneof![
        Just(None),
        Just(Some(LangTag::en_us())),
        Just(Some(LangTag::es())),
    ]
}

fn arb_doc() -> impl Strategy<Value = Document> {
    proptest::collection::vec((0..FIELDS.len(), arb_text(), arb_lang()), 0..5).prop_map(|fields| {
        fields
            .into_iter()
            .fold(Document::new(), |doc, (f, text, lang)| match lang {
                Some(lang) => doc.field_lang(FIELDS[f], text, lang),
                None => doc.field(FIELDS[f], text),
            })
    })
}

/// Enough documents that the busiest lists fill one block and spill
/// into the next.
fn arb_docs() -> impl Strategy<Value = Vec<Document>> {
    proptest::collection::vec(arb_doc(), 1..BLOCK_DOCS + 80)
}

/// Every `(field, term)` key's postings, re-derived from the documents
/// with the index's own analyzer: doc id → sorted positions. The empty
/// field name is `Any`, at document-global positions.
type Expected = BTreeMap<(String, String), BTreeMap<u32, Vec<u32>>>;

fn expected_postings(analyzer: &Analyzer, docs: &[Document]) -> Expected {
    let mut out = Expected::new();
    for (d, doc) in docs.iter().enumerate() {
        let mut field_base: BTreeMap<&str, u32> = BTreeMap::new();
        let mut global_base = 0u32;
        for fv in doc.fields() {
            let base = *field_base.get(fv.name.as_str()).unwrap_or(&0);
            let tokens = analyzer.analyze_borrowed(&fv.text);
            for (term, position) in &tokens {
                for (field, at) in [(fv.name.as_str(), base), ("", global_base)] {
                    out.entry((field.to_string(), term.to_string()))
                        .or_default()
                        .entry(d as u32)
                        .or_default()
                        .push(at + position);
                }
            }
            let advance = tokens.iter().map(|(_, p)| p + 1).max().unwrap_or(0);
            field_base.insert(&fv.name, base + advance + FIELD_GAP);
            global_base += advance + FIELD_GAP;
        }
    }
    out
}

/// The field keys of an expectation (everything but `Any`).
fn field_keys(expected: &Expected) -> u64 {
    expected
        .keys()
        .filter(|(field, _)| !field.is_empty())
        .count() as u64
}

/// The unfielded view of a term: doc id → the sorted document-global
/// positions of the term in any field, read off its field lists.
fn any_view(index: &Index, term: &str) -> BTreeMap<u32, Vec<u32>> {
    let mut out: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (field, list) in index.field_lists(term) {
        for (i, (doc, tf)) in list.docs_tfs().enumerate() {
            let mut own = positions(&list, i);
            assert_eq!(own.len(), tf as usize);
            index.to_global_positions(doc, field, &mut own);
            out.entry(doc.0).or_default().extend(own);
        }
    }
    for positions in out.values_mut() {
        positions.sort_unstable();
    }
    out
}

/// Check one index against the analysis of its own documents: every
/// field key's list, the unfielded view and the `Any` columns.
fn check_index(index: &Index, expected: &Expected) -> Result<(), TestCaseError> {
    prop_assert_eq!(index.postings_footprint().lists, field_keys(expected));
    prop_assert_eq!(index.field_vocabulary(ANY_FIELD).count(), 0);
    for ((field, term), by_doc) in expected {
        let want: Vec<(u32, u32)> = by_doc.iter().map(|(&d, p)| (d, p.len() as u32)).collect();
        if field.is_empty() {
            prop_assert!(
                index.postings(ANY_FIELD, term).is_none(),
                "Any:{} is a list",
                term
            );
            prop_assert_eq!(&any_view(index, term), by_doc, "Any:{}", term);
            let total: u64 = want.iter().map(|&(_, tf)| u64::from(tf)).sum();
            prop_assert_eq!(index.df(ANY_FIELD, term), want.len() as u32);
            prop_assert_eq!(index.total_postings(ANY_FIELD, term), total);
            continue;
        }
        let fid = index.schema().get(field).expect("an indexed field");
        let list = index.postings(fid, term).expect("an indexed key");
        let decoded: Vec<(u32, u32)> = list.docs_tfs().map(|(d, tf)| (d.0, tf)).collect();
        prop_assert_eq!(&decoded, &want, "{}:{}", field, term);
        prop_assert_eq!(&cursor_walk(&list), &want);
        let alone = BlockPostings::encode(&decoded);
        prop_assert_eq!(list.blocks().raw_parts(), alone.view().raw_parts());
        for (i, want) in by_doc.values().enumerate() {
            prop_assert_eq!(
                &positions(&list, i),
                want,
                "{}:{} posting {}",
                field,
                term,
                i
            );
        }
    }
    // The column accessor lists exactly the analysis's terms.
    let columns: BTreeMap<String, (u32, u64)> = index
        .any_vocabulary()
        .map(|(term, df, total)| (term.to_string(), (df, total)))
        .collect();
    let analysed: BTreeMap<String, (u32, u64)> = expected
        .iter()
        .filter(|((field, _), _)| field.is_empty())
        .map(|((_, term), by_doc)| {
            let total = by_doc.values().map(|p| p.len() as u64).sum();
            (term.clone(), (by_doc.len() as u32, total))
        })
        .collect();
    prop_assert_eq!(columns, analysed);
    Ok(())
}

fn positions(list: &PostingsList<'_>, i: usize) -> Vec<u32> {
    let mut out = Vec::new();
    list.positions_into(i, &mut out);
    out
}

/// Walk a list's blocks back into `(doc, tf)` pairs through a cursor.
fn cursor_walk(list: &PostingsList<'_>) -> Vec<(u32, u32)> {
    let mut cursor = BlockCursor::new(list.blocks());
    let mut out = Vec::new();
    while !cursor.is_exhausted() {
        out.push((cursor.doc(), cursor.tf()));
        cursor.next();
    }
    out
}

/// The one-shot encoder `BlockPostings::encode` replaced: every chunk
/// of `BLOCK_DOCS` postings packed in one pass, doc gaps then tfs.
fn one_shot_encode(postings: &[(u32, u32)]) -> (Vec<BlockHeader>, Vec<u8>) {
    fn bits_for(v: u32) -> u32 {
        32 - v.leading_zeros()
    }
    fn pack(out: &mut Vec<u8>, values: &[u32], width: u32) {
        if width == 0 {
            return;
        }
        let (mut acc, mut have) = (0u64, 0u32);
        for &v in values {
            acc |= u64::from(v) << have;
            have += width;
            while have >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                have -= 8;
            }
        }
        if have > 0 {
            out.push(acc as u8);
        }
    }
    let (mut headers, mut data) = (Vec::new(), Vec::new());
    let mut prev = 0u32;
    for chunk in postings.chunks(BLOCK_DOCS) {
        let offset = data.len() as u32;
        let gaps: Vec<u32> = chunk
            .iter()
            .map(|&(doc, _)| {
                let gap = doc - prev;
                prev = doc;
                gap
            })
            .collect();
        let tfs: Vec<u32> = chunk.iter().map(|&(_, tf)| tf).collect();
        let doc_bits = gaps.iter().map(|&g| bits_for(g)).max().unwrap_or(0);
        let tf_bits = tfs.iter().map(|&t| bits_for(t)).max().unwrap_or(0);
        pack(&mut data, &gaps, doc_bits);
        pack(&mut data, &tfs, tf_bits);
        headers.push(BlockHeader {
            max_doc: prev,
            count: chunk.len() as u16,
            doc_bits: doc_bits as u8,
            tf_bits: tf_bits as u8,
            offset,
        });
    }
    if !headers.is_empty() {
        data.extend_from_slice(&[0u8; 8]);
    }
    (headers, data)
}

proptest! {
    /// Every list holds exactly the re-analyzed documents: doc ids, tfs
    /// and positions, whole blocks and tails alike — and so does the
    /// unfielded view of every term.
    #[test]
    fn positions_equal_a_fresh_analysis(docs in arb_docs()) {
        let analyzer = Analyzer::default();
        let mut builder = IndexBuilder::new(analyzer.clone());
        for doc in &docs {
            builder.add(doc);
        }
        let index = builder.build();
        check_index(&index, &expected_postings(&analyzer, &docs))?;
    }

    /// Stored fields come back in input order, borrowed from one buffer.
    #[test]
    fn doc_fields_equal_the_input(docs in arb_docs()) {
        let mut builder = IndexBuilder::new(Analyzer::default());
        let ids: Vec<_> = docs.iter().map(|d| builder.add(d)).collect();
        let index = builder.build();
        for (doc, id) in docs.iter().zip(ids) {
            let got: Vec<(&str, &str, Option<&LangTag>)> = index.doc_fields(id).collect();
            let want: Vec<(&str, &str, Option<&LangTag>)> = doc
                .fields()
                .iter()
                .map(|f| (f.name.as_str(), f.text.as_str(), f.lang.as_ref()))
                .collect();
            prop_assert_eq!(got, want);
            for name in FIELDS {
                if let Some(fid) = index.schema().get(name) {
                    prop_assert_eq!(index.doc_field(id, fid), doc.get(name));
                }
            }
        }
    }

    /// Every shard's lists, packed back to back into its arenas, read
    /// back exactly: the bytes `encode` gives for the postings each
    /// decodes to, the same postings through a cursor, and the
    /// re-analyzed positions; every shard's unfielded view reads back
    /// its own documents, and the collection's `Any` df — the shards'
    /// columns summed — is the monolithic index's.
    #[test]
    fn packed_lists_read_back_exactly(docs in arb_docs()) {
        let whole = Engine::build(&docs, EngineConfig::default());
        for shards in [1, 2, 3] {
            let engine = ShardedEngine::build(
                &docs,
                EngineConfig {
                    shards,
                    shard_policy: ShardPolicy::Exact,
                    ..EngineConfig::default()
                },
            );
            let mut first = 0;
            for shard in engine.shards() {
                let index = shard.index();
                let local = &docs[first..first + index.n_docs() as usize];
                first += local.len();
                check_index(index, &expected_postings(index.analyzer(), local))?;
            }
            for (term, df, _) in whole.index().any_vocabulary() {
                let stat = engine.term_stats(DocId(0), &TermSpec::any(term));
                prop_assert_eq!(stat.df, df, "shards={} Any:{}", shards, term);
            }
        }
    }

    /// `encode` is byte-identical to the one-shot encoder, headers and
    /// frames, for lists of any length including exact block multiples.
    #[test]
    fn block_by_block_encoding_is_byte_identical(
        steps in proptest::collection::vec((1u32..300, 1u32..40), 0..3 * BLOCK_DOCS + 2),
    ) {
        let mut doc = 0u32;
        let postings: Vec<(u32, u32)> = steps
            .into_iter()
            .map(|(gap, tf)| {
                doc += gap;
                (doc, tf)
            })
            .collect();
        let list = BlockPostings::encode(&postings);
        let (headers, data) = list.view().raw_parts();
        let (want_headers, want_data) = one_shot_encode(&postings);
        prop_assert_eq!(headers, &want_headers[..]);
        prop_assert_eq!(data, &want_data[..]);
    }
}

/// A deterministic straddle: "hot" in 200 documents, twice in the one
/// that lands on each 128-posting block boundary.
#[test]
fn boundary_document_with_tf_above_one() {
    let docs: Vec<Document> = (0..200)
        .map(|d| {
            let text = if d == BLOCK_DOCS - 1 || d == BLOCK_DOCS {
                "hot cold hot"
            } else {
                "hot"
            };
            Document::new().field("body-of-text", text)
        })
        .collect();
    let analyzer = Analyzer::default();
    let mut builder = IndexBuilder::new(analyzer.clone());
    for doc in &docs {
        builder.add(doc);
    }
    let index = builder.build();
    let body = index.schema().get("body-of-text").unwrap();
    let list = index.postings(body, "hot").unwrap();
    assert_eq!(list.blocks().n_blocks(), 2);
    for i in 0..docs.len() {
        let want: &[u32] = if i == BLOCK_DOCS - 1 || i == BLOCK_DOCS {
            &[0, 2]
        } else {
            &[0]
        };
        assert_eq!(positions(&list, i), want, "posting {i}");
    }
}

/// A one-posting list whose last frame sits directly before another
/// key's bytes decodes as it does alone: its view ends at its own tail
/// pad, so no `u64` load of the decoders reaches the neighbour's bits.
#[test]
fn a_one_posting_list_ignores_its_neighbour() {
    let mut builder = IndexBuilder::new(Analyzer::default());
    // Slot order is first-seen order: "solo", then "dense", whose first
    // frames are packed with set bits.
    builder.add(&Document::new().field("title", "solo"));
    for _ in 0..BLOCK_DOCS + 3 {
        builder.add(&Document::new().field("title", ["dense"; 255].join(" ")));
    }
    let index = builder.build();
    let title = index.schema().get("title").unwrap();
    let solo = index.postings(title, "solo").unwrap();
    let dense = index.postings(title, "dense").unwrap();
    let (solo_headers, solo_frames) = solo.blocks().raw_parts();
    let (dense_headers, dense_frames) = dense.blocks().raw_parts();
    // The two lists are neighbours in both arenas.
    assert_eq!(solo_headers.as_ptr_range().end, dense_headers.as_ptr());
    assert_eq!(solo_frames.as_ptr_range().end, dense_frames.as_ptr());
    assert!(dense_frames[..8].iter().any(|&b| b != 0));
    let alone = BlockPostings::encode(&[(0, 1)]);
    assert_eq!(solo.blocks().raw_parts(), alone.view().raw_parts());
    assert_eq!(
        solo.docs_tfs().map(|(d, tf)| (d.0, tf)).collect::<Vec<_>>(),
        [(0, 1)]
    );
    assert_eq!(cursor_walk(&solo), [(0, 1)]);
    assert_eq!(solo.find(starts_index::DocId(0)), Some((0, 1)));
    assert_eq!(positions(&solo, 0), [0]);
    assert_eq!(positions(&dense, 0), (0..255).collect::<Vec<u32>>());
}

/// The documents an unfielded (or fielded) `prox` filter admits.
fn prox_docs(engine: &Engine, field: Option<&str>, a: &str, b: &str, distance: u32) -> Vec<u32> {
    let spec = |term: &str| match field {
        Some(field) => TermSpec::fielded(field, term),
        None => TermSpec::any(term),
    };
    let filter = BoolNode::Prox {
        left: spec(a),
        right: spec(b),
        distance,
        ordered: true,
    };
    let hits = engine.search(Some(&filter), None);
    hits.into_iter().map(|hit| hit.doc.0).collect()
}

/// An unfielded `prox` across two fields: "alpha" ends the title at
/// global position 0, "beta" opens the body after the title's one token
/// and the gap, at 1 + `FIELD_GAP` — `FIELD_GAP` words apart, so
/// `prox[FIELD_GAP]` is the first distance that admits the document.
#[test]
fn unfielded_prox_across_two_fields_at_the_gap() {
    let docs = [
        Document::new()
            .field("title", "alpha")
            .field("body-of-text", "beta"),
        Document::new().field("title", "beta alpha"),
    ];
    let engine = Engine::build(&docs, EngineConfig::default());
    assert_eq!(prox_docs(&engine, None, "alpha", "beta", FIELD_GAP), [0]);
    assert_eq!(
        prox_docs(&engine, None, "alpha", "beta", FIELD_GAP - 1),
        [] as [u32; 0]
    );
    // Within one field the two words are never paired.
    assert_eq!(
        prox_docs(&engine, Some("title"), "alpha", "beta", 10 * FIELD_GAP),
        [] as [u32; 0]
    );
}

/// A `prox` across two values of one repeated field: fielded, the
/// second author value starts one value span after the first (1 token +
/// `FIELD_GAP`); unfielded, the title between them adds its own span.
#[test]
fn prox_across_two_values_of_a_repeated_field() {
    let docs = [Document::new()
        .field("author", "alpha")
        .field("title", "gamma")
        .field("author", "beta")];
    let engine = Engine::build(&docs, EngineConfig::default());
    let fielded = FIELD_GAP;
    let unfielded = 2 * (1 + FIELD_GAP) - 1;
    assert_eq!(
        prox_docs(&engine, Some("author"), "alpha", "beta", fielded),
        [0]
    );
    assert_eq!(
        prox_docs(&engine, Some("author"), "alpha", "beta", fielded - 1),
        [] as [u32; 0]
    );
    assert_eq!(prox_docs(&engine, None, "alpha", "beta", unfielded), [0]);
    assert_eq!(
        prox_docs(&engine, None, "alpha", "beta", unfielded - 1),
        [] as [u32; 0]
    );
    assert_eq!(prox_docs(&engine, None, "gamma", "beta", FIELD_GAP), [0]);
}

/// No key of an index is unfielded: `Any` has no list, no vocabulary
/// and no slot, and every list belongs to a concrete field.
#[test]
fn no_key_is_unfielded() {
    let docs = [
        Document::new()
            .field("title", "alpha beta")
            .field("body-of-text", "beta gamma"),
        Document::new().field("author", "alpha"),
    ];
    let engine = Engine::build(&docs, EngineConfig::default());
    let index = engine.index();
    assert_eq!(index.field_vocabulary(ANY_FIELD).count(), 0);
    let mut field_keys = 0;
    for field in index.schema().concrete_fields() {
        field_keys += index.field_vocabulary(field).count() as u64;
    }
    assert_eq!(field_keys, 5);
    assert_eq!(index.postings_footprint().lists, field_keys);
    for (term, df, _) in index.any_vocabulary() {
        assert!(index.postings(ANY_FIELD, term).is_none(), "{term}");
        assert_eq!(index.df(ANY_FIELD, term), df);
    }
    assert_eq!(index.df(ANY_FIELD, "alpha"), 2);
    assert_eq!(index.total_postings(ANY_FIELD, "beta"), 2);
}
