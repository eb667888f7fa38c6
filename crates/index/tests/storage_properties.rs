//! Property-based tests for the frozen index storage: what the builder
//! freezes block by block as documents arrive must read back exactly
//! what the documents said.
//!
//! * `positions_into` returns the positions a fresh analysis of the
//!   input gives — field bases, the gap between field instances and the
//!   `Any` pseudo-field's document-global positions included — for
//!   repeated, empty and non-ASCII fields and for lists that straddle a
//!   128-posting block boundary with tf > 1 on the boundary document;
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
    BlockCursor, BlockHeader, BlockPostings, Document, EngineConfig, FieldId, IndexBuilder,
    PostingsList, ShardPolicy, ShardedEngine, ANY_FIELD, BLOCK_DOCS,
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
/// with the index's own analyzer: doc id → sorted positions.
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
    /// and positions, whole blocks and tails alike.
    #[test]
    fn positions_equal_a_fresh_analysis(docs in arb_docs()) {
        let analyzer = Analyzer::default();
        let mut builder = IndexBuilder::new(analyzer.clone());
        for doc in &docs {
            builder.add(doc);
        }
        let index = builder.build();
        let expected = expected_postings(&analyzer, &docs);
        prop_assert_eq!(index.postings_footprint().lists, expected.len() as u64);
        for ((field, term), by_doc) in &expected {
            let fid: FieldId = if field.is_empty() {
                ANY_FIELD
            } else {
                index.schema().get(field).expect("an indexed field")
            };
            let list = index.postings(fid, term).expect("an indexed key");
            let got: Vec<(u32, u32)> = list.docs_tfs().map(|(d, tf)| (d.0, tf)).collect();
            let want: Vec<(u32, u32)> =
                by_doc.iter().map(|(&d, p)| (d, p.len() as u32)).collect();
            prop_assert_eq!(&got, &want, "{}:{}", field, term);
            for (i, want) in by_doc.values().enumerate() {
                prop_assert_eq!(&positions(&list, i), want, "{}:{} posting {}", field, term, i);
            }
        }
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
    /// re-analyzed positions.
    #[test]
    fn packed_lists_read_back_exactly(docs in arb_docs()) {
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
                let expected = expected_postings(index.analyzer(), local);
                prop_assert_eq!(index.postings_footprint().lists, expected.len() as u64);
                for ((field, term), by_doc) in &expected {
                    let fid: FieldId = if field.is_empty() {
                        ANY_FIELD
                    } else {
                        index.schema().get(field).expect("an indexed field")
                    };
                    let list = index.postings(fid, term).expect("an indexed key");
                    let want: Vec<(u32, u32)> =
                        by_doc.iter().map(|(&d, p)| (d, p.len() as u32)).collect();
                    let decoded: Vec<(u32, u32)> =
                        list.docs_tfs().map(|(d, tf)| (d.0, tf)).collect();
                    prop_assert_eq!(&decoded, &want, "shards={} {}:{}", shards, field, term);
                    prop_assert_eq!(&cursor_walk(&list), &want);
                    let alone = BlockPostings::encode(&decoded);
                    prop_assert_eq!(list.blocks().raw_parts(), alone.view().raw_parts());
                    for (i, want) in by_doc.values().enumerate() {
                        prop_assert_eq!(&positions(&list, i), want, "{}:{} posting {}", field, term, i);
                    }
                }
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
    let list = index.postings(ANY_FIELD, "hot").unwrap();
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
    // Slot order is first-seen order: "solo" (title, then `Any`), then
    // "dense", whose first frames are packed with set bits.
    builder.add(&Document::new().field("title", "solo"));
    for _ in 0..BLOCK_DOCS + 3 {
        builder.add(&Document::new().field("title", ["dense"; 255].join(" ")));
    }
    let index = builder.build();
    let title = index.schema().get("title").unwrap();
    let solo = index.postings(ANY_FIELD, "solo").unwrap();
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
