//! The typed `@SQuery` / `@SQResults` codec against the codec it
//! replaced. `oracle` is the earlier implementation, kept verbatim: every
//! value went through a [`SoifObject`] on the way out and on the way in.
//! The codec writes and reads the wire form directly, so it must
//!
//! * write the very bytes the oracle writes, for any value; and
//! * on any input — arbitrary bytes, or a valid encoding with one
//!   attribute (or its byte count) flipped, dropped, duplicated or cut
//!   short — fail exactly when the oracle fails, decode exactly what the
//!   oracle decodes, and never panic, under both framing modes.
//!
//! Seeds are the paper's Examples 6–9; generated values add profiles,
//! trace contexts, `Other` fields, non-ASCII text, weights and empty
//! expressions.

mod strategies;

use proptest::prelude::*;
use starts_proto::query::{AnswerSpec, FilterExpr, QTerm, SortKey, SortOrder};
use starts_proto::{
    Field, ProtoError, Query, QueryResults, ResultDocument, TermStatsEntry, TraceContext,
};
use starts_soif::{parse, parse_one, write_object, ParseMode};
use strategies::mutations::{check_every_mutation, mutations};
use strategies::{
    arb_field, arb_filter, arb_lang, arb_profile, arb_ranking, arb_term, arb_text,
    arb_trace_context,
};

/// The `SoifObject`-based codec as it was, printer included.
mod oracle {
    use starts_proto::query::{
        parse_filter, parse_ranking, FilterExpr, ProxSpec, QTerm, RankExpr, SortKey, SortOrder,
        WeightedTerm,
    };
    use starts_proto::{
        Field, LString, ProtoError, Query, QueryProfile, QueryResults, ResultDocument,
        TermStatsEntry, TraceContext, PROFILE_ATTR, TRACE_ATTR,
    };
    use starts_soif::{write_object_into, SoifObject, SoifReader, STARTS_VERSION, VERSION_ATTR};
    use starts_text::LangTag;

    fn quote(text: &str) -> String {
        let mut out = String::with_capacity(text.len() + 2);
        out.push('"');
        for c in text.chars() {
            if c == '"' || c == '\\' {
                out.push('\\');
            }
            out.push(c);
        }
        out.push('"');
        out
    }

    fn to_query_syntax(s: &LString) -> String {
        let quoted = quote(&s.text);
        match &s.lang {
            None => quoted,
            Some(lang) => format!("[{lang} {quoted}]"),
        }
    }

    fn print_term(t: &QTerm) -> String {
        if t.is_bare() {
            return to_query_syntax(&t.value);
        }
        let mut parts: Vec<String> = Vec::with_capacity(2 + t.modifiers.len());
        if let Some(f) = &t.field {
            parts.push(f.name().to_string());
        }
        for m in &t.modifiers {
            parts.push(m.name().to_string());
        }
        parts.push(to_query_syntax(&t.value));
        format!("({})", parts.join(" "))
    }

    fn print_prox(spec: &ProxSpec) -> String {
        format!(
            "prox[{},{}]",
            spec.distance,
            if spec.ordered { "T" } else { "F" }
        )
    }

    fn print_filter(e: &FilterExpr) -> String {
        match e {
            FilterExpr::Term(t) => print_term(t),
            FilterExpr::And(a, b) => format!("({} and {})", print_filter(a), print_filter(b)),
            FilterExpr::Or(a, b) => format!("({} or {})", print_filter(a), print_filter(b)),
            FilterExpr::AndNot(a, b) => {
                format!("({} and-not {})", print_filter(a), print_filter(b))
            }
            FilterExpr::Prox(l, spec, r) => {
                format!("({} {} {})", print_term(l), print_prox(spec), print_term(r))
            }
        }
    }

    fn print_weighted(t: &WeightedTerm) -> String {
        match t.weight {
            None => print_term(&t.term),
            Some(w) => format!("({} {})", print_term(&t.term), fmt_weight(w)),
        }
    }

    fn print_ranking(e: &RankExpr) -> String {
        match e {
            RankExpr::Term(t) => print_weighted(t),
            RankExpr::List(items) => {
                let inner: Vec<String> = items.iter().map(print_ranking).collect();
                format!("list({})", inner.join(" "))
            }
            RankExpr::And(a, b) => format!("({} and {})", print_ranking(a), print_ranking(b)),
            RankExpr::Or(a, b) => format!("({} or {})", print_ranking(a), print_ranking(b)),
            RankExpr::AndNot(a, b) => {
                format!("({} and-not {})", print_ranking(a), print_ranking(b))
            }
            RankExpr::Prox(l, spec, r) => format!(
                "({} {} {})",
                print_weighted(l),
                print_prox(spec),
                print_weighted(r)
            ),
        }
    }

    fn fmt_weight(w: f64) -> String {
        format!("{w}")
    }

    fn field_parse(name: &str) -> Field {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "title" => Field::Title,
            "author" => Field::Author,
            "body-of-text" => Field::BodyOfText,
            "document-text" => Field::DocumentText,
            "date-last-modified" | "date/time-last-modified" | "date-time-last-modified" => {
                Field::DateLastModified
            }
            "any" => Field::Any,
            "linkage" => Field::Linkage,
            "linkage-type" => Field::LinkageType,
            "cross-reference-linkage" => Field::CrossReferenceLinkage,
            "languages" => Field::Languages,
            "free-form-text" => Field::FreeFormText,
            _ => Field::Other(lower),
        }
    }

    fn term_stats_encode(e: &TermStatsEntry) -> String {
        format!(
            "{} {} {} {}",
            print_term(&e.term),
            e.term_frequency,
            fmt_weight(e.term_weight),
            e.document_frequency
        )
    }

    fn term_stats_decode(line: &str) -> Result<TermStatsEntry, ProtoError> {
        let trimmed = line.trim();
        let mut parts: Vec<&str> = trimmed.rsplitn(4, char::is_whitespace).collect();
        if parts.len() != 4 {
            return Err(ProtoError::invalid(
                "TermStats",
                format!("bad line {line:?}"),
            ));
        }
        parts.reverse();
        let term_src = parts[0].trim();
        let term = match parse_filter(term_src)? {
            FilterExpr::Term(t) => t,
            _ => {
                return Err(ProtoError::invalid(
                    "TermStats",
                    "expected a single term before the statistics",
                ))
            }
        };
        let tf: u32 = parts[1]
            .parse()
            .map_err(|_| ProtoError::invalid("TermStats", "bad term frequency"))?;
        let weight: f64 = parts[2]
            .parse()
            .map_err(|_| ProtoError::invalid("TermStats", "bad term weight"))?;
        let df: u32 = parts[3]
            .parse()
            .map_err(|_| ProtoError::invalid("TermStats", "bad document frequency"))?;
        Ok(TermStatsEntry {
            term,
            term_frequency: tf,
            term_weight: weight,
            document_frequency: df,
        })
    }

    pub fn doc_to_soif(d: &ResultDocument) -> SoifObject {
        let mut o = SoifObject::new("SQRDocument");
        o.push_str(VERSION_ATTR, STARTS_VERSION);
        if let Some(s) = d.raw_score {
            o.push_str("RawScore", fmt_weight(s));
        }
        o.push_str("Sources", d.sources.join(" "));
        for (f, v) in &d.fields {
            o.push_str(f.name(), v);
        }
        if !d.term_stats.is_empty() {
            let lines: Vec<String> = d.term_stats.iter().map(term_stats_encode).collect();
            o.push_str("TermStats", lines.join("\n"));
        }
        o.push_str("DocSize", d.doc_size_kb.to_string());
        o.push_str("DocCount", d.doc_count.to_string());
        o
    }

    pub fn doc_from_soif(o: &SoifObject) -> Result<ResultDocument, ProtoError> {
        if !o.template.eq_ignore_ascii_case("SQRDocument") {
            return Err(ProtoError::WrongTemplate {
                expected: "SQRDocument",
                found: o.template.clone(),
            });
        }
        let mut doc = ResultDocument {
            raw_score: None,
            sources: Vec::new(),
            fields: Vec::new(),
            term_stats: Vec::new(),
            doc_size_kb: 0,
            doc_count: 0,
        };
        for attr in o.iter() {
            let name = attr.name.as_str();
            let value = std::str::from_utf8(&attr.value)
                .map_err(|_| ProtoError::invalid(name, "not UTF-8"))?;
            match name.to_ascii_lowercase().as_str() {
                "version" => {}
                "rawscore" => {
                    doc.raw_score = Some(
                        value
                            .parse()
                            .map_err(|_| ProtoError::invalid("RawScore", "not a number"))?,
                    )
                }
                "sources" => doc.sources = value.split_whitespace().map(str::to_string).collect(),
                "termstats" => {
                    doc.term_stats = value
                        .lines()
                        .filter(|l| !l.trim().is_empty())
                        .map(term_stats_decode)
                        .collect::<Result<_, _>>()?;
                }
                "docsize" => {
                    doc.doc_size_kb = value
                        .trim()
                        .parse()
                        .map_err(|_| ProtoError::invalid("DocSize", "not an integer"))?
                }
                "doccount" => {
                    doc.doc_count = value
                        .trim()
                        .parse()
                        .map_err(|_| ProtoError::invalid("DocCount", "not an integer"))?
                }
                _ => doc.fields.push((field_parse(name), value.to_string())),
            }
        }
        Ok(doc)
    }

    pub fn header_soif(r: &QueryResults) -> SoifObject {
        let mut o = SoifObject::new("SQResults");
        o.push_str(VERSION_ATTR, STARTS_VERSION);
        o.push_str("Sources", r.sources.join(" "));
        o.push_str(
            "ActualFilterExpression",
            r.actual_filter
                .as_ref()
                .map(print_filter)
                .unwrap_or_default(),
        );
        o.push_str(
            "ActualRankingExpression",
            r.actual_ranking
                .as_ref()
                .map(print_ranking)
                .unwrap_or_default(),
        );
        o.push_str("NumDocSOIFs", r.documents.len().to_string());
        if let Some(profile) = &r.profile {
            o.push_str(PROFILE_ATTR, profile.encode());
        }
        o
    }

    pub fn from_header(o: &SoifObject) -> Result<QueryResults, ProtoError> {
        if !o.template.eq_ignore_ascii_case("SQResults") {
            return Err(ProtoError::WrongTemplate {
                expected: "SQResults",
                found: o.template.clone(),
            });
        }
        let sources = o
            .get_str("Sources")
            .map(|v| v.split_whitespace().map(str::to_string).collect())
            .unwrap_or_default();
        let actual_filter = match o.get_str("ActualFilterExpression") {
            Some(s) if !s.trim().is_empty() => Some(parse_filter(s)?),
            _ => None,
        };
        let actual_ranking = match o.get_str("ActualRankingExpression") {
            Some(s) if !s.trim().is_empty() => Some(parse_ranking(s)?),
            _ => None,
        };
        Ok(QueryResults {
            sources,
            actual_filter,
            actual_ranking,
            documents: Vec::new(),
            profile: o.get_str(PROFILE_ATTR).and_then(QueryProfile::decode),
        })
    }

    pub fn to_soif_stream(r: &QueryResults) -> Vec<u8> {
        let mut out = Vec::new();
        write_object_into(&header_soif(r), &mut out);
        for d in &r.documents {
            out.push(b'\n');
            write_object_into(&doc_to_soif(d), &mut out);
        }
        out
    }

    pub fn from_soif_stream(bytes: &[u8]) -> Result<QueryResults, ProtoError> {
        let mut reader = SoifReader::new(bytes, starts_soif::ParseMode::Strict);
        let header = reader
            .next_object()?
            .ok_or_else(|| ProtoError::missing("SQResults", "(whole object)"))?;
        let mut results = from_header(&header)?;
        while let Some(obj) = reader.next_object()? {
            results.documents.push(doc_from_soif(&obj)?);
        }
        Ok(results)
    }

    pub fn query_to_soif(q: &Query) -> SoifObject {
        let mut o = SoifObject::new("SQuery");
        o.push_str(VERSION_ATTR, STARTS_VERSION);
        if let Some(f) = &q.filter {
            o.push_str("FilterExpression", print_filter(f));
        }
        if let Some(r) = &q.ranking {
            o.push_str("RankingExpression", print_ranking(r));
        }
        o.push_str("DropStopWords", if q.drop_stop_words { "T" } else { "F" });
        o.push_str("DefaultAttributeSet", &q.default_attr_set);
        o.push_str("DefaultLanguage", q.default_language.to_string());
        if !q.additional_sources.is_empty() {
            o.push_str("AdditionalSources", q.additional_sources.join(" "));
        }
        let fields: Vec<&str> = q.answer.fields.iter().map(Field::name).collect();
        o.push_str("AnswerFields", fields.join(" "));
        if q.answer.sort_by != vec![SortKey::score_descending()] {
            o.push_str("SortByFields", encode_sort(&q.answer.sort_by));
        }
        if q.answer.min_doc_score.is_finite() {
            o.push_str("MinDocumentScore", fmt_weight(q.answer.min_doc_score));
        }
        if q.answer.max_documents != usize::MAX {
            o.push_str("MaxNumberDocuments", q.answer.max_documents.to_string());
        }
        if let Some(ctx) = &q.trace {
            o.push_str(TRACE_ATTR, ctx.encode());
        }
        o
    }

    pub fn query_from_soif(o: &SoifObject) -> Result<Query, ProtoError> {
        if !o.template.eq_ignore_ascii_case("SQuery") {
            return Err(ProtoError::WrongTemplate {
                expected: "SQuery",
                found: o.template.clone(),
            });
        }
        let mut q = Query::default();
        if let Some(src) = o.get_str("FilterExpression") {
            if !src.trim().is_empty() {
                q.filter = Some(parse_filter(src)?);
            }
        }
        if let Some(src) = o.get_str("RankingExpression") {
            if !src.trim().is_empty() {
                q.ranking = Some(parse_ranking(src)?);
            }
        }
        if let Some(v) = o.get_str("DropStopWords") {
            q.drop_stop_words = parse_bool("DropStopWords", v)?;
        }
        if let Some(v) = o.get_str("DefaultAttributeSet") {
            q.default_attr_set = v.to_string();
        }
        if let Some(v) = o.get_str("DefaultLanguage") {
            q.default_language = LangTag::parse(v)
                .map_err(|e| ProtoError::invalid("DefaultLanguage", e.to_string()))?;
        }
        if let Some(v) = o.get_str("AdditionalSources") {
            q.additional_sources = v.split_whitespace().map(str::to_string).collect();
        }
        if let Some(v) = o.get_str("AnswerFields") {
            q.answer.fields = v.split_whitespace().map(field_parse).collect();
        }
        if let Some(v) = o.get_str("SortByFields") {
            q.answer.sort_by = decode_sort(v)?;
        }
        if let Some(v) = o.get_str("MinDocumentScore") {
            q.answer.min_doc_score = v
                .parse()
                .map_err(|_| ProtoError::invalid("MinDocumentScore", "not a number"))?;
        }
        if let Some(v) = o.get_str("MaxNumberDocuments") {
            q.answer.max_documents = v
                .parse()
                .map_err(|_| ProtoError::invalid("MaxNumberDocuments", "not an integer"))?;
        }
        q.trace = o.get_str(TRACE_ATTR).and_then(TraceContext::decode);
        Ok(q)
    }

    fn encode_sort(keys: &[SortKey]) -> String {
        let mut parts = Vec::with_capacity(keys.len() * 2);
        for k in keys {
            parts.push(match &k.field {
                None => "score".to_string(),
                Some(f) => f.name().to_string(),
            });
            parts.push(match k.order {
                SortOrder::Ascending => "a".to_string(),
                SortOrder::Descending => "d".to_string(),
            });
        }
        parts.join(" ")
    }

    fn decode_sort(s: &str) -> Result<Vec<SortKey>, ProtoError> {
        let parts: Vec<&str> = s.split_whitespace().collect();
        if !parts.len().is_multiple_of(2) {
            return Err(ProtoError::invalid(
                "SortByFields",
                "expected pairs of field and direction",
            ));
        }
        parts
            .chunks(2)
            .map(|pair| {
                let field = if pair[0].eq_ignore_ascii_case("score") {
                    None
                } else {
                    Some(field_parse(pair[0]))
                };
                let order = match pair[1] {
                    "a" | "A" => SortOrder::Ascending,
                    "d" | "D" => SortOrder::Descending,
                    other => {
                        return Err(ProtoError::invalid(
                            "SortByFields",
                            format!("bad direction {other:?}"),
                        ))
                    }
                };
                Ok(SortKey { field, order })
            })
            .collect()
    }

    fn parse_bool(attr: &str, v: &str) -> Result<bool, ProtoError> {
        match v.trim() {
            "T" | "t" | "true" => Ok(true),
            "F" | "f" | "false" => Ok(false),
            other => Err(ProtoError::invalid(
                attr,
                format!("expected T or F, got {other:?}"),
            )),
        }
    }
}

/// What a decode came to, compared across the two codecs: the value
/// (by its `Debug` form, so a decoded NaN equals itself), or that it
/// failed. The two may fail for different reasons — the codec reads as
/// it parses, so it can meet a bad value before a later framing error.
fn outcome<T: std::fmt::Debug>(decoded: Result<T, ProtoError>) -> Result<String, ()> {
    decoded.map(|v| format!("{v:?}")).map_err(|_| ())
}

const MODES: [ParseMode; 2] = [ParseMode::Strict, ParseMode::Lenient];

/// Decode `bytes` as a results stream and as a query, both ways, in both
/// framing modes, and require the same outcomes. `QueryResults` streams
/// are read strict on the wire; in lenient mode the typed decoders are
/// compared over the objects the lenient reader recovers.
fn check_decoders_agree(bytes: &[u8]) {
    let stream = QueryResults::from_soif_stream(bytes);
    assert_eq!(
        outcome(stream),
        outcome(oracle::from_soif_stream(bytes)),
        "results stream {:?}",
        String::from_utf8_lossy(bytes)
    );
    for mode in MODES {
        let query = Query::from_soif_bytes(bytes, mode);
        let expected = parse_one(bytes, mode)
            .map_err(ProtoError::from)
            .and_then(|o| oracle::query_from_soif(&o));
        assert_eq!(
            outcome(query),
            outcome(expected),
            "query, {mode:?}, {:?}",
            String::from_utf8_lossy(bytes)
        );
        for object in parse(bytes, mode).unwrap_or_default() {
            assert_eq!(
                outcome(QueryResults::from_header(&object)),
                outcome(oracle::from_header(&object)),
                "header, {mode:?}: {object:?}"
            );
            assert_eq!(
                outcome(ResultDocument::from_soif(&object)),
                outcome(oracle::doc_from_soif(&object)),
                "document, {mode:?}: {object:?}"
            );
            assert_eq!(
                outcome(Query::from_soif(&object)),
                outcome(oracle::query_from_soif(&object)),
                "query object, {mode:?}: {object:?}"
            );
        }
    }
}

/// The new codec writes what the oracle writes, and reads it back the
/// same way.
fn check_results(r: &QueryResults) {
    let bytes = r.to_soif_stream();
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&oracle::to_soif_stream(r))
    );
    assert_eq!(r.header_soif(), oracle::header_soif(r));
    for d in &r.documents {
        assert_eq!(d.to_soif(), oracle::doc_to_soif(d));
    }
    check_decoders_agree(&bytes);
}

fn check_query(q: &Query, trace: Option<&TraceContext>) {
    assert_eq!(q.to_soif(), oracle::query_to_soif(q));
    let mut direct = Vec::new();
    q.write_soif_into(trace, &mut direct);
    let traced = Query {
        trace: trace.cloned(),
        ..q.clone()
    };
    assert_eq!(direct, write_object(&oracle::query_to_soif(&traced)));
    check_decoders_agree(&direct);
}

fn example_6_query() -> Query {
    Query {
        filter: Some(
            starts_proto::query::parse_filter(
                r#"((author "Ullman") and (title stem "databases"))"#,
            )
            .unwrap(),
        ),
        ranking: Some(
            starts_proto::query::parse_ranking(
                r#"list((body-of-text "distributed") (body-of-text "databases"))"#,
            )
            .unwrap(),
        ),
        answer: AnswerSpec {
            fields: vec![Field::Title, Field::Author],
            min_doc_score: 0.5,
            max_documents: 10,
            ..AnswerSpec::default()
        },
        ..Query::default()
    }
}

fn stats(field: Field, word: &str, tf: u32, weight: f64, df: u32) -> TermStatsEntry {
    TermStatsEntry {
        term: QTerm::fielded(field, word),
        term_frequency: tf,
        term_weight: weight,
        document_frequency: df,
    }
}

fn document(score: Option<f64>, url: &str, term_stats: Vec<TermStatsEntry>) -> ResultDocument {
    ResultDocument {
        raw_score: score,
        sources: vec!["Source-1".to_string()],
        fields: vec![
            (Field::Linkage, url.to_string()),
            (Field::Title, "Deductive and Object-Oriented".to_string()),
        ],
        term_stats,
        doc_size_kb: 248,
        doc_count: 10213,
    }
}

/// Example 7's empty ranking, Example 8's result, and Example 9's two
/// sources in one stream — plus a document whose TermStats terms are
/// distinct but share a length, the case a memo keyed on anything short
/// of the whole term text gets wrong.
fn example_results() -> Vec<QueryResults> {
    let filter = starts_proto::query::parse_filter(r#"(title "x")"#).ok();
    let example_7 = QueryResults {
        sources: vec!["S".to_string()],
        actual_filter: filter,
        ..QueryResults::default()
    };
    let example_8 = QueryResults {
        sources: vec!["Source-1".to_string()],
        actual_filter: example_6_query().filter,
        actual_ranking: starts_proto::query::parse_ranking(r#"(body-of-text "databases")"#).ok(),
        documents: vec![document(
            Some(0.82),
            "http://www-db.stanford.edu/~ullman/pub/dood.ps",
            vec![
                stats(Field::BodyOfText, "distributed", 10, 0.31, 190),
                stats(Field::BodyOfText, "databases", 15, 0.51, 232),
            ],
        )],
        profile: None,
    };
    let mut example_9 = example_8.clone();
    example_9.sources.push("Source-2".to_string());
    example_9.documents.push(document(
        Some(0.27),
        "http://elib.stanford.edu/lagunita.ps",
        vec![
            stats(Field::BodyOfText, "distributed", 20, 0.12, 901),
            stats(Field::BodyOfText, "databases", 34, 0.15, 788),
        ],
    ));
    let mut same_length = example_9.clone();
    same_length.documents.push(document(
        None,
        "http://x/",
        vec![
            stats(Field::Title, "databases", 1, 1.0, 2),
            stats(Field::BodyOfText, "databasex", 3, 0.5, 4),
        ],
    ));
    vec![example_7, example_8, example_9, same_length]
}

#[test]
fn the_paper_examples_and_every_mutation_of_them() {
    let mut queries = vec![example_6_query(), Query::default()];
    queries[1].answer.sort_by = vec![SortKey {
        field: Some(Field::Other("año".to_string())),
        order: SortOrder::Ascending,
    }];
    let ctx = TraceContext {
        query_id: "q-000001".to_string(),
        parent_path: "meta.search/dispatch/source".to_string(),
        parent_span_id: 17,
    };
    for q in &queries {
        for trace in [None, Some(&ctx)] {
            check_query(q, trace);
            let mut bytes = Vec::new();
            q.write_soif_into(trace, &mut bytes);
            check_every_mutation(&bytes, check_decoders_agree);
        }
    }
    for r in example_results() {
        check_results(&r);
        check_every_mutation(&r.to_soif_stream(), check_decoders_agree);
    }
}

fn arb_score() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u32..=1000).prop_map(|w| f64::from(w) / 1000.0),
        any::<f64>().prop_filter("a score is a number", |f| f.is_finite()),
    ]
}

fn arb_document() -> impl Strategy<Value = ResultDocument> {
    let stats = (arb_term(), any::<u32>(), arb_score(), any::<u32>()).prop_map(
        |(term, term_frequency, term_weight, document_frequency)| TermStatsEntry {
            term,
            term_frequency,
            term_weight,
            document_frequency,
        },
    );
    (
        proptest::option::of(arb_score()),
        proptest::collection::vec("[A-Za-z0-9-]{1,10}", 0..3),
        proptest::collection::vec((arb_field(), arb_text()), 0..4),
        proptest::collection::vec(stats, 0..4),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(
            |(raw_score, sources, fields, term_stats, doc_size_kb, doc_count)| ResultDocument {
                raw_score,
                sources,
                fields,
                term_stats,
                doc_size_kb,
                doc_count,
            },
        )
}

fn arb_results() -> impl Strategy<Value = QueryResults> {
    (
        proptest::collection::vec("[A-Za-z0-9-]{1,10}", 0..3),
        proptest::option::of(arb_filter()),
        proptest::option::of(arb_ranking()),
        proptest::collection::vec(arb_document(), 0..4),
        proptest::option::of(arb_profile()),
    )
        .prop_map(
            |(sources, actual_filter, actual_ranking, documents, profile)| QueryResults {
                sources,
                actual_filter,
                actual_ranking,
                documents,
                profile,
            },
        )
}

fn arb_query() -> impl Strategy<Value = Query> {
    let sort_key = (proptest::option::of(arb_field()), any::<bool>()).prop_map(|(field, up)| {
        let order = if up {
            SortOrder::Ascending
        } else {
            SortOrder::Descending
        };
        SortKey { field, order }
    });
    (
        (
            proptest::option::of(arb_filter()),
            proptest::option::of(arb_ranking()),
            any::<bool>(),
            "[a-z0-9-]{1,10}",
            arb_lang(),
        ),
        (
            proptest::collection::vec("[A-Za-z0-9-]{1,10}", 0..3),
            proptest::collection::vec(arb_field(), 0..4),
            proptest::collection::vec(sort_key, 0..3),
            proptest::option::of(arb_score()),
            proptest::option::of(any::<usize>()),
            proptest::option::of(arb_trace_context()),
        ),
    )
        .prop_map(
            |(
                (filter, ranking, drop_stop_words, default_attr_set, default_language),
                (additional_sources, fields, sort_by, min_score, max_documents, trace),
            )| Query {
                filter,
                ranking,
                drop_stop_words,
                default_attr_set,
                default_language,
                additional_sources,
                answer: AnswerSpec {
                    fields,
                    sort_by,
                    min_doc_score: min_score.unwrap_or(f64::NEG_INFINITY),
                    max_documents: max_documents.unwrap_or(usize::MAX),
                },
                trace,
            },
        )
}

proptest! {
    /// Same bytes out, same values back, for generated results.
    #[test]
    fn results_codec_is_the_oracle(r in arb_results(), at in any::<usize>()) {
        check_results(&r);
        for m in mutations(&r.to_soif_stream(), at) {
            check_decoders_agree(&m);
        }
    }

    /// Same bytes out, same values back, for generated queries, with
    /// their own trace context and with another one written in its place.
    #[test]
    fn query_codec_is_the_oracle(
        q in arb_query(),
        other in proptest::option::of(arb_trace_context()),
        at in any::<usize>(),
    ) {
        check_query(&q, q.trace.as_ref());
        check_query(&q, other.as_ref());
        let mut bytes = Vec::new();
        q.write_soif_into(q.trace.as_ref(), &mut bytes);
        for m in mutations(&bytes, at) {
            check_decoders_agree(&m);
        }
    }

    /// Arbitrary bytes, and text shaped like SOIF: the same outcome
    /// both ways, and no panic.
    #[test]
    fn decoders_agree_on_any_input(
        junk in proptest::collection::vec(any::<u8>(), 0..160),
        shaped in "(@SQ(uery|Results|RDocument)\\{\n([A-Za-z]{1,8}\\{[0-9]{1,2}\\}: [ -~]{0,12}\n){0,4}\\}\n){0,3}",
    ) {
        check_decoders_agree(&junk);
        check_decoders_agree(shaped.as_bytes());
    }
}

#[test]
fn a_wrong_count_is_recovered_only_in_lenient_mode() {
    // Example 10's kind of wrong count, on a query: both codecs read the
    // same query from it, and only the lenient reader reads one.
    let text = "@SQuery{\nFilterExpression{17}: (title \"x\")\nDropStopWords{1}: F\n}\n";
    check_decoders_agree(text.as_bytes());
    let q = Query::from_soif_bytes(text.as_bytes(), ParseMode::Lenient).unwrap();
    assert_eq!(
        q.filter,
        Some(FilterExpr::Term(QTerm::fielded(Field::Title, "x")))
    );
    assert!(!q.drop_stop_words);
    assert!(Query::from_soif_bytes(text.as_bytes(), ParseMode::Strict).is_err());
}
