//! Trace context carried inside protocol objects.
//!
//! STARTS §4.3 lets implementations extend objects with attributes
//! outside the spec: "a source might export more information than what
//! is required", and consumers must ignore attributes they do not
//! understand. We use that headroom to thread a query id and a parent
//! span identity from the metasearcher to each source. The context asks
//! the source to profile the query: it answers with an `XQueryProfile`
//! ([`crate::profile`]) carrying the same id, and the metasearcher
//! grafts that into the query's one tree, its `QueryProfile`. The parent
//! span identity nests the host's spans under the dispatching span, so
//! span paths (and the `span.duration_us` histograms labelled by them)
//! read the same on both sides of the wire.
//!
//! The context rides in a single optional attribute, [`TRACE_ATTR`]
//! (`XTraceContext` — `X`-prefixed to mark it as an extension), on
//! `@SQuery` only. Sources that predate the attribute simply never see
//! it and answer unchanged; decoding is deliberately lenient, so a
//! malformed value degrades to "no trace" rather than an error —
//! tracing must never break a query.

/// The extension attribute carrying the trace context on `@SQuery`
/// objects.
pub const TRACE_ATTR: &str = "XTraceContext";

/// A query's trace identity: which query this exchange belongs to, and
/// which client-side span the source's spans should parent under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// The metasearcher-minted query id (e.g. `q-000042`).
    pub query_id: String,
    /// The dispatching span's full path (e.g.
    /// `meta.search/dispatch/source`).
    pub parent_path: String,
    /// The dispatching span's process-unique id.
    pub parent_span_id: u64,
}

impl TraceContext {
    /// Encode as the attribute value: `"<query_id> <span_id> <path>"`.
    /// The query id is non-empty and holds no whitespace; the path is
    /// non-empty and goes last, so it may hold anything: everything
    /// after the second space, trailing whitespace included, is the
    /// path.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Append [`TraceContext::encode`]'s value to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{} {} {}",
            self.query_id, self.parent_span_id, self.parent_path
        );
    }

    /// Decode an attribute value. Lenient: anything that does not parse
    /// yields `None` (per §4.3, unknown or unusable extension data must
    /// not affect query processing).
    pub fn decode(value: &str) -> Option<TraceContext> {
        // Only leading whitespace is noise: trailing whitespace may
        // belong to the path.
        let value = value.trim_start();
        let (query_id, rest) = value.split_once(' ')?;
        let (span_id, path) = rest.split_once(' ')?;
        let parent_span_id = span_id.parse::<u64>().ok()?;
        if query_id.is_empty() || path.is_empty() {
            return None;
        }
        Some(TraceContext {
            query_id: query_id.to_string(),
            parent_path: path.to_string(),
            parent_span_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let ctx = TraceContext {
            query_id: "q-000007".to_string(),
            parent_path: "meta.search/dispatch/source".to_string(),
            parent_span_id: 42,
        };
        assert_eq!(ctx.encode(), "q-000007 42 meta.search/dispatch/source");
        assert_eq!(TraceContext::decode(&ctx.encode()), Some(ctx));
    }

    #[test]
    fn malformed_values_decode_to_none() {
        for bad in ["", "q-1", "q-1 notanumber path", "q-1 42", "q-1 42 ", "   "] {
            assert_eq!(TraceContext::decode(bad), None, "input {bad:?}");
        }
    }
}
