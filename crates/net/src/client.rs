//! A typed STARTS client over the byte transport.

use std::fmt;

use starts_proto::results::decode_sample;
use starts_proto::summary::ContentSummary;
use starts_proto::{ProtoError, Query, QueryResults, Resource, SourceMetadata, TraceContext};
use starts_soif::ParseMode;

use crate::sim::{CancelToken, Exchange, NetError, SimNet};

/// Client-side errors: transport or protocol decoding.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Net(NetError),
    /// The response did not decode as the expected STARTS object.
    Proto(ProtoError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Net(e) => write!(f, "transport: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl ClientError {
    /// Whether this error is a mid-flight cancellation (a hedge won the
    /// race, or the caller's deadline expired) rather than a real
    /// transport or protocol failure. Cancellations should not count
    /// against a source's health.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ClientError::Net(NetError::Cancelled(_)))
    }
}

impl std::error::Error for ClientError {}

impl From<NetError> for ClientError {
    fn from(e: NetError) -> Self {
        ClientError::Net(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

thread_local! {
    /// Request-encoding scratch, reused across exchanges so a query
    /// burst allocates one buffer per thread, not one per query. Taken
    /// out of the cell for the duration of an exchange (and put back
    /// afterwards), so re-entrant use degrades to a fresh allocation,
    /// never a panic. Thread-local rather than a client field so the
    /// client stays `Sync` for the metasearcher's dispatch fan-out.
    static ENCODE_BUF: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// A metasearcher's view of the network: typed STARTS operations.
pub struct StartsClient<'a> {
    net: &'a SimNet,
}

impl<'a> StartsClient<'a> {
    /// Wrap a network.
    pub fn new(net: &'a SimNet) -> Self {
        StartsClient { net }
    }

    /// The underlying network (for accounting).
    pub fn net(&self) -> &SimNet {
        self.net
    }

    /// The network's metric registry — the same registry host-side
    /// handlers record into, so client-side instrumentation (e.g. the
    /// metasearcher's catalog cache) lands in one scoreboard.
    pub fn registry(&self) -> &starts_obs::Registry {
        self.net.registry()
    }

    /// Fetch a resource descriptor (§4.3.3): the periodic
    /// "extract the list of sources from the resources" task.
    pub fn fetch_resource(&self, url: &str) -> Result<Resource, ClientError> {
        let _span = self.op_span("client.fetch_resource", url);
        let resp = self.net.request(url, b"")?;
        Ok(Resource::from_soif_bytes(&resp.bytes, ParseMode::Strict)?)
    }

    /// Fetch a source's metadata attributes (§4.3.1).
    pub fn fetch_metadata(&self, url: &str) -> Result<SourceMetadata, ClientError> {
        let _span = self.op_span("client.fetch_metadata", url);
        let resp = self.net.request(url, b"")?;
        Ok(SourceMetadata::from_soif_bytes(
            &resp.bytes,
            ParseMode::Strict,
        )?)
    }

    /// Fetch a source's content summary (§4.3.2).
    pub fn fetch_summary(&self, url: &str) -> Result<ContentSummary, ClientError> {
        let _span = self.op_span("client.fetch_summary", url);
        let resp = self.net.request(url, b"")?;
        Ok(ContentSummary::from_soif_bytes(
            &resp.bytes,
            ParseMode::Strict,
        )?)
    }

    /// Fetch a source's sample-database results (§4.2).
    pub fn fetch_sample_results(
        &self,
        url: &str,
    ) -> Result<Vec<(Query, QueryResults)>, ClientError> {
        let _span = self.op_span("client.fetch_sample_results", url);
        let resp = self.net.request(url, b"")?;
        Ok(decode_sample(&resp.bytes)?)
    }

    /// Fetch a host's `<base>/stats` admin endpoint: an `@SStats`
    /// snapshot of the host-side registry, decoded losslessly.
    pub fn fetch_stats(&self, url: &str) -> Result<starts_obs::Snapshot, ClientError> {
        let _span = self.op_span("client.fetch_stats", url);
        let resp = self.net.request(url, b"")?;
        Ok(starts_obs::Snapshot::from_soif_bytes(
            &resp.bytes,
            ParseMode::Strict,
        )?)
    }

    /// Fetch a host's `<base>/alerts` admin endpoint and decode the
    /// `@SAlerts` object: current alert states, the latest SLO
    /// evaluation, and recent transition events.
    pub fn fetch_alerts(&self, url: &str) -> Result<starts_obs::AlertsSnapshot, ClientError> {
        let _span = self.op_span("client.fetch_alerts", url);
        let resp = self.net.request(url, b"")?;
        Ok(starts_obs::AlertsSnapshot::from_soif_bytes(
            &resp.bytes,
            ParseMode::Strict,
        )?)
    }

    /// Submit a query to a source's query URL.
    pub fn query(&self, url: &str, query: &Query) -> Result<QueryResults, ClientError> {
        self.query_with_exchange(url, query).map(|(r, _)| r)
    }

    /// Submit a query and keep the exchange accounting (simulated
    /// latency, cost, bytes) alongside the decoded results.
    pub fn query_with_exchange(
        &self,
        url: &str,
        query: &Query,
    ) -> Result<(QueryResults, Exchange), ClientError> {
        self.query_cancellable(url, query, query.trace.as_ref(), None)
    }

    /// Submit a query that a [`CancelToken`] can abort mid-flight: the
    /// hedged-dispatch primitive. `trace` is the trace context sent in
    /// place of the query's own, so a dispatcher threads its span
    /// through without copying the query. Cancellation surfaces as
    /// `ClientError::Net(NetError::Cancelled)` — see
    /// [`ClientError::is_cancelled`].
    pub fn query_cancellable(
        &self,
        url: &str,
        query: &Query,
        trace: Option<&TraceContext>,
        cancel: Option<&CancelToken>,
    ) -> Result<(QueryResults, Exchange), ClientError> {
        let _span = self.op_span("client.query", url);
        let mut req = ENCODE_BUF.take();
        req.clear();
        query.write_soif_into(trace, &mut req);
        let result = self.net.request_cancellable(url, &req, cancel);
        let req_len = req.len();
        ENCODE_BUF.replace(req);
        let resp = result?;
        let exchange = Exchange::of(&resp, req_len);
        Ok((QueryResults::from_soif_stream(&resp.bytes)?, exchange))
    }

    fn op_span(&self, op: &str, url: &str) -> starts_obs::Span<'_> {
        self.net
            .registry()
            .span_with(op, vec![("url", url.to_string())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{wire_resource, wire_source};
    use crate::sim::LinkProfile;
    use starts_index::Document;
    use starts_proto::query::parse_ranking;
    use starts_source::{ResourceHost, Source, SourceConfig};

    fn wire_demo_net() -> SimNet {
        let net = SimNet::new();
        let source = Source::build(
            SourceConfig::new("Demo"),
            &[Document::new()
                .field("title", "Metasearch Notes")
                .field("body-of-text", "ranking and merging databases results")
                .field("linkage", "http://x/notes")],
        );
        wire_source(&net, source, LinkProfile::default());
        let r1 = Source::build(SourceConfig::new("M1"), &[]);
        let r2 = Source::build(SourceConfig::new("M2"), &[]);
        wire_resource(
            &net,
            ResourceHost::new(vec![r1, r2]),
            "starts://res",
            LinkProfile::default(),
        );
        net
    }

    #[test]
    fn typed_round_trips() {
        let net = wire_demo_net();
        let client = StartsClient::new(&net);
        let meta = client.fetch_metadata("starts://demo/metadata").unwrap();
        assert_eq!(meta.source_id, "Demo");
        let summary = client
            .fetch_summary("starts://demo/content-summary")
            .unwrap();
        assert_eq!(summary.num_docs, 1);
        let samples = client
            .fetch_sample_results("starts://demo/sample-results")
            .unwrap();
        assert_eq!(samples.len(), 4);
        let resource = client.fetch_resource("starts://res").unwrap();
        assert_eq!(resource.source_ids().count(), 2);
        let q = Query {
            ranking: Some(parse_ranking(r#"list("databases")"#).unwrap()),
            ..Query::default()
        };
        let results = client.query("starts://demo/query", &q).unwrap();
        assert_eq!(results.documents.len(), 1);
    }

    #[test]
    fn fetch_stats_round_trips_the_host_registry() {
        let net = wire_demo_net();
        let client = StartsClient::new(&net);
        let q = Query {
            ranking: Some(parse_ranking(r#"list("databases")"#).unwrap()),
            ..Query::default()
        };
        client.query("starts://demo/query", &q).unwrap();
        let snap = client.fetch_stats("starts://demo/stats").unwrap();
        assert_eq!(snap.counter("source.queries", &[("source", "Demo")]), 1);
    }

    #[test]
    fn fetch_alerts_decodes_the_monitor_state() {
        let net = wire_demo_net();
        let client = StartsClient::new(&net);
        let alerts = client.fetch_alerts("starts://demo/alerts").unwrap();
        assert!(alerts.firing().is_empty());
        assert!(alerts.events.is_empty());
    }

    #[test]
    fn unknown_url_is_a_net_error() {
        let net = SimNet::new();
        let client = StartsClient::new(&net);
        assert!(matches!(
            client.fetch_metadata("starts://ghost/metadata"),
            Err(ClientError::Net(NetError::UnknownUrl(_)))
        ));
    }

    #[test]
    fn accounting_visible_through_client() {
        let net = wire_demo_net();
        let client = StartsClient::new(&net);
        client.fetch_metadata("starts://demo/metadata").unwrap();
        client
            .fetch_summary("starts://demo/content-summary")
            .unwrap();
        assert_eq!(client.net().stats().requests, 2);
    }
}
