//! The byte-level transport simulator.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use parking_lot::RwLock;
use starts_obs::{Counter, Gauge, Histogram, Monitor, Registry};

/// A shared cancellation flag for one in-flight request (or a group of
/// them). Cloning shares the flag: a hedged dispatch hands the same
/// token family to primary and backup, and cancels the loser the moment
/// the winner lands.
///
/// Cancellation is cooperative. The transport waits on the token while
/// it paces out the simulated round-trip (see [`SimNet::set_pacing`]); a
/// request cancelled mid-flight wakes at once and aborts with
/// [`NetError::Cancelled`] before the endpoint's handler runs. With
/// pacing off (the default) requests complete instantly, so only a token
/// cancelled *before* the call has any effect.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<(Mutex<bool>, Condvar)>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trip the flag: every request in flight with a clone of this token
    /// aborts now, and none starts with one afterwards.
    pub fn cancel(&self) {
        let (flag, tripped) = &*self.0;
        *flag.lock().expect("cancel flag") = true;
        tripped.notify_all();
    }

    /// Whether the flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        *self.0 .0.lock().expect("cancel flag")
    }

    /// Sleep until the flag is tripped, `flight` at most; whether it was.
    fn tripped_within(&self, flight: Duration) -> bool {
        let (flag, tripped) = &*self.0;
        let cancelled = flag.lock().expect("cancel flag");
        let waited = tripped.wait_timeout_while(cancelled, flight, |cancelled| !*cancelled);
        *waited.expect("cancel flag").0
    }
}

/// A request handler bound to a URL. Handlers must be stateless with
/// respect to the transport: they see only the request bytes.
pub trait Endpoint: Send + Sync {
    /// Handle one self-contained request.
    fn handle(&self, request: &[u8]) -> Vec<u8>;
}

impl<F> Endpoint for F
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// The link profile of an endpoint: §3.3's cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Simulated round-trip latency in milliseconds.
    pub latency_ms: u32,
    /// Monetary cost charged per query (0 for free sources).
    pub cost_per_query: f64,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile {
            latency_ms: 50,
            cost_per_query: 0.0,
        }
    }
}

/// One completed exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Response payload.
    pub bytes: Vec<u8>,
    /// Simulated latency incurred.
    pub latency_ms: u32,
    /// Cost charged.
    pub cost: f64,
}

/// Per-exchange accounting, independent of the payload: what one
/// request cost in simulated time, money, and bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Exchange {
    /// Simulated latency incurred.
    pub latency_ms: u32,
    /// Cost charged.
    pub cost: f64,
    /// Request payload size.
    pub bytes_sent: u64,
    /// Response payload size.
    pub bytes_received: u64,
}

impl Exchange {
    /// Accounting for one response to a request of `request_bytes`.
    pub fn of(response: &Response, request_bytes: usize) -> Self {
        Exchange {
            latency_ms: response.latency_ms,
            cost: response.cost,
            bytes_sent: request_bytes as u64,
            bytes_received: response.bytes.len() as u64,
        }
    }
}

/// Transport errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No endpoint is registered at the URL.
    UnknownUrl(String),
    /// The request's [`CancelToken`] was tripped before a response
    /// landed (a hedge raced it and won, or the caller's deadline
    /// expired).
    Cancelled(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownUrl(u) => write!(f, "no endpoint at {u:?}"),
            NetError::Cancelled(u) => write!(f, "request to {u:?} cancelled"),
        }
    }
}

impl std::error::Error for NetError {}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Total requests served.
    pub requests: u64,
    /// Sum of simulated latencies (serialized view; parallel fan-out
    /// latency is the max per wave, which callers compute themselves).
    pub total_latency_ms: u64,
    /// Total cost charged.
    pub total_cost: f64,
    /// Total bytes sent in requests.
    pub bytes_sent: u64,
    /// Total bytes received in responses.
    pub bytes_received: u64,
}

struct Registered {
    profile: LinkProfile,
    endpoint: Arc<dyn Endpoint>,
    instruments: Arc<LinkInstruments>,
}

/// One link's `net.*` instruments, resolved when its endpoint is
/// registered, so an exchange updates atomics instead of building a
/// metric id — a name `String` plus a label `Vec` — for each. They are
/// the per-URL book: requests, bytes, latency and cost.
struct LinkInstruments {
    requests: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    latency_ms: Histogram,
    response_bytes: Histogram,
    /// §3.3 cost accrual per link: fractional, so a gauge.
    cost: Gauge,
}

impl LinkInstruments {
    fn resolve(obs: &Registry, url: &str) -> Self {
        let labels = [("url", url)];
        LinkInstruments {
            requests: obs.counter_with("net.requests", &labels),
            bytes_sent: obs.counter_with("net.bytes_sent", &labels),
            bytes_received: obs.counter_with("net.bytes_received", &labels),
            latency_ms: obs.histogram_with("net.latency_ms", &labels),
            response_bytes: obs.histogram_with("net.response_bytes", &labels),
            cost: obs.gauge_with("net.cost", &labels),
        }
    }
}

/// The simulated network: a URL → endpoint table with accounting.
#[derive(Default)]
pub struct SimNet {
    endpoints: RwLock<HashMap<String, Registered>>,
    stats: RwLock<NetStats>,
    obs: Arc<Registry>,
    monitor: RwLock<Arc<Monitor>>,
    /// Real-time pacing: microseconds of wall-clock sleep per simulated
    /// millisecond of link latency. 0 (the default) keeps every request
    /// instant, as the transport always behaved.
    pacing_us_per_ms: AtomicU64,
}

impl SimNet {
    /// An empty network with its own metric registry.
    pub fn new() -> Self {
        SimNet::default()
    }

    /// An empty network recording into a shared registry.
    pub fn with_registry(obs: Arc<Registry>) -> Self {
        SimNet {
            obs,
            ..SimNet::default()
        }
    }

    /// The network's metric registry. Everything wired onto this net
    /// (sources via `wire_source`, metasearchers) records here, so a
    /// test gets isolated accounting per `SimNet`.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The network's monitor: the time-series/alerting layer over this
    /// net's registry. Metasearchers tick it after each search; hosts
    /// serve its state on `<base>/alerts`.
    pub fn monitor(&self) -> Arc<Monitor> {
        Arc::clone(&self.monitor.read())
    }

    /// Replace the monitor (e.g. to inject a deterministic clock or
    /// custom SLOs). Call *before* wiring hosts — `<base>/alerts`
    /// endpoints capture the monitor at wiring time.
    pub fn set_monitor(&self, monitor: Arc<Monitor>) {
        *self.monitor.write() = monitor;
    }

    /// Register (or replace) an endpoint at a URL.
    pub fn register(
        &self,
        url: impl Into<String>,
        profile: LinkProfile,
        endpoint: Arc<dyn Endpoint>,
    ) {
        let url = url.into();
        let instruments = Arc::new(LinkInstruments::resolve(&self.obs, &url));
        let link = Registered {
            profile,
            endpoint,
            instruments,
        };
        self.endpoints.write().insert(url, link);
    }

    /// Whether a URL is served.
    pub fn knows(&self, url: &str) -> bool {
        self.endpoints.read().contains_key(url)
    }

    /// Turn on real-time pacing: every request sleeps `us_per_ms`
    /// microseconds of wall-clock time per simulated millisecond of its
    /// link's latency before the endpoint handler runs, unless its
    /// [`CancelToken`] (if any) is tripped first. This is what makes hedged
    /// requests *race* in real time and cancellation actually abort
    /// work; 0 restores the instant transport.
    pub fn set_pacing(&self, us_per_ms: u64) {
        self.pacing_us_per_ms.store(us_per_ms, Ordering::SeqCst);
    }

    /// The current pacing factor (µs of wall clock per simulated ms).
    pub fn pacing(&self) -> u64 {
        self.pacing_us_per_ms.load(Ordering::SeqCst)
    }

    /// Issue a sessionless request.
    pub fn request(&self, url: &str, body: &[u8]) -> Result<Response, NetError> {
        self.request_cancellable(url, body, None)
    }

    /// Issue a sessionless request that a [`CancelToken`] can abort.
    ///
    /// With pacing on, the simulated round-trip is slept out on the
    /// token: a cancellation ends the sleep and lands as
    /// [`NetError::Cancelled`] *before* the endpoint does any work. With
    /// pacing off, only a token tripped before the call aborts it.
    pub fn request_cancellable(
        &self,
        url: &str,
        body: &[u8],
        cancel: Option<&CancelToken>,
    ) -> Result<Response, NetError> {
        // Clone the handler out so long-running handlers do not hold the
        // table lock (requests may fan out from multiple threads).
        let (endpoint, profile, instruments) = {
            let table = self.endpoints.read();
            let Some(reg) = table.get(url) else {
                self.obs.counter_with("net.errors", &[("url", url)]).inc();
                return Err(NetError::UnknownUrl(url.to_string()));
            };
            let instruments = Arc::clone(&reg.instruments);
            (Arc::clone(&reg.endpoint), reg.profile, instruments)
        };
        if self.pace_out(profile.latency_ms, cancel).is_err() {
            self.obs
                .counter_with("net.cancelled", &[("url", url)])
                .inc();
            return Err(NetError::Cancelled(url.to_string()));
        }
        let bytes = endpoint.handle(body);
        let response = Response {
            latency_ms: profile.latency_ms,
            cost: profile.cost_per_query,
            bytes,
        };
        {
            let mut s = self.stats.write();
            s.requests += 1;
            s.total_latency_ms += u64::from(response.latency_ms);
            s.total_cost += response.cost;
            s.bytes_sent += body.len() as u64;
            s.bytes_received += response.bytes.len() as u64;
        }
        instruments.requests.inc();
        instruments.bytes_sent.add(body.len() as u64);
        let received = response.bytes.len() as u64;
        instruments.bytes_received.add(received);
        let latency_ms = u64::from(response.latency_ms);
        instruments.latency_ms.observe(latency_ms);
        instruments.response_bytes.observe(received);
        instruments.cost.add(response.cost);
        Ok(response)
    }

    /// Sleep out a link's simulated latency under the current pacing
    /// factor: one sleep, which a cancellation cuts short. `Err(())`
    /// means the token was tripped before the flight was over.
    fn pace_out(&self, latency_ms: u32, cancel: Option<&CancelToken>) -> Result<(), ()> {
        let us_per_ms = self.pacing_us_per_ms.load(Ordering::SeqCst);
        let flight = Duration::from_micros(u64::from(latency_ms).saturating_mul(us_per_ms));
        match cancel {
            Some(token) if token.tripped_within(flight) => Err(()),
            Some(_) => Ok(()),
            None => {
                std::thread::sleep(flight);
                Ok(())
            }
        }
    }

    /// Global statistics snapshot. Per-URL figures are the registry's
    /// `net.*{url}` series.
    pub fn stats(&self) -> NetStats {
        self.stats.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo() -> Arc<dyn Endpoint> {
        Arc::new(|req: &[u8]| req.to_vec())
    }

    #[test]
    fn request_response_round_trip() {
        let net = SimNet::new();
        net.register("starts://s/query", LinkProfile::default(), echo());
        let r = net.request("starts://s/query", b"hello").unwrap();
        assert_eq!(r.bytes, b"hello");
        assert_eq!(r.latency_ms, 50);
    }

    #[test]
    fn unknown_url() {
        let net = SimNet::new();
        assert_eq!(
            net.request("starts://nope", b""),
            Err(NetError::UnknownUrl("starts://nope".to_string()))
        );
    }

    #[test]
    fn latency_and_cost_accounting() {
        let net = SimNet::new();
        net.register(
            "starts://cheap/query",
            LinkProfile {
                latency_ms: 10,
                cost_per_query: 0.0,
            },
            echo(),
        );
        net.register(
            "starts://dialog/query",
            LinkProfile {
                latency_ms: 300,
                cost_per_query: 2.5,
            },
            echo(),
        );
        net.request("starts://cheap/query", b"q1").unwrap();
        net.request("starts://dialog/query", b"q2").unwrap();
        net.request("starts://dialog/query", b"q3").unwrap();
        let s = net.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.total_latency_ms, 10 + 300 + 300);
        assert!((s.total_cost - 5.0).abs() < 1e-9);
        assert_eq!(s.bytes_sent, 6);
        let snap = net.registry().snapshot();
        let dialog = [("url", "starts://dialog/query")];
        assert_eq!(snap.counter("net.requests", &dialog), 2);
        assert!((snap.gauge("net.cost", &dialog) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_requests() {
        let net = Arc::new(SimNet::new());
        net.register("u", LinkProfile::default(), echo());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let net = Arc::clone(&net);
                scope.spawn(move || {
                    for _ in 0..50 {
                        net.request("u", b"ping").unwrap();
                    }
                });
            }
        });
        assert_eq!(net.stats().requests, 400);
    }

    #[test]
    fn requests_feed_the_metric_registry() {
        let net = SimNet::new();
        net.register(
            "u",
            LinkProfile {
                latency_ms: 40,
                cost_per_query: 1.5,
            },
            echo(),
        );
        net.request("u", b"four").unwrap();
        net.request("u", b"four").unwrap();
        let _ = net.request("ghost", b"");
        let snap = net.registry().snapshot();
        assert_eq!(snap.counter("net.requests", &[("url", "u")]), 2);
        assert_eq!(snap.counter("net.bytes_sent", &[("url", "u")]), 8);
        assert_eq!(snap.counter("net.errors", &[("url", "ghost")]), 1);
        assert!((snap.gauge("net.cost", &[("url", "u")]) - 3.0).abs() < 1e-9);
        let lat = snap.histogram("net.latency_ms", &[("url", "u")]).unwrap();
        assert_eq!((lat.count, lat.min, lat.max), (2, 40, 40));
    }

    #[test]
    fn a_registry_reset_zeroes_the_link_instruments_in_place() {
        let net = SimNet::new();
        net.register("u", LinkProfile::default(), echo());
        net.request("u", b"x").unwrap();
        net.registry().reset();
        net.request("u", b"yz").unwrap();
        let snap = net.registry().snapshot();
        assert_eq!(snap.counter("net.requests", &[("url", "u")]), 1);
        assert_eq!(snap.counter("net.bytes_sent", &[("url", "u")]), 2);
    }

    #[test]
    fn shared_registry_spans_two_nets() {
        let obs = Arc::new(starts_obs::Registry::new());
        let a = SimNet::with_registry(Arc::clone(&obs));
        let b = SimNet::with_registry(Arc::clone(&obs));
        a.register("u", LinkProfile::default(), echo());
        b.register("u", LinkProfile::default(), echo());
        a.request("u", b"x").unwrap();
        b.request("u", b"y").unwrap();
        assert_eq!(obs.snapshot().counter("net.requests", &[("url", "u")]), 2);
    }

    #[test]
    fn pre_cancelled_token_aborts_without_handler_work() {
        let net = SimNet::new();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let h = Arc::clone(&hits);
        net.register(
            "u",
            LinkProfile::default(),
            Arc::new(move |req: &[u8]| {
                h.fetch_add(1, Ordering::SeqCst);
                req.to_vec()
            }),
        );
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            net.request_cancellable("u", b"x", Some(&token)),
            Err(NetError::Cancelled("u".to_string()))
        );
        assert_eq!(hits.load(Ordering::SeqCst), 0, "handler must not run");
        assert_eq!(
            net.registry()
                .snapshot()
                .counter("net.cancelled", &[("url", "u")]),
            1
        );
        // An untripped token passes through.
        let ok = net.request_cancellable("u", b"x", Some(&CancelToken::new()));
        assert!(ok.is_ok());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pacing_makes_cancellation_abort_mid_flight() {
        let net = Arc::new(SimNet::new());
        net.register(
            "slow",
            LinkProfile {
                latency_ms: 10_000, // 10s simulated…
                cost_per_query: 0.0,
            },
            echo(),
        );
        net.set_pacing(1_000); // …which is 10s of wall clock too
        assert_eq!(net.pacing(), 1_000);
        let token = CancelToken::new();
        let cancel_from_outside = token.clone();
        let start = std::time::Instant::now();
        let result = std::thread::scope(|scope| {
            let net = Arc::clone(&net);
            let h = scope.spawn(move || net.request_cancellable("slow", b"x", Some(&token)));
            std::thread::sleep(Duration::from_millis(20));
            cancel_from_outside.cancel();
            h.join().unwrap()
        });
        assert_eq!(result, Err(NetError::Cancelled("slow".to_string())));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cancellation must cut the paced sleep short"
        );
    }

    #[test]
    fn an_untripped_token_costs_the_flight_nothing() {
        let net = SimNet::new();
        let link = LinkProfile {
            latency_ms: 20,
            cost_per_query: 0.0,
        };
        net.register("u", link, echo());
        net.set_pacing(1_000); // 20 simulated ms = 20 ms of wall clock
        for token in [None, Some(CancelToken::new())] {
            let start = std::time::Instant::now();
            let response = net.request_cancellable("u", b"x", token.as_ref());
            assert_eq!(response.map(|r| r.bytes), Ok(b"x".to_vec()));
            assert!(start.elapsed() >= Duration::from_millis(20));
        }
    }

    #[test]
    fn statelessness_by_construction() {
        // The only way to talk to an endpoint is a one-shot request; two
        // identical requests get identical answers.
        let net = SimNet::new();
        net.register("u", LinkProfile::default(), echo());
        let a = net.request("u", b"same").unwrap();
        let b = net.request("u", b"same").unwrap();
        assert_eq!(a, b);
    }
}
