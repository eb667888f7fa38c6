//! The TTL'd, generation-stamped query-result cache.
//!
//! Same freshness model as [`starts_meta::CatalogCache`] — an entry is
//! fresh while its age is under the TTL *and* its generation stamps
//! still match — but where the catalog cache keeps one global
//! generation, results are stamped **per source**: a response caches
//! the generation of every source it consulted, and
//! `ResultCache::invalidate_source` (called when a source's content
//! summary changes) stales exactly the responses that touched that
//! source. Responses built from other sources stay servable.
//!
//! A store is amortised O(1) and a request never pays for the size of
//! the cache: the map is walked only by the invalidation that staled
//! some of it (which reclaims them there and then) and by a store that
//! finds the map doubled since the last walk (which is what expires
//! TTL-dead entries). Whatever a call removes is freed after the mutex
//! is released, so no caller waits behind a deallocation.
//!
//! Lookups land on the shared registry as `serve.cache.hits` /
//! `serve.cache.misses`. A zero TTL disables the cache entirely (no
//! storage, no counters) — the bench uses that to measure raw
//! execution.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use starts_obs::Registry;

use crate::executor::ServeResponse;

/// Smallest map size at which a store walks the map.
const SWEEP_FLOOR: usize = 1024;

/// A response's freshness coordinates: the cache epoch and the
/// generation of every source it consulted, read **before its wave was
/// dispatched** — an invalidation that lands while the wave is in
/// flight must stale the response it produces.
#[derive(Default)]
pub(crate) struct Stamps {
    epoch: u64,
    sources: Vec<(String, u64)>,
}

struct CachedResponse {
    value: Arc<ServeResponse>,
    fetched_at: Instant,
    stamps: Stamps,
}

impl CachedResponse {
    /// The freshness rule — the only thing that decides a hit, and what
    /// a walk keeps.
    fn fresh(&self, generations: &Generations, now: Instant, ttl: Duration) -> bool {
        generations.current(&self.stamps) && now.saturating_duration_since(self.fetched_at) < ttl
    }
}

/// The counters stamps are read from and checked against.
#[derive(Default)]
struct Generations {
    /// Global epoch: bumped by [`ResultCache::invalidate_all`].
    epoch: u64,
    /// Per-source generation counters (absent = 0).
    sources: HashMap<String, u64>,
}

impl Generations {
    fn of(&self, source: &str) -> u64 {
        self.sources.get(source).copied().unwrap_or(0)
    }

    fn current(&self, stamps: &Stamps) -> bool {
        stamps.epoch == self.epoch
            && stamps
                .sources
                .iter()
                .all(|(source, gen)| self.of(source) == *gen)
    }
}

struct CacheInner {
    generations: Generations,
    entries: HashMap<String, CachedResponse>,
    /// A store walks the map once it holds this many entries: twice
    /// what the last walk left, at least [`SWEEP_FLOOR`].
    sweep_at: usize,
    #[cfg(test)]
    walks: usize,
}

impl CacheInner {
    /// The one walk of the map: keep what [`ResultCache::lookup`] would
    /// still serve and hand back the rest, for the caller to free once
    /// it has let go of the mutex.
    fn sweep(&mut self, ttl: Duration) -> Vec<Arc<ServeResponse>> {
        let now = Instant::now();
        let generations = &self.generations;
        let mut dead = Vec::new();
        self.entries.retain(|_, e| {
            let keep = e.fresh(generations, now, ttl);
            if !keep {
                // The extra reference outlives `retain`'s drop of the
                // entry, so the response itself is freed by the caller.
                dead.push(Arc::clone(&e.value));
            }
            keep
        });
        self.sweep_at = (2 * self.entries.len()).max(SWEEP_FLOOR);
        #[cfg(test)]
        {
            self.walks += 1;
        }
        dead
    }
}

/// A freshness-window cache over served answers — the [`ServeResponse`]
/// a hit returns, never the wave's report — keyed by the normalized
/// query, plus the selected source set when the selector reads state
/// beyond the catalog.
pub(crate) struct ResultCache {
    ttl: Duration,
    state: Mutex<CacheInner>,
}

impl ResultCache {
    pub(crate) fn new(ttl: Duration) -> Self {
        ResultCache {
            ttl,
            state: Mutex::new(CacheInner {
                generations: Generations::default(),
                entries: HashMap::new(),
                sweep_at: SWEEP_FLOOR,
                #[cfg(test)]
                walks: 0,
            }),
        }
    }

    /// Fetch a fresh entry, counting the hit on `obs`. A request that
    /// misses looks twice — on its caller's thread, then again on the
    /// thread about to lead its wave — and only the second look passes
    /// `count_miss`, so each request counts exactly one of the two.
    pub(crate) fn lookup(
        &self,
        key: &str,
        obs: &Registry,
        count_miss: bool,
    ) -> Option<Arc<ServeResponse>> {
        if self.ttl.is_zero() {
            return None;
        }
        let state = self.state.lock().expect("cache lock");
        let fresh = state
            .entries
            .get(key)
            .filter(|e| e.fresh(&state.generations, Instant::now(), self.ttl))
            .map(|e| Arc::clone(&e.value));
        drop(state);
        if fresh.is_some() {
            obs.counter("serve.cache.hits").inc();
        } else if count_miss {
            obs.counter("serve.cache.misses").inc();
        }
        fresh
    }

    /// The current epoch and generation of each of `sources`: what a
    /// wave takes before it dispatches and hands to [`Self::store`]
    /// with its response.
    pub(crate) fn stamps(&self, sources: &[String]) -> Stamps {
        if self.ttl.is_zero() {
            return Stamps::default();
        }
        let state = self.state.lock().expect("cache lock");
        Stamps {
            epoch: state.generations.epoch,
            sources: sources
                .iter()
                .map(|s| (s.clone(), state.generations.of(s)))
                .collect(),
        }
    }

    /// Store a response under the stamps its wave took before dispatch.
    /// A response an invalidation has overtaken is not stored: the map
    /// only ever gains entries that are current.
    pub(crate) fn store(&self, key: String, value: Arc<ServeResponse>, stamps: Stamps) {
        if self.ttl.is_zero() {
            return;
        }
        let mut state = self.state.lock().expect("cache lock");
        if !state.generations.current(&stamps) {
            drop(state);
            return;
        }
        let swept = if state.entries.len() >= state.sweep_at {
            state.sweep(self.ttl)
        } else {
            Vec::new()
        };
        let displaced = state.entries.insert(
            key,
            CachedResponse {
                value,
                fetched_at: Instant::now(),
                stamps,
            },
        );
        drop(state);
        drop((swept, displaced));
    }

    /// Bump one source's generation and reclaim every cached response
    /// that consulted it; responses that did not are untouched.
    pub(crate) fn invalidate_source(&self, source: &str) {
        let mut state = self.state.lock().expect("cache lock");
        *state
            .generations
            .sources
            .entry(source.to_string())
            .or_insert(0) += 1;
        let stale = state.sweep(self.ttl);
        drop(state);
        drop(stale);
    }

    /// Stale and reclaim every cached response at once.
    pub(crate) fn invalidate_all(&self) {
        let mut state = self.state.lock().expect("cache lock");
        state.generations.epoch += 1;
        let stale = state.sweep(self.ttl);
        drop(state);
        drop(stale);
    }

    /// Number of stored responses: fresh ones, plus any that outlived
    /// the TTL since the last walk.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("cache lock").entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response() -> Arc<ServeResponse> {
        Arc::new(ServeResponse {
            merged: Vec::new(),
            selected: Vec::new(),
            completeness: Vec::new(),
            partial: false,
            query_id: "q-test".to_string(),
        })
    }

    fn ids(sources: &[&str]) -> Vec<String> {
        sources.iter().map(|s| s.to_string()).collect()
    }

    /// Stamp now, store now: a wave that no invalidation overtook.
    fn put(cache: &ResultCache, key: &str, sources: &[&str]) -> Arc<ServeResponse> {
        let value = response();
        cache.store(key.into(), Arc::clone(&value), cache.stamps(&ids(sources)));
        value
    }

    fn walks(cache: &ResultCache) -> usize {
        cache.state.lock().unwrap().walks
    }

    #[test]
    fn per_source_generations_stale_only_consulting_entries() {
        let cache = ResultCache::new(Duration::from_secs(60));
        let obs = Registry::new();
        put(&cache, "a", &["DB", "Food"]);
        put(&cache, "b", &["Stars"]);
        assert!(cache.lookup("a", &obs, true).is_some());
        assert!(cache.lookup("b", &obs, true).is_some());

        cache.invalidate_source("Food");
        // "a" consulted Food → stale, and reclaimed on the spot; "b"
        // did not → still fresh.
        assert!(cache.lookup("a", &obs, true).is_none());
        assert!(cache.lookup("b", &obs, true).is_some());
        assert_eq!(cache.len(), 1);

        let snap = obs.snapshot();
        assert_eq!(snap.counter("serve.cache.hits", &[]), 3);
        assert_eq!(snap.counter("serve.cache.misses", &[]), 1);
    }

    #[test]
    fn a_request_that_looks_twice_counts_one_miss() {
        let cache = ResultCache::new(Duration::from_secs(60));
        let obs = Registry::new();
        assert!(cache.lookup("a", &obs, false).is_none());
        assert!(cache.lookup("a", &obs, true).is_none());
        put(&cache, "a", &[]);
        assert!(cache.lookup("a", &obs, false).is_some());
        let snap = obs.snapshot();
        assert_eq!(snap.counter("serve.cache.misses", &[]), 1);
        assert_eq!(snap.counter("serve.cache.hits", &[]), 1);
    }

    #[test]
    fn epoch_bump_stales_everything_and_zero_ttl_disables() {
        let cache = ResultCache::new(Duration::from_secs(60));
        let obs = Registry::new();
        put(&cache, "a", &[]);
        cache.invalidate_all();
        assert!(cache.lookup("a", &obs, true).is_none());
        assert_eq!(cache.len(), 0);
        // A re-store in the new epoch is fresh again.
        put(&cache, "a", &[]);
        assert!(cache.lookup("a", &obs, true).is_some());

        let off = ResultCache::new(Duration::ZERO);
        put(&off, "a", &[]);
        assert_eq!(off.len(), 0);
        assert!(off.lookup("a", &obs, true).is_none());
        // Disabled cache counts nothing.
        assert_eq!(obs.snapshot().counter("serve.cache.misses", &[]), 1);
    }

    #[test]
    fn a_wave_overtaken_by_an_invalidation_is_not_cached() {
        let cache = ResultCache::new(Duration::from_secs(60));
        let obs = Registry::new();
        for invalidate in [(|c| c.invalidate_source("DB")) as fn(&ResultCache), |c| {
            c.invalidate_all()
        }] {
            let before_dispatch = cache.stamps(&ids(&["DB", "Food"]));
            invalidate(&cache);
            cache.store("q".into(), response(), before_dispatch);
            assert!(cache.lookup("q", &obs, true).is_none());
            assert_eq!(cache.len(), 0);
        }
        // Staling a source the wave did not consult leaves it storable.
        let before_dispatch = cache.stamps(&ids(&["DB"]));
        cache.invalidate_source("Stars");
        cache.store("q".into(), response(), before_dispatch);
        assert!(cache.lookup("q", &obs, true).is_some());
    }

    #[test]
    fn stores_walk_the_map_only_when_it_has_doubled() {
        let cache = ResultCache::new(Duration::from_secs(60));
        for i in 0..10_000 {
            put(&cache, &format!("k{i}"), &["S"]);
        }
        assert_eq!(cache.len(), 10_000);
        // At 1,024, 2,048, 4,096 and 8,192 entries — not 9,000 times.
        assert_eq!(walks(&cache), 4);
        // Re-storing keys the map already holds grows nothing.
        for i in 0..10_000 {
            put(&cache, &format!("k{i}"), &["S"]);
        }
        assert_eq!(walks(&cache), 4);
        // The invalidation that stales them reclaims them, in one walk.
        cache.invalidate_source("S");
        assert_eq!((cache.len(), walks(&cache)), (0, 5));
    }

    #[test]
    fn a_doubling_walk_expires_ttl_dead_entries() {
        let cache = ResultCache::new(Duration::from_millis(1));
        for i in 0..SWEEP_FLOOR {
            put(&cache, &format!("old{i}"), &[]);
        }
        std::thread::sleep(Duration::from_millis(3));
        put(&cache, "new", &[]);
        assert_eq!((cache.len(), walks(&cache)), (1, 1));
    }

    /// What the cache must answer, from first principles: every store is
    /// kept for ever and freshness is worked out at lookup time.
    #[derive(Default)]
    struct Reference {
        epoch: u64,
        generations: HashMap<String, u64>,
        /// key → (value, stamped epoch, stamped generations, instants
        /// just before and just after the real store).
        entries: HashMap<String, (Arc<ServeResponse>, Stamps, Instant, Instant)>,
    }

    impl Reference {
        fn stamps(&self, sources: &[String]) -> Stamps {
            Stamps {
                epoch: self.epoch,
                sources: sources
                    .iter()
                    .map(|s| (s.clone(), self.generations.get(s).copied().unwrap_or(0)))
                    .collect(),
            }
        }

        fn current(&self, stamps: &Stamps) -> bool {
            stamps.epoch == self.epoch
                && stamps
                    .sources
                    .iter()
                    .all(|(s, g)| self.generations.get(s).copied().unwrap_or(0) == *g)
        }
    }

    /// Random interleavings of every operation against [`Reference`]:
    /// same hit-or-miss answers, the very same `Arc`s. Under the 1 ms
    /// TTL the real store and lookup each read the clock somewhere
    /// between two instants the test takes around them, so an age within
    /// that slack of the TTL may go either way; everything else may not.
    #[test]
    fn matches_a_naive_reference_under_random_interleavings() {
        const SOURCES: [&str; 4] = ["A", "B", "C", "D"];
        for (seed, ttl) in [
            (1u64, Duration::from_secs(60)),
            (2, Duration::from_secs(60)),
            (3, Duration::from_millis(1)),
            (4, Duration::from_millis(1)),
        ] {
            let cache = ResultCache::new(ttl);
            let obs = Registry::new();
            let mut model = Reference::default();
            let mut held: Vec<(Stamps, Stamps)> = Vec::new();
            let mut rng = seed;
            let mut next = |n: u64| {
                // SplitMix64.
                rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let (mut hits, mut misses) = (0u64, 0u64);
            for _ in 0..6_000 {
                // More keys than the sweep floor, so stores do walk.
                let key = format!("k{}", next(3 * SWEEP_FLOOR as u64));
                match next(100) {
                    // A wave takes its stamps…
                    0..=29 => {
                        let sources: Vec<String> = SOURCES
                            .iter()
                            .filter(|_| next(2) == 0)
                            .map(|s| s.to_string())
                            .collect();
                        held.push((cache.stamps(&sources), model.stamps(&sources)));
                    }
                    // …and stores under them later, perhaps overtaken.
                    30..=59 => {
                        let Some((stamps, model_stamps)) = held.pop() else {
                            continue;
                        };
                        let value = response();
                        let before = Instant::now();
                        cache.store(key.clone(), Arc::clone(&value), stamps);
                        let after = Instant::now();
                        if model.current(&model_stamps) {
                            model
                                .entries
                                .insert(key, (value, model_stamps, before, after));
                        }
                    }
                    60..=93 => {
                        let before = Instant::now();
                        let got = cache.lookup(&key, &obs, true);
                        let after = Instant::now();
                        let expect = model
                            .entries
                            .get(&key)
                            .filter(|(_, stamps, _, _)| model.current(stamps));
                        match (expect, &got) {
                            (None, got) => assert!(got.is_none(), "served a stale {key}"),
                            (Some((value, _, stored_from, stored_by)), got) => {
                                if after.duration_since(*stored_from) < ttl {
                                    assert!(got.is_some(), "lost a fresh {key}");
                                }
                                if before.duration_since(*stored_by) >= ttl {
                                    assert!(got.is_none(), "served an expired {key}");
                                }
                                if let Some(got) = got {
                                    assert!(Arc::ptr_eq(got, value), "wrong response for {key}");
                                }
                            }
                        }
                        match got {
                            Some(_) => hits += 1,
                            None => misses += 1,
                        }
                    }
                    94..=96 => {
                        let source = SOURCES[next(4) as usize];
                        cache.invalidate_source(source);
                        *model.generations.entry(source.to_string()).or_insert(0) += 1;
                    }
                    97 => {
                        cache.invalidate_all();
                        model.epoch += 1;
                    }
                    _ => std::thread::sleep(ttl.min(Duration::from_micros(400 * (1 + next(4))))),
                }
            }
            // (How many lookups land inside a 1 ms window is the
            // machine's business.)
            let hit_expected = ttl >= Duration::from_secs(1);
            assert!(misses > 0 && (hits > 0 || !hit_expected), "seed {seed}");
            let snap = obs.snapshot();
            assert_eq!(snap.counter("serve.cache.hits", &[]), hits);
            assert_eq!(snap.counter("serve.cache.misses", &[]), misses);
            // Nothing an invalidation staled is still held.
            let state = cache.state.lock().unwrap();
            assert!(state
                .entries
                .values()
                .all(|e| state.generations.current(&e.stamps)));
        }
    }
}
