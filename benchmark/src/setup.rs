//! Building a workload's federation: sources, wiring, discovery, server.
//!
//! `deploy` is what `setup_s` times — everything a deployment pays
//! before its first query. Corpus and query generation are the
//! benchmark's own cost and stay outside it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use starts_index::ShardPolicy;
use starts_meta::catalog::Catalog;
use starts_meta::metasearcher::MetaConfig;
use starts_net::{host::wire_source, LinkProfile, SimNet, StartsClient};
use starts_serve::{HedgeConfig, ServeConfig, Server};
use starts_source::{vendors, Source, SourceConfig};

use crate::workload::{Inputs, Spec, Vendor, K, QUERY_WORKERS};

/// A wired, discovered federation with its server running.
pub struct Deployment {
    pub net: Arc<SimNet>,
    pub catalog: Catalog,
    pub server: Server,
    /// Source ids in catalog order (the invalidation schedule indexes it).
    pub source_ids: Vec<String>,
    pub setup_s: f64,
}

pub fn source_config(spec: &Spec, slot: usize, id: &str) -> SourceConfig {
    let mut config = match spec.vendors[slot % spec.vendors.len()] {
        Vendor::Acme => vendors::acme(id),
        Vendor::Bolt => vendors::bolt(id),
        Vendor::Okapi => vendors::okapi(id),
        Vendor::Glimpse => vendors::glimpse(id),
        Vendor::RankOnly => vendors::rankonly(id),
    };
    if spec.exact_shards > 0 {
        config.engine.shards = spec.exact_shards;
        config.engine.shard_policy = ShardPolicy::Exact;
    }
    config
}

fn link(spec: &Spec, slot: usize) -> LinkProfile {
    let latency_ms = match spec.wan {
        Some(wan) if slot == 0 => wan.straggler_ms,
        Some(wan) => wan.link_ms,
        None => LinkProfile::default().latency_ms,
    };
    LinkProfile {
        latency_ms,
        cost_per_query: 0.0,
    }
}

pub fn meta_config(spec: &Spec) -> MetaConfig {
    MetaConfig {
        max_sources: spec.max_sources,
        max_results: K,
        ..MetaConfig::default()
    }
}

pub fn serve_config(spec: &Spec, replicas: HashMap<String, String>) -> ServeConfig {
    let base = ServeConfig {
        query_workers: QUERY_WORKERS,
        cache_ttl: if spec.cache {
            ServeConfig::default().cache_ttl
        } else {
            Duration::ZERO
        },
        replicas,
        ..ServeConfig::default()
    };
    match spec.wan {
        Some(wan) => ServeConfig {
            dispatch_workers: wan.dispatch_workers,
            deadline_ms: wan.deadline_ms,
            hedge: HedgeConfig {
                enabled: true,
                factor: wan.hedge_factor,
                min_delay_ms: wan.hedge_min_delay_ms,
            },
            ..base
        },
        None => base,
    }
}

/// Index build + `wire_source` + catalog discovery + `Server::new`.
/// Pacing stays off: a paced link only adds sleeps to discovery.
pub fn deploy(spec: &Spec, inputs: &Inputs) -> Deployment {
    let start = Instant::now();
    let net = Arc::new(SimNet::new());
    let mut replicas = HashMap::new();
    for (slot, s) in inputs.corpus.sources.iter().enumerate() {
        let source = Source::build(source_config(spec, slot, &s.id), &s.docs);
        wire_source(&net, source, link(spec, slot));
        if let (0, Some(wan)) = (slot, spec.wan) {
            // The straggler's replica: same documents and personality,
            // its own endpoints, a fast link.
            let id = format!("{}-r", s.id);
            let replica = Source::build(source_config(spec, slot, &id), &s.docs);
            let url = wire_source(
                &net,
                replica,
                LinkProfile {
                    latency_ms: wan.replica_ms,
                    cost_per_query: 0.0,
                },
            );
            replicas.insert(s.id.clone(), url);
        }
    }
    let mut catalog = Catalog::default();
    {
        let client = StartsClient::new(&net);
        for (slot, s) in inputs.corpus.sources.iter().enumerate() {
            let url = format!("starts://{}/metadata", s.id.to_ascii_lowercase());
            catalog
                .discover_source(&client, &url, link(spec, slot), false)
                .expect("discovery of a source this benchmark just wired");
        }
    }
    let server = Server::new(
        Arc::clone(&net),
        catalog.clone(),
        meta_config(spec),
        serve_config(spec, replicas),
    );
    let source_ids = catalog.entries.iter().map(|e| e.id.clone()).collect();
    Deployment {
        net,
        catalog,
        server,
        source_ids,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

impl Deployment {
    /// Switch the workload's real-time pacing on or off (no-op without `wan`).
    pub fn set_paced(&self, spec: &Spec, on: bool) {
        if let Some(wan) = spec.wan {
            self.net
                .set_pacing(if on { wan.pacing_us_per_ms } else { 0 });
        }
    }
}

/// The traced run's own host-side copies of the sources, index-aligned
/// with the catalog (`wire_source` consumed the wired ones).
pub fn walk_sources(spec: &Spec, inputs: &Inputs) -> Vec<Source> {
    inputs
        .corpus
        .sources
        .iter()
        .enumerate()
        .map(|(slot, s)| Source::build(source_config(spec, slot, &s.id), &s.docs))
        .collect()
}
