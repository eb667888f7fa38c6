//! The metasearcher's source catalog (§3.4).
//!
//! "A sophisticated metasearcher will need to … extract the list of
//! sources from the resources periodically … \[and\] extract metadata and
//! content summaries from the sources periodically." The catalog is the
//! result of that periodic crawl: everything the metasearcher knows
//! about each source, refreshed out-of-band from query traffic.

use std::sync::Arc;

use starts_net::{LinkProfile, StartsClient};
use starts_proto::summary::IndexedSummary;
use starts_proto::{Query, QueryResults, SourceMetadata};

use crate::cache::CatalogCache;

/// Everything known about one source.
///
/// Metadata and summary are built once, where they enter the catalog,
/// and shared from then on: cloning an entry (or a whole [`Catalog`]),
/// planning a query and caching a response all copy the pointer.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The source id.
    pub id: String,
    /// The metadata URL this entry was discovered from — what a
    /// periodic [`Catalog::refresh`] refetches.
    pub metadata_url: String,
    /// Its exported metadata (§4.3.1).
    pub metadata: Arc<SourceMetadata>,
    /// Its exported content summary (§4.3.2), indexed by word.
    pub summary: Arc<IndexedSummary>,
    /// Its sample-database results, if fetched (§4.2).
    pub sample_results: Vec<(Query, QueryResults)>,
    /// The link profile the metasearcher has observed/configured for the
    /// source (latency, per-query fee) — §3.3's selection inputs.
    pub link: LinkProfile,
}

impl CatalogEntry {
    /// The URL to submit queries to.
    pub fn query_url(&self) -> &str {
        &self.metadata.linkage
    }
}

/// The catalog: an ordered list of known sources.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// The entries, in discovery order.
    pub entries: Vec<CatalogEntry>,
}

impl Catalog {
    /// Number of known sources.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Find an entry by source id.
    pub fn entry(&self, id: &str) -> Option<&CatalogEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Discover sources from a resource URL: fetch the `@SResource`
    /// listing, then each member's metadata and content summary
    /// (the §3.4 "periodically" tasks, run once).
    pub fn discover_resource(
        &mut self,
        client: &StartsClient<'_>,
        resource_url: &str,
        link: LinkProfile,
        fetch_samples: bool,
    ) -> Result<usize, starts_net::client::ClientError> {
        self.discover_resource_via(client, None, resource_url, link, fetch_samples)
    }

    /// [`Catalog::discover_resource`], but with every metadata and
    /// summary fetch routed through a [`CatalogCache`] — repeated
    /// discovery within the cache's TTL touches the wire only for the
    /// resource listing itself.
    pub fn discover_resource_cached(
        &mut self,
        client: &StartsClient<'_>,
        cache: &CatalogCache,
        resource_url: &str,
        link: LinkProfile,
        fetch_samples: bool,
    ) -> Result<usize, starts_net::client::ClientError> {
        self.discover_resource_via(client, Some(cache), resource_url, link, fetch_samples)
    }

    fn discover_resource_via(
        &mut self,
        client: &StartsClient<'_>,
        cache: Option<&CatalogCache>,
        resource_url: &str,
        link: LinkProfile,
        fetch_samples: bool,
    ) -> Result<usize, starts_net::client::ClientError> {
        let resource = client.fetch_resource(resource_url)?;
        let mut added = 0;
        for (id, metadata_url) in &resource.sources {
            if self.entry(id).is_some() {
                continue;
            }
            let (metadata, summary) = fetch_pair(client, cache, metadata_url)?;
            let sample_results = if fetch_samples {
                client.fetch_sample_results(&metadata.sample_database_results)?
            } else {
                Vec::new()
            };
            self.entries.push(CatalogEntry {
                id: id.clone(),
                metadata_url: metadata_url.clone(),
                metadata,
                summary,
                sample_results,
                link,
            });
            added += 1;
        }
        Ok(added)
    }

    /// Discover one stand-alone source from its metadata URL.
    pub fn discover_source(
        &mut self,
        client: &StartsClient<'_>,
        metadata_url: &str,
        link: LinkProfile,
        fetch_samples: bool,
    ) -> Result<(), starts_net::client::ClientError> {
        self.discover_source_via(client, None, metadata_url, link, fetch_samples)
    }

    /// [`Catalog::discover_source`], but routed through a
    /// [`CatalogCache`].
    pub fn discover_source_cached(
        &mut self,
        client: &StartsClient<'_>,
        cache: &CatalogCache,
        metadata_url: &str,
        link: LinkProfile,
        fetch_samples: bool,
    ) -> Result<(), starts_net::client::ClientError> {
        self.discover_source_via(client, Some(cache), metadata_url, link, fetch_samples)
    }

    fn discover_source_via(
        &mut self,
        client: &StartsClient<'_>,
        cache: Option<&CatalogCache>,
        metadata_url: &str,
        link: LinkProfile,
        fetch_samples: bool,
    ) -> Result<(), starts_net::client::ClientError> {
        let (metadata, summary) = fetch_pair(client, cache, metadata_url)?;
        if self.entry(&metadata.source_id).is_some() {
            return Ok(());
        }
        let sample_results = if fetch_samples {
            client.fetch_sample_results(&metadata.sample_database_results)?
        } else {
            Vec::new()
        };
        self.entries.push(CatalogEntry {
            id: metadata.source_id.clone(),
            metadata_url: metadata_url.to_string(),
            metadata,
            summary,
            sample_results,
            link,
        });
        Ok(())
    }

    /// The periodic §3.4 refresh: refetch every entry's metadata and
    /// content summary through the cache. Within one TTL window this is
    /// free (all hits); after [`CatalogCache::invalidate`] or TTL
    /// expiry it touches the wire once per source. Returns how many
    /// entries were walked.
    pub fn refresh(
        &mut self,
        client: &StartsClient<'_>,
        cache: &CatalogCache,
    ) -> Result<usize, starts_net::client::ClientError> {
        for entry in &mut self.entries {
            let (metadata, summary) = fetch_pair(client, Some(cache), &entry.metadata_url)?;
            entry.metadata = metadata;
            entry.summary = summary;
        }
        Ok(self.entries.len())
    }

    /// Total documents across all catalogued sources (from summaries).
    pub fn total_docs(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| u64::from(e.summary.num_docs))
            .sum()
    }

    /// Global document frequency of a term: the sum of per-source df
    /// from the summaries — the "single, large document source" view
    /// §4.2 suggests for merging.
    pub fn global_df(&self, field: Option<&str>, term: &str) -> u64 {
        self.entries
            .iter()
            .map(|e| u64::from(e.summary.df(field, term)))
            .sum()
    }
}

/// One source's (metadata, summary) pair, through the cache if given —
/// the one place a fetched summary is indexed and both become shared.
fn fetch_pair(
    client: &StartsClient<'_>,
    cache: Option<&CatalogCache>,
    metadata_url: &str,
) -> Result<(Arc<SourceMetadata>, Arc<IndexedSummary>), starts_net::client::ClientError> {
    let (metadata, summary) = match cache {
        Some(cache) => {
            let metadata = cache.fetch_metadata(client, metadata_url)?;
            let summary = cache.fetch_summary(client, &metadata.content_summary_linkage)?;
            (metadata, summary)
        }
        None => {
            let metadata = client.fetch_metadata(metadata_url)?;
            let summary = client.fetch_summary(&metadata.content_summary_linkage)?;
            (metadata, summary)
        }
    };
    Ok((Arc::new(metadata), Arc::new(IndexedSummary::new(summary))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_index::Document;
    use starts_net::host::{wire_resource, wire_source};
    use starts_net::SimNet;
    use starts_source::{ResourceHost, Source, SourceConfig};

    fn net_with_everything() -> SimNet {
        let net = SimNet::new();
        let standalone = Source::build(
            SourceConfig::new("Solo"),
            &[Document::new()
                .field("body-of-text", "unique solo words")
                .field("linkage", "http://x/solo")],
        );
        wire_source(&net, standalone, LinkProfile::default());
        let m1 = Source::build(
            SourceConfig::new("M1"),
            &[Document::new()
                .field("body-of-text", "member one databases")
                .field("linkage", "http://x/m1")],
        );
        let m2 = Source::build(
            SourceConfig::new("M2"),
            &[Document::new()
                .field("body-of-text", "member two databases")
                .field("linkage", "http://x/m2")],
        );
        wire_resource(
            &net,
            ResourceHost::new(vec![m1, m2]),
            "starts://dialog",
            LinkProfile::default(),
        );
        net
    }

    #[test]
    fn discovery_builds_catalog() {
        let net = net_with_everything();
        let client = StartsClient::new(&net);
        let mut catalog = Catalog::default();
        let added = catalog
            .discover_resource(&client, "starts://dialog", LinkProfile::default(), true)
            .unwrap();
        assert_eq!(added, 2);
        catalog
            .discover_source(
                &client,
                "starts://solo/metadata",
                LinkProfile::default(),
                false,
            )
            .unwrap();
        assert_eq!(catalog.len(), 3);
        let m1 = catalog.entry("M1").unwrap();
        assert_eq!(m1.summary.num_docs, 1);
        assert!(!m1.sample_results.is_empty());
        let solo = catalog.entry("Solo").unwrap();
        assert!(solo.sample_results.is_empty());
        assert_eq!(solo.query_url(), "starts://solo/query");
    }

    #[test]
    fn rediscovery_is_idempotent() {
        let net = net_with_everything();
        let client = StartsClient::new(&net);
        let mut catalog = Catalog::default();
        catalog
            .discover_resource(&client, "starts://dialog", LinkProfile::default(), false)
            .unwrap();
        let added = catalog
            .discover_resource(&client, "starts://dialog", LinkProfile::default(), false)
            .unwrap();
        assert_eq!(added, 0);
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn cached_discovery_and_refresh_hit_the_wire_once() {
        let net = net_with_everything();
        let client = StartsClient::new(&net);
        let cache = CatalogCache::new(std::time::Duration::from_secs(60));
        let mut catalog = Catalog::default();
        catalog
            .discover_resource_cached(
                &client,
                &cache,
                "starts://dialog",
                LinkProfile::default(),
                false,
            )
            .unwrap();
        catalog
            .discover_source_cached(
                &client,
                &cache,
                "starts://solo/metadata",
                LinkProfile::default(),
                false,
            )
            .unwrap();
        assert_eq!(catalog.len(), 3);
        // The refresh walks all three entries but every fetch is a hit.
        let walked = catalog.refresh(&client, &cache).unwrap();
        assert_eq!(walked, 3);
        let snap = net.registry().snapshot();
        assert_eq!(
            snap.counter("catalog.cache.misses", &[("kind", "metadata")]),
            3
        );
        assert_eq!(
            snap.counter("catalog.cache.hits", &[("kind", "metadata")]),
            3
        );
        assert_eq!(
            snap.counter("catalog.cache.misses", &[("kind", "summary")]),
            3
        );
        assert_eq!(
            snap.counter("catalog.cache.hits", &[("kind", "summary")]),
            3
        );
        // After invalidation the refresh pays the wire cost again.
        cache.invalidate();
        catalog.refresh(&client, &cache).unwrap();
        let snap = net.registry().snapshot();
        assert_eq!(
            snap.counter("catalog.cache.misses", &[("kind", "metadata")]),
            6
        );
    }

    #[test]
    fn a_refresh_that_changes_a_summary_is_seen_by_the_next_rank() {
        use crate::select::{GGlossSum, Selector};
        let net = net_with_everything();
        let client = StartsClient::new(&net);
        let cache = CatalogCache::new(std::time::Duration::from_secs(60));
        let mut catalog = Catalog::default();
        catalog
            .discover_source_cached(
                &client,
                &cache,
                "starts://solo/metadata",
                LinkProfile::default(),
                false,
            )
            .unwrap();
        let terms = [(Some("body-of-text"), "galaxies")];
        assert_eq!(GGlossSum.rank(&catalog, &terms)[0].1, 0.0);
        let shared = Arc::clone(&catalog.entries[0].summary);

        // The source re-indexes new content behind the same endpoints.
        let rebuilt = Source::build(
            SourceConfig::new("Solo"),
            &[Document::new()
                .field("body-of-text", "galaxies and more galaxies")
                .field("linkage", "http://x/solo")],
        );
        wire_source(&net, rebuilt, LinkProfile::default());
        cache.invalidate();
        catalog.refresh(&client, &cache).unwrap();

        // The entry holds a new summary *and* a new index over it…
        assert!(!Arc::ptr_eq(&shared, &catalog.entries[0].summary));
        assert!(GGlossSum.rank(&catalog, &terms)[0].1 > 0.0);
        assert_eq!(catalog.global_df(Some("body-of-text"), "galaxies"), 1);
        // …and whoever still shares the old one keeps a coherent pair.
        assert_eq!(shared.df(Some("body-of-text"), "galaxies"), 0);
        assert_eq!(shared.df(Some("body-of-text"), "unique"), 1);
    }

    #[test]
    fn global_statistics() {
        let net = net_with_everything();
        let client = StartsClient::new(&net);
        let mut catalog = Catalog::default();
        catalog
            .discover_resource(&client, "starts://dialog", LinkProfile::default(), false)
            .unwrap();
        assert_eq!(catalog.total_docs(), 2);
        // "databases" occurs in both members' bodies.
        assert_eq!(catalog.global_df(Some("body-of-text"), "databases"), 2);
        assert_eq!(catalog.global_df(Some("body-of-text"), "unique"), 0);
    }
}
