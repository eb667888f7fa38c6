//! Resources: groups of sources with cross-source query fan-out and
//! duplicate elimination (§3, Figure 1; §4.3.3, Example 12).
//!
//! "To query multiple sources within the same resource, the metasearcher
//! issues the query to one of the sources at the resource, specifying
//! the other 'local' sources where to also evaluate the query. This way,
//! the resource can eliminate duplicate documents from the query result,
//! for example, which would be difficult for the metasearcher to do if
//! it queried all of the sources independently."

use std::collections::HashMap;

use starts_proto::{Query, QueryResults, Resource, ResultDocument};

use crate::source::Source;

/// A resource hosting several sources (e.g. the paper's Dialog example).
pub struct ResourceHost {
    sources: Vec<Source>,
}

impl ResourceHost {
    /// Group sources into a resource.
    pub fn new(sources: Vec<Source>) -> Self {
        ResourceHost { sources }
    }

    /// The sources.
    pub fn sources(&self) -> &[Source] {
        &self.sources
    }

    /// Find a member source by id.
    pub fn source(&self, id: &str) -> Option<&Source> {
        self.sources.iter().find(|s| s.id() == id)
    }

    /// The exported `@SResource` descriptor: source ids and metadata
    /// URLs (Example 12).
    pub fn descriptor(&self) -> Resource {
        Resource::new(self.sources.iter().map(|s| {
            (
                s.id().to_string(),
                format!("{}/metadata", s.config().base_url),
            )
        }))
    }

    /// Execute a query submitted to member `entry_id`, fanning out to the
    /// query's `AdditionalSources` that are members of this resource, and
    /// eliminating duplicates (by Linkage URL) from the merged result.
    ///
    /// Returns `None` if `entry_id` is not a member.
    pub fn execute_at(&self, entry_id: &str, query: &Query) -> Option<QueryResults> {
        self.execute_at_traced(entry_id, query, None)
    }

    /// [`ResourceHost::execute_at`] with observability: member
    /// executions record phase timings and rewrite counters, and the
    /// resource-level duplicate elimination bumps
    /// `resource.duplicates_merged`.
    pub fn execute_at_traced(
        &self,
        entry_id: &str,
        query: &Query,
        obs: Option<&starts_obs::Registry>,
    ) -> Option<QueryResults> {
        let entry = self.source(entry_id)?;
        let mut participating: Vec<&Source> = vec![entry];
        for extra in &query.additional_sources {
            if extra != entry_id {
                if let Some(s) = self.source(extra) {
                    participating.push(s);
                }
            }
        }
        let mut merged = QueryResults {
            sources: participating.iter().map(|s| s.id().to_string()).collect(),
            actual_filter: None,
            actual_ranking: None,
            documents: Vec::new(),
            profile: None,
        };
        // Deduplicate by linkage; documents without a linkage cannot be
        // identified across sources and pass through unmerged.
        let mut by_linkage: HashMap<String, usize> = HashMap::new();
        let mut duplicates = 0u64;
        for source in &participating {
            let result = source.execute_traced(query, obs);
            if source.id() == entry_id {
                // The entry source's actual query stands for the result
                // (members share the resource's conventions).
                merged.actual_filter = result.actual_filter.clone();
                merged.actual_ranking = result.actual_ranking.clone();
            }
            for doc in result.documents {
                match doc.linkage().map(str::to_string) {
                    Some(url) => match by_linkage.get(&url) {
                        Some(&i) => {
                            duplicates += 1;
                            merge_duplicate(&mut merged.documents[i], doc);
                        }
                        None => {
                            by_linkage.insert(url, merged.documents.len());
                            merged.documents.push(doc);
                        }
                    },
                    None => merged.documents.push(doc),
                }
            }
        }
        // Re-sort the merged list by raw score (descending; unscored
        // documents last) and re-apply the result cap.
        merged.documents.sort_by(|a, b| {
            b.raw_score
                .partial_cmp(&a.raw_score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        merged.documents.truncate(query.answer.max_documents);
        if let (Some(reg), true) = (obs, duplicates > 0) {
            reg.counter_with("resource.duplicates_merged", &[("entry", entry_id)])
                .add(duplicates);
        }
        Some(merged)
    }
}

/// A resource's whole-index facts are its members'.
impl starts_obs::Collector for ResourceHost {
    fn collect(&self, obs: &starts_obs::Registry) {
        for source in &self.sources {
            source.collect(obs);
        }
    }
}

/// Fold a duplicate into the kept document: union the source lists, keep
/// the higher raw score and the richer statistics.
fn merge_duplicate(kept: &mut ResultDocument, dup: ResultDocument) {
    for s in dup.sources {
        if !kept.sources.contains(&s) {
            kept.sources.push(s);
        }
    }
    if dup.raw_score > kept.raw_score {
        kept.raw_score = dup.raw_score;
    }
    if kept.term_stats.is_empty() {
        kept.term_stats = dup.term_stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SourceConfig;
    use starts_index::Document;
    use starts_proto::query::parse_ranking;
    use starts_proto::AnswerSpec;

    fn doc(title: &str, body: &str, url: &str) -> Document {
        Document::new()
            .field("title", title)
            .field("body-of-text", body)
            .field("linkage", url)
    }

    fn resource() -> ResourceHost {
        // Source-1 and Source-2 share one document (the duplicate), like
        // overlapping collections inside Dialog.
        let s1 = Source::build(
            SourceConfig::new("Source-1"),
            &[
                doc("Shared Paper", "databases for everyone", "http://x/shared"),
                doc("Only One", "databases here too", "http://x/one"),
            ],
        );
        let s2 = Source::build(
            SourceConfig::new("Source-2"),
            &[
                doc("Shared Paper", "databases for everyone", "http://x/shared"),
                doc("Only Two", "databases elsewhere", "http://x/two"),
            ],
        );
        ResourceHost::new(vec![s1, s2])
    }

    fn query_with_additional(additional: &[&str]) -> Query {
        Query {
            ranking: Some(parse_ranking(r#"list((body-of-text "databases"))"#).unwrap()),
            additional_sources: additional.iter().map(|s| s.to_string()).collect(),
            answer: AnswerSpec::default(),
            ..Query::default()
        }
    }

    #[test]
    fn descriptor_lists_members() {
        let r = resource();
        let d = r.descriptor();
        let ids: Vec<&str> = d.source_ids().collect();
        assert_eq!(ids, vec!["Source-1", "Source-2"]);
        assert_eq!(
            d.metadata_url("Source-1"),
            Some("starts://source-1/metadata")
        );
    }

    #[test]
    fn single_source_query() {
        let r = resource();
        let result = r
            .execute_at("Source-1", &query_with_additional(&[]))
            .unwrap();
        assert_eq!(result.sources, vec!["Source-1".to_string()]);
        assert_eq!(result.documents.len(), 2);
    }

    #[test]
    fn figure1_fan_out_with_duplicate_elimination() {
        let r = resource();
        let result = r
            .execute_at("Source-1", &query_with_additional(&["Source-2"]))
            .unwrap();
        assert_eq!(
            result.sources,
            vec!["Source-1".to_string(), "Source-2".to_string()]
        );
        // 2 + 2 documents, one shared → 3 after dedup.
        assert_eq!(result.documents.len(), 3);
        let shared = result
            .documents
            .iter()
            .find(|d| d.linkage() == Some("http://x/shared"))
            .unwrap();
        assert_eq!(shared.sources.len(), 2, "duplicate must list both sources");
    }

    #[test]
    fn unknown_entry_source() {
        let r = resource();
        assert!(r
            .execute_at("Source-9", &query_with_additional(&[]))
            .is_none());
    }

    #[test]
    fn unknown_additional_sources_are_ignored() {
        let r = resource();
        let result = r
            .execute_at("Source-1", &query_with_additional(&["Nope", "Source-2"]))
            .unwrap();
        assert_eq!(result.sources.len(), 2);
    }

    #[test]
    fn merged_results_respect_max_documents() {
        let r = resource();
        let mut q = query_with_additional(&["Source-2"]);
        q.answer.max_documents = 2;
        let result = r.execute_at("Source-1", &q).unwrap();
        assert_eq!(result.documents.len(), 2);
        // Sorted by score descending.
        assert!(result.documents[0].raw_score >= result.documents[1].raw_score);
    }
}
