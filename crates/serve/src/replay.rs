//! Trace replay: fold an `opass-trace` record stream into the planning
//! pipeline.
//!
//! The replayed world is drawn from the seed like a served one
//! ([`seeded_layouts`]): one layout per dataset and nothing else. The
//! driver batches records in time order and, per batch and dataset, plans
//! the accessed chunks with a fresh [`PlanRequest::single_from_layout`]
//! over a snapshot of exactly those entries, while a long-lived
//! [`SingleDataSession`] per dataset plans the whole dataset and absorbs
//! the churn the trace implies: with churn enabled, each batch migrates
//! one replica of its hottest chunk toward the busiest client's node, as
//! a [`LayoutDelta::migration`] replanned into the session
//! ([`SingleDataSession::replan`]) and applied to the dataset's layout,
//! which the driver holds as the only handle, so it advances in place.
//! Everything is a pure function of
//! `(records, config)` — the [`ReplayReport::fingerprint`] is
//! reproducible byte-for-byte.
//!
//! [`replay_remote`] drives the same batch loop against a running
//! `opass serve` instance through [`Client`]: plans come from the
//! service's cache/coalesce path and churn arrives as dataset-scoped
//! delta invalidations, exercising the repair path end to end.

use crate::client::{Client, ClientError};
use opass_core::dfs::{seeded_layouts, ChunkId, LayoutDelta, LayoutSnapshot, NodeId};
use opass_core::runtime::ProcessPlacement;
use opass_core::{OpassPlanner, PlanRequest, SingleDataSession, Strategy};
use opass_json::Json;
use opass_trace::TraceRecord;
use std::collections::BTreeMap;
use std::fmt;

/// Replay parameters. The report is a pure function of
/// `(records, config)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Cluster size for the locally built world (one planning process
    /// per node). Clients map to nodes by `client % n_nodes`.
    pub n_nodes: usize,
    /// Replication factor of the locally built world.
    pub replication: u32,
    /// Seed for world placement and plan fills.
    pub seed: u64,
    /// Records per batch; each batch is planned (and optionally churns
    /// the layout) as one unit.
    pub batch_records: usize,
    /// When true, each batch migrates one replica of its hottest chunk
    /// toward its busiest client's node and replans the session.
    pub churn: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            n_nodes: 64,
            replication: 3,
            seed: 0x7ACE,
            batch_records: 4096,
            churn: true,
        }
    }
}

/// Replay failures.
#[derive(Debug)]
pub enum ReplayDriverError {
    /// The trace has no records or the config is degenerate.
    BadInput(&'static str),
    /// The remote service failed.
    Remote(ClientError),
}

impl fmt::Display for ReplayDriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayDriverError::BadInput(what) => write!(f, "bad replay input: {what}"),
            ReplayDriverError::Remote(e) => write!(f, "remote replay failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayDriverError {}

impl From<ClientError> for ReplayDriverError {
    fn from(e: ClientError) -> Self {
        ReplayDriverError::Remote(e)
    }
}

/// What one `(batch, dataset)` planning step produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDigest {
    /// Batch index (records arrive in time order).
    pub batch: usize,
    /// Dataset the step planned.
    pub dataset: u32,
    /// Records of this dataset in the batch.
    pub records: u64,
    /// Distinct chunks those records touched.
    pub distinct_chunks: usize,
    /// Max-flow matches in the fresh batch plan.
    pub matched_files: usize,
    /// Fill-policy placements in the fresh batch plan.
    pub filled_files: usize,
    /// Local-task fraction of the fresh batch plan.
    pub local_task_fraction: f64,
    /// True when this step migrated a replica.
    pub migrated: bool,
    /// Local-task fraction of the dataset's long-lived session after any
    /// churn was replanned into it.
    pub session_local_fraction: f64,
}

impl BatchDigest {
    /// Canonical one-line form, the unit the report fingerprint hashes.
    fn canonical(&self) -> String {
        format!(
            "{},{},{},{},{},{},{:.6},{},{:.6}",
            self.batch,
            self.dataset,
            self.records,
            self.distinct_chunks,
            self.matched_files,
            self.filled_files,
            self.local_task_fraction,
            u8::from(self.migrated),
            self.session_local_fraction
        )
    }
}

/// The replay's aggregate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Records replayed.
    pub records: u64,
    /// Batches processed.
    pub batches: usize,
    /// Datasets the trace touched.
    pub datasets: u32,
    /// Replica migrations applied.
    pub migrations: u64,
    /// Mean local-task fraction across fresh batch plans.
    pub mean_batch_locality: f64,
    /// Mean post-churn session local-task fraction across steps.
    pub mean_session_locality: f64,
    /// Every `(batch, dataset)` step, in replay order.
    pub digests: Vec<BatchDigest>,
}

impl ReplayReport {
    /// FNV-1a hash over the canonical digest lines — equal traces and
    /// configs yield equal fingerprints, so determinism is one `u64`
    /// comparison.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for digest in &self.digests {
            for byte in digest.canonical().bytes().chain([b'\n']) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Summary as a JSON object (digests elided; the fingerprint covers
    /// them).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("records".to_string(), Json::from(self.records)),
            ("batches".to_string(), Json::from(self.batches)),
            ("datasets".to_string(), Json::from(self.datasets)),
            ("migrations".to_string(), Json::from(self.migrations)),
            (
                "mean_batch_locality".to_string(),
                Json::from(self.mean_batch_locality),
            ),
            (
                "mean_session_locality".to_string(),
                Json::from(self.mean_session_locality),
            ),
            (
                "fingerprint".to_string(),
                Json::from(format!("{:016x}", self.fingerprint())),
            ),
        ])
    }
}

/// Replays a trace against an in-process world built from the trace
/// itself: datasets and chunk counts are inferred from the records,
/// placed randomly from `config.seed`.
///
/// # Errors
///
/// [`ReplayDriverError::BadInput`] on an empty trace or degenerate
/// config.
pub fn replay_local(
    records: &[TraceRecord],
    config: &ReplayConfig,
) -> Result<ReplayReport, ReplayDriverError> {
    check_input(records, config)?;
    if config.n_nodes == 0 || config.replication == 0 {
        return Err(ReplayDriverError::BadInput(
            "n_nodes and replication must be at least 1",
        ));
    }

    // Infer the world: a dataset per distinct id, sized to the highest
    // chunk index the trace touches.
    let n_datasets = records.iter().map(|r| r.dataset).max().unwrap_or(0) as usize + 1;
    let mut chunks_per_dataset = vec![1u64; n_datasets];
    let mut chunk_size = 1u64;
    for r in records {
        let slot = &mut chunks_per_dataset[r.dataset as usize];
        *slot = (*slot).max(u64::from(r.chunk) + 1);
        chunk_size = chunk_size.max(u64::from(r.bytes));
    }
    let replication = config.replication.min(config.n_nodes as u32);
    // Each dataset's current layout. The sessions keep no handle on
    // them, so a migration applied here advances it in place.
    let mut layouts: Vec<LayoutSnapshot> = seeded_layouts(
        config.n_nodes,
        replication,
        config.seed,
        chunks_per_dataset.iter().map(|&n| (n as usize, chunk_size)),
    )
    .collect();

    let placement = ProcessPlacement::one_per_node(config.n_nodes);
    let planner = OpassPlanner::default();

    // One long-lived session per dataset, planning the whole dataset;
    // batch churn is replanned into it incrementally. Created lazily so
    // a dataset the trace names but never touches costs nothing.
    let mut sessions: BTreeMap<u32, SingleDataSession> = BTreeMap::new();

    let mut digests = Vec::new();
    let mut migrations = 0u64;
    for group in batch_groups(records, config.batch_records, |d| d) {
        let dataset = group.dataset;
        let layout = &mut layouts[dataset as usize];
        let session = sessions.entry(dataset).or_insert_with(|| {
            let request = PlanRequest::single_from_layout(layout, &placement).seed(config.seed);
            planner
                .session(&request)
                .into_single()
                .expect("single request yields single session")
        });
        let entries = layout.entries();

        // Fresh plan over exactly the chunks this batch read.
        let accessed: LayoutSnapshot = group
            .chunks
            .iter()
            .map(|&idx| entries[idx as usize].clone())
            .collect();
        let request = PlanRequest::single_from_layout(&accessed, &placement)
            .seed(config.seed ^ group.batch as u64);
        let plan = planner
            .plan(&request)
            .into_single()
            .expect("single request yields single plan");

        // Optionally migrate one replica of the hottest chunk toward the
        // busiest client's node, then replan the session.
        let mut migrated = false;
        if config.churn {
            let target = NodeId((group.top_client() as usize % config.n_nodes) as u32);
            let hot = &entries[group.hot_chunk() as usize];
            if !hot.locations.contains(&target) {
                let delta = LayoutDelta::migration(hot.chunk, hot.locations[0], target);
                session.advance(&delta);
                layout.apply_delta(&delta);
                migrations += 1;
                migrated = true;
            }
        }

        digests.push(BatchDigest {
            batch: group.batch,
            dataset,
            records: group.records,
            distinct_chunks: group.chunks.len(),
            matched_files: plan.matched_files,
            filled_files: plan.filled_files,
            local_task_fraction: plan.locality.task_fraction(),
            migrated,
            session_local_fraction: session.local_task_fraction(),
        });
    }

    Ok(finish_report(
        records.len() as u64,
        records.chunks(config.batch_records).len(),
        n_datasets as u32,
        migrations,
        digests,
    ))
}

/// Replays a trace against a running `opass serve` instance: per batch
/// and dataset, churn becomes a dataset-scoped delta invalidation
/// ([`Client::invalidate_with_delta`]) and the plan is requested over the
/// wire, exercising the service's cache, coalesce, and repair paths.
/// Trace dataset ids are mapped onto the served world by
/// `dataset % served_datasets`, and chunk indices by position in the
/// served layout.
///
/// # Errors
///
/// [`ReplayDriverError::BadInput`] on an empty trace or degenerate
/// config; [`ReplayDriverError::Remote`] when the service fails.
pub fn replay_remote(
    records: &[TraceRecord],
    config: &ReplayConfig,
    client: &mut Client,
) -> Result<ReplayReport, ReplayDriverError> {
    check_input(records, config)?;
    let (_, served_nodes, served_datasets) = client.ping()?;
    if served_nodes == 0 || served_datasets == 0 {
        return Err(ReplayDriverError::BadInput(
            "served world has no nodes or datasets",
        ));
    }

    let mut digests = Vec::new();
    let mut migrations = 0u64;
    let mut seen_datasets = 0u32;
    let served = served_datasets as u32;
    for group in batch_groups(records, config.batch_records, |d| d % served) {
        let dataset = group.dataset;
        seen_datasets = seen_datasets.max(dataset + 1);
        let mut migrated = false;
        if config.churn {
            let layout = client.layout(dataset as usize)?;
            if !layout.entries.is_empty() {
                let entry = &layout.entries[group.hot_chunk() as usize % layout.entries.len()];
                let target = u64::from(group.top_client()) % served_nodes as u64;
                if !entry.locations.is_empty() && !entry.locations.contains(&target) {
                    let delta = LayoutDelta::migration(
                        ChunkId(entry.chunk),
                        NodeId(entry.locations[0] as u32),
                        NodeId(target as u32),
                    );
                    client.invalidate_with_delta(dataset as usize, &delta)?;
                    migrations += 1;
                    migrated = true;
                }
            }
        }

        let reply = client.plan(dataset as usize, Strategy::Opass, config.seed)?;
        digests.push(BatchDigest {
            batch: group.batch,
            dataset,
            records: group.records,
            distinct_chunks: group.chunks.len(),
            matched_files: reply.matched_files,
            filled_files: reply.filled_files,
            local_task_fraction: reply.local_task_fraction,
            migrated,
            // The served plan covers the whole dataset, so its locality
            // doubles as the session view.
            session_local_fraction: reply.local_task_fraction,
        });
    }

    Ok(finish_report(
        records.len() as u64,
        records.chunks(config.batch_records).len(),
        seen_datasets,
        migrations,
        digests,
    ))
}

/// The input checks both drivers share: a trace with records, cut into
/// batches of at least one record.
fn check_input(records: &[TraceRecord], config: &ReplayConfig) -> Result<(), ReplayDriverError> {
    if records.is_empty() {
        return Err(ReplayDriverError::BadInput("trace has no records"));
    }
    if config.batch_records == 0 {
        return Err(ReplayDriverError::BadInput(
            "batch_records must be at least 1",
        ));
    }
    Ok(())
}

/// One dataset's accesses within one batch.
#[derive(Default)]
struct BatchGroup {
    /// Batch index.
    batch: usize,
    /// The dataset, after the driver's mapping.
    dataset: u32,
    /// Records of this dataset in the batch.
    records: u64,
    /// The distinct chunks read, in first-access order.
    chunks: Vec<u32>,
    /// Reads per chunk index.
    per_chunk: BTreeMap<u32, u64>,
    /// Reads per client.
    per_client: BTreeMap<u32, u64>,
}

impl BatchGroup {
    fn add(&mut self, r: &TraceRecord) {
        self.records += 1;
        let count = self.per_chunk.entry(r.chunk).or_insert(0);
        if *count == 0 {
            self.chunks.push(r.chunk);
        }
        *count += 1;
        *self.per_client.entry(r.client).or_insert(0) += 1;
    }

    /// The most-read chunk; ties go to the lowest index.
    fn hot_chunk(&self) -> u32 {
        busiest(&self.per_chunk)
    }

    /// The client with the most reads; ties go to the lowest id.
    fn top_client(&self) -> u32 {
        busiest(&self.per_client)
    }
}

/// The key with the highest count; `Reverse` hands ties to the lowest key.
fn busiest(counts: &BTreeMap<u32, u64>) -> u32 {
    counts
        .iter()
        .max_by_key(|&(key, count)| (*count, std::cmp::Reverse(*key)))
        .map(|(&key, _)| key)
        .expect("a batch group is non-empty")
}

/// Walks `records` in batches of `batch_records` and groups each batch by
/// dataset (as `dataset_of` maps it), one batch at a time: groups come in
/// batch order, then ascending dataset order.
fn batch_groups<'a>(
    records: &'a [TraceRecord],
    batch_records: usize,
    dataset_of: impl Fn(u32) -> u32 + 'a,
) -> impl Iterator<Item = BatchGroup> + 'a {
    records
        .chunks(batch_records)
        .enumerate()
        .flat_map(move |(batch, slice)| {
            let mut groups: BTreeMap<u32, BatchGroup> = BTreeMap::new();
            for r in slice {
                let dataset = dataset_of(r.dataset);
                groups
                    .entry(dataset)
                    .or_insert_with(|| BatchGroup {
                        batch,
                        dataset,
                        ..BatchGroup::default()
                    })
                    .add(r);
            }
            groups.into_values()
        })
}

/// Folds step digests into the aggregate report (sequential float
/// accumulation, so the means are order-stable).
fn finish_report(
    records: u64,
    batches: usize,
    datasets: u32,
    migrations: u64,
    digests: Vec<BatchDigest>,
) -> ReplayReport {
    let mut batch_sum = 0.0f64;
    let mut session_sum = 0.0f64;
    for d in &digests {
        batch_sum += d.local_task_fraction;
        session_sum += d.session_local_fraction;
    }
    let steps = digests.len().max(1) as f64;
    ReplayReport {
        records,
        batches,
        datasets,
        migrations,
        mean_batch_locality: batch_sum / steps,
        mean_session_locality: session_sum / steps,
        digests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_trace::{generate, TraceSpec};

    fn small_trace() -> Vec<TraceRecord> {
        generate(&TraceSpec {
            records: 3_000,
            duration_s: 30.0,
            clients: 16,
            datasets: 3,
            chunks_per_dataset: 96,
            chunk_size: 1 << 20,
            ..TraceSpec::default()
        })
    }

    fn small_config() -> ReplayConfig {
        ReplayConfig {
            n_nodes: 16,
            batch_records: 512,
            ..ReplayConfig::default()
        }
    }

    #[test]
    fn local_replay_is_deterministic() {
        let records = small_trace();
        let config = small_config();
        let a = replay_local(&records, &config).unwrap();
        let b = replay_local(&records, &config).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.records, 3_000);
        assert_eq!(a.batches, 6);
        assert_eq!(a.datasets, 3);
        assert!(a.migrations > 0, "churn should migrate replicas");
        assert!(a.mean_batch_locality > 0.0);
    }

    #[test]
    fn churn_toggle_changes_the_run() {
        let records = small_trace();
        let churned = replay_local(&records, &small_config()).unwrap();
        let quiet = replay_local(
            &records,
            &ReplayConfig {
                churn: false,
                ..small_config()
            },
        )
        .unwrap();
        assert_eq!(quiet.migrations, 0);
        assert_ne!(churned.fingerprint(), quiet.fingerprint());
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let records = small_trace();
        assert!(matches!(
            replay_local(&[], &small_config()),
            Err(ReplayDriverError::BadInput(_))
        ));
        assert!(matches!(
            replay_local(
                &records,
                &ReplayConfig {
                    batch_records: 0,
                    ..small_config()
                }
            ),
            Err(ReplayDriverError::BadInput(_))
        ));
    }

    #[test]
    fn report_json_carries_the_fingerprint() {
        let report = replay_local(&small_trace(), &small_config()).unwrap();
        let v = report.to_json();
        assert_eq!(v.get("records").and_then(Json::as_u64), Some(3_000));
        let fp = v.get("fingerprint").and_then(Json::as_str).unwrap();
        assert_eq!(fp, format!("{:016x}", report.fingerprint()));
    }
}
