//! The namenode: cluster membership and the chunk→locations block map.
//!
//! This is the part of HDFS that Opass actually talks to — the paper's
//! optimizer "retrieves the data layout information from the underlying
//! distributed file system". The model covers what the evaluation needs:
//! dataset creation under a placement policy, replica lookup, node
//! addition, and node decommission with re-replication (the paper names
//! node churn as the cause of unbalanced distributions that break full
//! matchings).

use crate::chunk::{ChunkMeta, DatasetMeta, DatasetSpec};
use crate::delta::{LayoutDelta, LayoutEvent};
use crate::error::DfsError;
use crate::ids::{ChunkId, DatasetId, NodeId};
use crate::placement::Placement;
use crate::replicas::Replicas;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Namenode configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfsConfig {
    /// Replication factor (HDFS default: 3).
    pub replication: u32,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig { replication: 3 }
    }
}

/// In-memory namenode over `n` nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Namenode {
    config: DfsConfig,
    /// `alive[i]` — whether node `i` is in service.
    alive: Vec<bool>,
    chunks: Vec<ChunkMeta>,
    datasets: Vec<DatasetMeta>,
    /// Per-node chunk lists (sorted by ChunkId).
    node_chunks: Vec<Vec<ChunkId>>,
    /// Layout mutation journal since the last [`Namenode::take_events`]
    /// drain — the change feed incremental re-planning consumes.
    events: Vec<LayoutEvent>,
}

impl Namenode {
    /// Creates a namenode managing `n_nodes` empty datanodes.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is smaller than the replication factor.
    pub fn new(n_nodes: usize, config: DfsConfig) -> Self {
        assert!(config.replication >= 1, "replication must be at least 1");
        assert!(
            n_nodes >= config.replication as usize,
            "cluster of {n_nodes} cannot hold {} replicas",
            config.replication
        );
        Namenode {
            config,
            alive: vec![true; n_nodes],
            chunks: Vec::new(),
            datasets: Vec::new(),
            node_chunks: vec![Vec::new(); n_nodes],
            events: Vec::new(),
        }
    }

    /// Layout events journalled since the last [`Namenode::take_events`]
    /// drain, in mutation order.
    ///
    /// The journal grows with every mutation — one event per created
    /// chunk, two per migrated replica — and only a drain shrinks it. A
    /// long-lived holder that never projects deltas from it must still
    /// call [`Namenode::take_events`] (and drop the result) after each
    /// build or churn step, or it keeps a second copy of the block map.
    pub fn events(&self) -> &[LayoutEvent] {
        &self.events
    }

    /// Drains the event journal: returns every event since the previous
    /// drain and leaves the journal empty. Each consumer window projects
    /// onto its snapshot via
    /// [`LayoutDelta::from_events`](crate::delta::LayoutDelta::from_events).
    pub fn take_events(&mut self) -> Vec<LayoutEvent> {
        std::mem::take(&mut self.events)
    }

    /// Configuration in use.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// Total number of nodes ever registered (alive or not).
    pub fn node_count(&self) -> usize {
        self.alive.len()
    }

    /// Ids of alive nodes, ascending.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.alive
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(NodeId(i as u32)))
            .collect()
    }

    /// Whether a node is alive.
    fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.index()).copied().unwrap_or(false)
    }

    /// Number of chunks across all datasets.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total stored bytes (one copy; multiply by `r` for raw disk usage).
    pub fn total_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.size).sum()
    }

    /// Creates a dataset, placing every chunk under `placement`.
    pub fn create_dataset(
        &mut self,
        spec: &DatasetSpec,
        placement: &Placement,
        rng: &mut StdRng,
    ) -> DatasetId {
        let alive = self.alive_nodes();
        let replication = self.config.replication as usize;
        let mut pool = Vec::new();
        let locations =
            (0..spec.n_chunks()).map(|i| placement.place(i, replication, &alive, rng, &mut pool));
        self.add_dataset(spec, locations)
    }

    /// Registers a dataset whose replica locations were decided elsewhere
    /// (e.g. by the simulated parallel write path). Locations are
    /// validated: the correct replica count, distinct alive nodes.
    ///
    /// # Panics
    ///
    /// Panics on malformed locations — callers produce them from placement
    /// policies, so a violation is a programming error.
    pub fn create_dataset_placed(
        &mut self,
        spec: &DatasetSpec,
        mut locations: Vec<Vec<NodeId>>,
    ) -> DatasetId {
        assert_eq!(
            locations.len(),
            spec.n_chunks(),
            "one location set per chunk"
        );
        for (i, locs) in locations.iter_mut().enumerate() {
            locs.sort_unstable();
            assert_eq!(
                locs.len(),
                self.config.replication as usize,
                "chunk {i} has wrong replica count"
            );
            assert!(
                locs.windows(2).all(|w| w[0] != w[1]),
                "chunk {i} has duplicate replicas"
            );
            for &n in locs.iter() {
                assert!(self.is_alive(n), "chunk {i} placed on dead {n}");
            }
        }
        self.add_dataset(spec, locations.into_iter().map(Replicas::from))
    }

    /// Registers `spec` with one replica set per chunk. The chunk table,
    /// the journal and the dataset's id list grow once, up front, so the
    /// loop allocates nothing per chunk beyond the per-node lists'
    /// amortised growth.
    ///
    /// The table and the journal grow by exactly the dataset: datasets
    /// arrive a few at a time, so one copy each is cheap, while doubling
    /// left up to half of both as capacity nothing used — megabytes once
    /// a namenode holds tens of thousands of chunks.
    fn add_dataset(
        &mut self,
        spec: &DatasetSpec,
        locations: impl Iterator<Item = Replicas>,
    ) -> DatasetId {
        let id = DatasetId(self.datasets.len() as u32);
        let n_chunks = spec.n_chunks();
        self.chunks.reserve_exact(n_chunks);
        self.events.reserve_exact(n_chunks);
        let mut chunk_ids = Vec::with_capacity(n_chunks);
        for (i, (&size, locations)) in spec.chunk_sizes.iter().zip(locations).enumerate() {
            assert!(size > 0, "chunk sizes must be positive");
            let chunk_id = ChunkId(self.chunks.len() as u64);
            for &n in &locations {
                insert_sorted(&mut self.node_chunks[n.index()], chunk_id);
            }
            self.events.push(LayoutEvent::ChunkAdded {
                chunk: chunk_id,
                size,
                locations: locations.clone(),
            });
            self.chunks.push(ChunkMeta {
                id: chunk_id,
                dataset: id,
                index_in_dataset: i,
                size,
                locations,
            });
            chunk_ids.push(chunk_id);
        }
        self.datasets.push(DatasetMeta {
            id,
            name: spec.name.clone(),
            chunks: chunk_ids,
            total_bytes: spec.total_bytes(),
        });
        id
    }

    /// Chunk metadata.
    pub fn chunk(&self, id: ChunkId) -> Result<&ChunkMeta, DfsError> {
        self.chunks
            .get(id.index())
            .ok_or(DfsError::UnknownChunk(id))
    }

    /// Replica locations of a chunk.
    pub fn locate(&self, id: ChunkId) -> Result<&[NodeId], DfsError> {
        Ok(&self.chunk(id)?.locations)
    }

    /// Dataset metadata.
    pub fn dataset(&self, id: DatasetId) -> Result<&DatasetMeta, DfsError> {
        self.datasets
            .get(id.index())
            .ok_or(DfsError::UnknownDataset(id))
    }

    /// All datasets.
    pub fn datasets(&self) -> &[DatasetMeta] {
        &self.datasets
    }

    /// All chunks, in id order.
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// Chunks stored on `node`, ascending by id.
    pub fn chunks_on(&self, node: NodeId) -> Result<&[ChunkId], DfsError> {
        self.node_chunks
            .get(node.index())
            .map(Vec::as_slice)
            .ok_or(DfsError::UnknownNode(node))
    }

    /// Registers a brand-new empty node and returns its id. Existing data is
    /// not rebalanced — exactly the skew the paper says breaks full
    /// matchings.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.alive.len() as u32);
        self.alive.push(true);
        self.node_chunks.push(Vec::new());
        self.events.push(LayoutEvent::NodeJoined { node: id });
        id
    }

    /// Crash-fails a node: it goes down *without* re-replication, leaving
    /// its chunks under-replicated (the state HDFS is in between a
    /// DataNode death and the re-replication scan). Follow with
    /// [`Self::repair_under_replicated`] to restore the target factor.
    ///
    /// # Errors
    ///
    /// Fails when the node is unknown, already down, or holds the last
    /// replica of some chunk (data loss is refused; decommission instead).
    pub fn fail_node(&mut self, node: NodeId) -> Result<(), DfsError> {
        if node.index() >= self.alive.len() {
            return Err(DfsError::UnknownNode(node));
        }
        if !self.alive[node.index()] {
            return Err(DfsError::NodeDown(node));
        }
        // Refuse data loss.
        for &chunk_id in &self.node_chunks[node.index()] {
            if self.chunks[chunk_id.index()].locations.len() == 1 {
                return Err(DfsError::InsufficientNodes {
                    needed: 1,
                    available: 0,
                });
            }
        }
        self.alive[node.index()] = false;
        self.events.push(LayoutEvent::NodeFailed { node });
        let lost: Vec<ChunkId> = std::mem::take(&mut self.node_chunks[node.index()]);
        for chunk_id in lost {
            self.chunks[chunk_id.index()]
                .locations
                .retain(|&n| n != node);
            self.events.push(LayoutEvent::ReplicaDropped {
                chunk: chunk_id,
                node,
            });
        }
        Ok(())
    }

    /// Chunks currently holding fewer than `replication` copies, with
    /// their live replica counts.
    pub fn under_replicated(&self) -> Vec<(ChunkId, usize)> {
        let r = self.config.replication as usize;
        self.chunks
            .iter()
            .filter(|c| c.locations.len() < r)
            .map(|c| (c.id, c.locations.len()))
            .collect()
    }

    /// Re-replicates every under-replicated chunk onto random alive nodes
    /// without a copy, restoring the configured factor. Returns how many
    /// replicas were created.
    ///
    /// # Errors
    ///
    /// Fails when fewer alive nodes exist than the replication factor.
    pub fn repair_under_replicated(&mut self, rng: &mut StdRng) -> Result<usize, DfsError> {
        let alive = self.alive_nodes();
        let r = self.config.replication as usize;
        if alive.len() < r {
            return Err(DfsError::InsufficientNodes {
                needed: r,
                available: alive.len(),
            });
        }
        let mut created = 0usize;
        let todo: Vec<ChunkId> = self
            .chunks
            .iter()
            .filter(|c| c.locations.len() < r)
            .map(|c| c.id)
            .collect();
        for chunk_id in todo {
            while self.chunks[chunk_id.index()].locations.len() < r {
                let chunk = &mut self.chunks[chunk_id.index()];
                let candidates: Vec<NodeId> = alive
                    .iter()
                    .copied()
                    .filter(|n| !chunk.locations.contains(n))
                    .collect();
                let target = *candidates
                    .choose(rng)
                    .expect("alive count >= r guarantees a candidate");
                chunk.locations.insert(target);
                insert_sorted(&mut self.node_chunks[target.index()], chunk_id);
                self.events.push(LayoutEvent::ReplicaAdded {
                    chunk: chunk_id,
                    node: target,
                });
                created += 1;
            }
        }
        Ok(created)
    }

    /// Decommissions a node: its replicas are re-created on random alive
    /// nodes not already holding the chunk.
    ///
    /// # Errors
    ///
    /// Fails when the node is unknown or already down, or when fewer than
    /// `replication` alive nodes would remain.
    pub fn decommission(&mut self, node: NodeId, rng: &mut StdRng) -> Result<(), DfsError> {
        if node.index() >= self.alive.len() {
            return Err(DfsError::UnknownNode(node));
        }
        if !self.alive[node.index()] {
            return Err(DfsError::NodeDown(node));
        }
        let remaining = self.alive_nodes().len() - 1;
        if remaining < self.config.replication as usize {
            return Err(DfsError::InsufficientNodes {
                needed: self.config.replication as usize,
                available: remaining,
            });
        }
        self.alive[node.index()] = false;
        self.events.push(LayoutEvent::NodeFailed { node });
        let moved: Vec<ChunkId> = std::mem::take(&mut self.node_chunks[node.index()]);
        let alive = self.alive_nodes();
        for chunk_id in moved {
            let chunk = &mut self.chunks[chunk_id.index()];
            chunk.locations.retain(|&n| n != node);
            // Re-replicate onto a random alive node without a copy.
            let candidates: Vec<NodeId> = alive
                .iter()
                .copied()
                .filter(|n| !chunk.locations.contains(n))
                .collect();
            let target = *candidates
                .choose(rng)
                .expect("replication <= alive count guarantees a candidate");
            chunk.locations.insert(target);
            insert_sorted(&mut self.node_chunks[target.index()], chunk_id);
            self.events.push(LayoutEvent::ReplicaDropped {
                chunk: chunk_id,
                node,
            });
            self.events.push(LayoutEvent::ReplicaAdded {
                chunk: chunk_id,
                node: target,
            });
        }
        Ok(())
    }

    /// Runs the HDFS-balancer equivalent: while some node stores more
    /// than `threshold` times the mean number of chunks, move one replica
    /// from the most-loaded node to a random node below the mean that
    /// lacks a copy. Returns the number of replicas moved.
    ///
    /// Mirrors `hdfs balancer`'s behaviour at chunk granularity; useful
    /// after writer-local ingest or node addition skews storage.
    ///
    /// # Panics
    ///
    /// Panics if `threshold < 1.0` (the mean is unreachable below itself).
    pub fn rebalance(&mut self, threshold: f64, rng: &mut StdRng) -> usize {
        assert!(threshold >= 1.0, "threshold must be at least 1.0");
        let alive = self.alive_nodes();
        if alive.is_empty() || self.chunks.is_empty() {
            return 0;
        }
        let total_replicas: usize = alive
            .iter()
            .map(|&n| self.node_chunks[n.index()].len())
            .sum();
        let mean = total_replicas as f64 / alive.len() as f64;
        let cap = (mean * threshold).ceil() as usize;
        let mut moved = 0usize;

        // Most loaded node above the cap, recomputed after every move.
        while let Some(&src) = alive
            .iter()
            .filter(|&&n| self.node_chunks[n.index()].len() > cap)
            .max_by_key(|&&n| self.node_chunks[n.index()].len())
        {
            // A chunk on src that some under-mean node lacks.
            let mut candidates: Vec<NodeId> = alive
                .iter()
                .copied()
                .filter(|&n| (self.node_chunks[n.index()].len() as f64) < mean)
                .collect();
            let mut done = false;
            'outer: for k in 0..self.node_chunks[src.index()].len() {
                let chunk_id = self.node_chunks[src.index()][k];
                // Candidates in a uniformly random order, drawn lazily by a
                // partial Fisher–Yates pass: any arrangement the previous
                // chunk left behind is as good a start as a fresh one.
                let len = candidates.len();
                for i in 0..len {
                    candidates.swap(i, rng.gen_range(i..len));
                    let target = candidates[i];
                    if !self.chunks[chunk_id.index()].is_on(target) {
                        // Move chunk replica src -> target.
                        let chunk = &mut self.chunks[chunk_id.index()];
                        chunk.locations.retain(|&n| n != src);
                        chunk.locations.insert(target);
                        self.node_chunks[src.index()].retain(|&c| c != chunk_id);
                        insert_sorted(&mut self.node_chunks[target.index()], chunk_id);
                        self.events.push(LayoutEvent::ReplicaDropped {
                            chunk: chunk_id,
                            node: src,
                        });
                        self.events.push(LayoutEvent::ReplicaAdded {
                            chunk: chunk_id,
                            node: target,
                        });
                        moved += 1;
                        done = true;
                        break 'outer;
                    }
                }
            }
            if !done {
                break; // no legal move remains
            }
        }
        moved
    }

    /// Moves one replica of `chunk` from `from` to `to`, journalling the
    /// paired drop+add. Replica counts are preserved, so the layout stays
    /// within the replication-factor invariant by construction.
    ///
    /// # Errors
    ///
    /// Fails when the chunk or either node is unknown, `to` is down,
    /// `from` holds no replica, or `to` already holds one.
    fn migrate_replica(
        &mut self,
        chunk_id: ChunkId,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), DfsError> {
        if chunk_id.index() >= self.chunks.len() {
            return Err(DfsError::UnknownChunk(chunk_id));
        }
        for node in [from, to] {
            if node.index() >= self.alive.len() {
                return Err(DfsError::UnknownNode(node));
            }
        }
        if !self.alive[to.index()] {
            return Err(DfsError::NodeDown(to));
        }
        if !self.chunks[chunk_id.index()].is_on(from) {
            return Err(DfsError::ReplicaMissing {
                chunk: chunk_id,
                node: from,
            });
        }
        if self.chunks[chunk_id.index()].is_on(to) {
            return Err(DfsError::ReplicaExists {
                chunk: chunk_id,
                node: to,
            });
        }
        let chunk = &mut self.chunks[chunk_id.index()];
        chunk.locations.retain(|&n| n != from);
        chunk.locations.insert(to);
        self.node_chunks[from.index()].retain(|&c| c != chunk_id);
        insert_sorted(&mut self.node_chunks[to.index()], chunk_id);
        self.events.push(LayoutEvent::ReplicaDropped {
            chunk: chunk_id,
            node: from,
        });
        self.events.push(LayoutEvent::ReplicaAdded {
            chunk: chunk_id,
            node: to,
        });
        Ok(())
    }

    /// Applies a *migration-shaped* [`LayoutDelta`] — the recommendations
    /// the placement engine emits — as a sequence of single-replica moves,
    /// each journalled as a paired drop+add, returning how many replicas
    /// moved. This is the replication-factor accounting gate: deltas that
    /// would change replica counts, the file set, or node membership are
    /// rejected whole, and nothing is applied unless every individual
    /// move validates against the current layout.
    ///
    /// # Errors
    ///
    /// Fails with [`DfsError::NotMigrationShaped`] on a delta of the
    /// wrong shape, or with the first per-move error otherwise (in which
    /// case no move has been applied).
    pub fn apply_migrations(&mut self, delta: &LayoutDelta) -> Result<usize, DfsError> {
        let pairs = delta.migration_pairs().ok_or(DfsError::NotMigrationShaped(
            "per-chunk drop and add counts must pair up with no file or node churn",
        ))?;
        // Validate every move before mutating anything: a half-applied
        // recommendation batch would leave the journal describing a
        // layout transition no planner proposed.
        for &(chunk_id, from, to) in &pairs {
            if chunk_id.index() >= self.chunks.len() {
                return Err(DfsError::UnknownChunk(chunk_id));
            }
            for node in [from, to] {
                if node.index() >= self.alive.len() {
                    return Err(DfsError::UnknownNode(node));
                }
            }
            if !self.alive[to.index()] {
                return Err(DfsError::NodeDown(to));
            }
            if !self.chunks[chunk_id.index()].is_on(from) {
                return Err(DfsError::ReplicaMissing {
                    chunk: chunk_id,
                    node: from,
                });
            }
            if self.chunks[chunk_id.index()].is_on(to) {
                return Err(DfsError::ReplicaExists {
                    chunk: chunk_id,
                    node: to,
                });
            }
        }
        let moved = pairs.len();
        for (chunk_id, from, to) in pairs {
            self.migrate_replica(chunk_id, from, to)
                .expect("validated above");
        }
        Ok(moved)
    }

    /// Verifies internal invariants (replica counts, index consistency).
    /// Used by tests and debug assertions; cheap enough for production
    /// sanity checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        for chunk in &self.chunks {
            if chunk.locations.len() != self.config.replication as usize {
                return Err(format!(
                    "{} has {} replicas, expected {}",
                    chunk.id,
                    chunk.locations.len(),
                    self.config.replication
                ));
            }
            if chunk.locations.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("{} locations not sorted/distinct", chunk.id));
            }
            for &n in &chunk.locations {
                if !self.is_alive(n) {
                    return Err(format!("{} replica on dead {}", chunk.id, n));
                }
                if self.node_chunks[n.index()]
                    .binary_search(&chunk.id)
                    .is_err()
                {
                    return Err(format!("{} missing from {}'s index", chunk.id, n));
                }
            }
        }
        for (i, chunks) in self.node_chunks.iter().enumerate() {
            for &c in chunks {
                if !self.chunks[c.index()].is_on(NodeId(i as u32)) {
                    return Err(format!("node-{i} index lists {c} but chunk disagrees"));
                }
            }
        }
        Ok(())
    }
}

fn insert_sorted(v: &mut Vec<ChunkId>, id: ChunkId) {
    // Chunk ids are issued ascending, so a new chunk always appends;
    // only replicas of older chunks (repair, migration) land inside.
    if v.last().map_or(true, |&last| last < id) {
        v.push(id);
        return;
    }
    let pos = v.partition_point(|&x| x < id);
    v.insert(pos, id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD15C)
    }

    fn small_fs() -> (Namenode, DatasetId) {
        let mut nn = Namenode::new(8, DfsConfig::default());
        let mut r = rng();
        let id = nn.create_dataset(
            &DatasetSpec::uniform("data", 32, 64),
            &Placement::Random,
            &mut r,
        );
        (nn, id)
    }

    #[test]
    fn create_dataset_places_all_chunks() {
        let (nn, id) = small_fs();
        let ds = nn.dataset(id).unwrap();
        assert_eq!(ds.chunks.len(), 32);
        assert_eq!(nn.chunk_count(), 32);
        assert_eq!(nn.total_bytes(), 32 * 64);
        nn.check_invariants().unwrap();
    }

    /// Heap bytes the block map holds, from capacities (what the
    /// allocator was asked for), with the journal counted as found.
    fn heap_bytes(nn: &Namenode) -> usize {
        use std::mem::size_of;
        let per_node: usize = nn.node_chunks.iter().map(Vec::capacity).sum();
        let ids: usize = nn.datasets.iter().map(|d| d.chunks.capacity()).sum();
        nn.chunks.capacity() * size_of::<ChunkMeta>()
            + nn.node_chunks.capacity() * size_of::<Vec<ChunkId>>()
            + (per_node + ids) * size_of::<ChunkId>()
            + nn.events.capacity() * size_of::<LayoutEvent>()
    }

    #[test]
    fn datasets_grow_the_chunk_table_and_journal_exactly() {
        // `plan_mix`'s namenode, scaled down: five datasets of unequal
        // size one after another, the journal never drained.
        let mut nn = Namenode::new(32, DfsConfig::default());
        let mut r = rng();
        for (d, n) in [2048, 8192, 960, 320, 320].into_iter().enumerate() {
            let spec = DatasetSpec::uniform(format!("ds{d}"), n, 64);
            nn.create_dataset(&spec, &Placement::Random, &mut r);
            assert_eq!(nn.chunks.capacity(), nn.chunks.len(), "dataset {d}");
            assert_eq!(nn.events.capacity(), nn.events.len(), "dataset {d}");
        }
        nn.check_invariants().unwrap();
    }

    #[test]
    fn block_map_memory_is_per_replica_not_per_cluster_node() {
        // The served world's shape (scaled to 16 datasets) and the
        // simulator's 1024-node scene. At r = 3 no replica list leaves
        // its chunk's table slot, and the whole map stays within a
        // budget that does not depend on the cluster size: 56 B of chunk
        // table, 3 × 8 B of per-node lists (their doubling growth may
        // hold up to twice that) and 8 B of dataset id list per chunk.
        assert_eq!(std::mem::size_of::<LayoutEvent>(), 40);
        for (n_nodes, n_datasets, per_dataset) in [(64, 16, 1280), (1024, 1, 10_240)] {
            let mut nn = Namenode::new(n_nodes, DfsConfig::default());
            let mut r = rng();
            for d in 0..n_datasets {
                let spec = DatasetSpec::uniform(format!("ds{d}"), per_dataset, 64);
                nn.create_dataset(&spec, &Placement::Random, &mut r);
                assert_eq!(nn.take_events().len(), per_dataset, "one event per chunk");
            }
            let n_chunks = n_datasets * per_dataset;
            assert_eq!(nn.chunk_count(), n_chunks);
            assert!(nn.chunks().iter().all(|c| !c.locations.is_spilled()));
            let per_chunk = heap_bytes(&nn) / n_chunks;
            assert!(per_chunk <= 120, "{n_nodes} nodes: {per_chunk} B/chunk");
            nn.check_invariants().unwrap();
        }
    }

    #[test]
    fn chunk_lists_stay_sorted_when_old_chunks_gain_replicas() {
        // New chunks append to the per-node lists; a replica of an older
        // chunk arriving later must still land in id order.
        let (mut nn, id) = small_fs();
        let first = nn.dataset(id).unwrap().chunks[0];
        let to = (0..8)
            .map(NodeId)
            .find(|&n| !nn.chunk(first).unwrap().is_on(n))
            .expect("r=3 on 8 nodes leaves a free node");
        let from = nn.chunk(first).unwrap().locations[0];
        nn.migrate_replica(first, from, to).unwrap();
        assert_eq!(nn.chunks_on(to).unwrap()[0], first);
        nn.check_invariants().unwrap();
        for node in nn.alive_nodes() {
            assert!(nn.chunks_on(node).unwrap().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn locate_returns_three_replicas() {
        let (nn, id) = small_fs();
        for &c in &nn.dataset(id).unwrap().chunks {
            assert_eq!(nn.locate(c).unwrap().len(), 3);
        }
    }

    #[test]
    fn node_index_matches_chunk_locations() {
        let (nn, _) = small_fs();
        for node in nn.alive_nodes() {
            for &c in nn.chunks_on(node).unwrap() {
                assert!(nn.chunk(c).unwrap().is_on(node));
            }
        }
    }

    #[test]
    fn stored_bytes_sum_to_replicated_total() {
        let (nn, _) = small_fs();
        let per_node: u64 = nn
            .alive_nodes()
            .into_iter()
            .flat_map(|n| nn.chunks_on(n).unwrap())
            .map(|&c| nn.chunk(c).unwrap().size)
            .sum();
        assert_eq!(per_node, nn.total_bytes() * 3);
    }

    #[test]
    fn unknown_ids_are_errors() {
        let (nn, _) = small_fs();
        assert!(matches!(
            nn.chunk(ChunkId(999)),
            Err(DfsError::UnknownChunk(_))
        ));
        assert!(matches!(
            nn.dataset(DatasetId(9)),
            Err(DfsError::UnknownDataset(_))
        ));
        assert!(matches!(
            nn.chunks_on(NodeId(99)),
            Err(DfsError::UnknownNode(_))
        ));
    }

    #[test]
    fn add_node_starts_empty() {
        let (mut nn, _) = small_fs();
        let n = nn.add_node();
        assert_eq!(n, NodeId(8));
        assert!(nn.chunks_on(n).unwrap().is_empty());
        assert!(nn.is_alive(n));
        nn.check_invariants().unwrap();
    }

    #[test]
    fn decommission_rereplicates_everything() {
        let (mut nn, _) = small_fs();
        let mut r = rng();
        let victim = NodeId(3);
        let moved = nn.chunks_on(victim).unwrap().len();
        assert!(moved > 0, "seeded placement should hit node 3");
        nn.decommission(victim, &mut r).unwrap();
        assert!(!nn.is_alive(victim));
        nn.check_invariants().unwrap();
        for chunk in nn.chunks() {
            assert!(!chunk.is_on(victim));
            assert_eq!(chunk.locations.len(), 3);
        }
    }

    #[test]
    fn decommission_twice_fails() {
        let (mut nn, _) = small_fs();
        let mut r = rng();
        nn.decommission(NodeId(1), &mut r).unwrap();
        assert!(matches!(
            nn.decommission(NodeId(1), &mut r),
            Err(DfsError::NodeDown(_))
        ));
    }

    #[test]
    fn decommission_below_replication_fails() {
        let mut nn = Namenode::new(3, DfsConfig::default());
        let mut r = rng();
        assert!(matches!(
            nn.decommission(NodeId(0), &mut r),
            Err(DfsError::InsufficientNodes { .. })
        ));
    }

    #[test]
    fn multiple_datasets_get_distinct_chunks() {
        let mut nn = Namenode::new(6, DfsConfig::default());
        let mut r = rng();
        let a = nn.create_dataset(
            &DatasetSpec::uniform("a", 4, 10),
            &Placement::Random,
            &mut r,
        );
        let b = nn.create_dataset(
            &DatasetSpec::uniform("b", 4, 20),
            &Placement::Random,
            &mut r,
        );
        let ca = &nn.dataset(a).unwrap().chunks;
        let cb = &nn.dataset(b).unwrap().chunks;
        assert!(ca.iter().all(|c| !cb.contains(c)));
        assert_eq!(nn.chunk_count(), 8);
        assert_eq!(nn.total_bytes(), 4 * 10 + 4 * 20);
    }

    #[test]
    fn writer_local_placement_respected() {
        let mut nn = Namenode::new(5, DfsConfig::default());
        let mut r = rng();
        let id = nn.create_dataset(
            &DatasetSpec::uniform("w", 10, 64),
            &Placement::WriterLocal { writer: NodeId(2) },
            &mut r,
        );
        for &c in &nn.dataset(id).unwrap().chunks {
            assert!(nn.chunk(c).unwrap().is_on(NodeId(2)));
        }
    }

    #[test]
    fn create_dataset_placed_registers_locations() {
        let mut nn = Namenode::new(5, DfsConfig::default());
        let spec = DatasetSpec::uniform("placed", 2, 64);
        let id = nn.create_dataset_placed(
            &spec,
            vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(2), NodeId(3), NodeId(4)],
            ],
        );
        let chunks = nn.dataset(id).unwrap().chunks.clone();
        assert_eq!(
            nn.locate(chunks[0]).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        nn.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "wrong replica count")]
    fn create_dataset_placed_validates_replicas() {
        let mut nn = Namenode::new(5, DfsConfig::default());
        let spec = DatasetSpec::uniform("bad", 1, 64);
        nn.create_dataset_placed(&spec, vec![vec![NodeId(0)]]);
    }

    #[test]
    fn fail_node_leaves_under_replication_until_repair() {
        let (mut nn, _) = small_fs();
        let mut r = rng();
        let victim = NodeId(2);
        let lost = nn.chunks_on(victim).unwrap().len();
        assert!(lost > 0);
        nn.fail_node(victim).unwrap();
        assert!(!nn.is_alive(victim));
        let under = nn.under_replicated();
        assert_eq!(under.len(), lost, "every lost replica is reported");
        assert!(under.iter().all(|&(_, copies)| copies == 2));
        // Invariant check is expected to FAIL between failure and repair
        // (replica counts below target) — that is the under-replicated
        // state; repair must restore it.
        let created = nn.repair_under_replicated(&mut r).unwrap();
        assert_eq!(created, lost);
        assert!(nn.under_replicated().is_empty());
        nn.check_invariants().unwrap();
        for chunk in nn.chunks() {
            assert!(!chunk.is_on(victim));
        }
    }

    #[test]
    fn fail_node_refuses_data_loss() {
        let mut nn = Namenode::new(3, DfsConfig { replication: 1 });
        let mut r = rng();
        nn.create_dataset(&DatasetSpec::uniform("x", 4, 8), &Placement::Random, &mut r);
        // Some node holds a sole replica; failing it would lose data.
        let holder = nn.chunks().first().unwrap().locations[0];
        assert!(matches!(
            nn.fail_node(holder),
            Err(DfsError::InsufficientNodes { .. })
        ));
        assert!(nn.is_alive(holder), "refused failure leaves the node up");
    }

    #[test]
    fn rebalance_flattens_writer_local_skew() {
        // Writer-local placement piles one replica of everything on node 0.
        let mut nn = Namenode::new(8, DfsConfig::default());
        let mut r = rng();
        nn.create_dataset(
            &DatasetSpec::uniform("skewed", 32, 64),
            &Placement::WriterLocal { writer: NodeId(0) },
            &mut r,
        );
        let before = nn.chunks_on(NodeId(0)).unwrap().len();
        assert_eq!(before, 32, "writer holds a replica of every chunk");
        let moved = nn.rebalance(1.25, &mut r);
        assert!(moved > 0);
        nn.check_invariants().unwrap();
        let after = nn.chunks_on(NodeId(0)).unwrap().len();
        assert!(after < before, "{after} !< {before}");
        // Replica counts preserved.
        for chunk in nn.chunks() {
            assert_eq!(chunk.locations.len(), 3);
        }
        // Post-balance max load within threshold of the mean.
        let mean: f64 = (32.0 * 3.0) / 8.0;
        let max = nn
            .alive_nodes()
            .iter()
            .map(|&n| nn.chunks_on(n).unwrap().len())
            .max()
            .unwrap();
        assert!(max as f64 <= (mean * 1.25).ceil() + 1e-9, "max={max}");
    }

    #[test]
    fn rebalance_is_noop_when_even() {
        let mut nn = Namenode::new(6, DfsConfig::default());
        let mut r = rng();
        nn.create_dataset(
            &DatasetSpec::uniform("even", 12, 8),
            &Placement::RoundRobin,
            &mut r,
        );
        assert_eq!(nn.rebalance(1.5, &mut r), 0);
    }

    #[test]
    fn repair_is_noop_when_healthy() {
        let (mut nn, _) = small_fs();
        let mut r = rng();
        assert_eq!(nn.repair_under_replicated(&mut r).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn rejects_tiny_cluster() {
        let _ = Namenode::new(2, DfsConfig::default());
    }

    #[test]
    fn migrate_replica_preserves_counts_and_journals_the_move() {
        let (mut nn, id) = small_fs();
        nn.take_events();
        let chunk = nn.dataset(id).unwrap().chunks[0];
        let from = nn.chunk(chunk).unwrap().locations[0];
        let to = (0..8)
            .map(NodeId)
            .find(|&n| !nn.chunk(chunk).unwrap().is_on(n))
            .expect("r=3 on 8 nodes leaves a free node");
        nn.migrate_replica(chunk, from, to).unwrap();
        let meta = nn.chunk(chunk).unwrap();
        assert_eq!(meta.locations.len(), 3, "replica count preserved");
        assert!(meta.is_on(to) && !meta.is_on(from));
        nn.check_invariants().unwrap();
        assert_eq!(
            nn.take_events(),
            vec![
                LayoutEvent::ReplicaDropped { chunk, node: from },
                LayoutEvent::ReplicaAdded { chunk, node: to },
            ]
        );
        // Invalid moves are typed errors, not mutations.
        assert_eq!(
            nn.migrate_replica(chunk, from, to),
            Err(DfsError::ReplicaMissing { chunk, node: from })
        );
        let holder = nn.chunk(chunk).unwrap().locations[0];
        assert_eq!(
            nn.migrate_replica(chunk, to, holder),
            Err(DfsError::ReplicaExists {
                chunk,
                node: holder
            })
        );
    }

    #[test]
    fn apply_migrations_is_all_or_nothing() {
        let (mut nn, id) = small_fs();
        nn.take_events();
        let chunks = nn.dataset(id).unwrap().chunks.clone();
        let free_node = |nn: &Namenode, c: ChunkId| {
            (0..8)
                .map(NodeId)
                .find(|&n| !nn.chunk(c).unwrap().is_on(n))
                .expect("free node exists")
        };
        let good = (
            chunks[0],
            nn.chunk(chunks[0]).unwrap().locations[0],
            free_node(&nn, chunks[0]),
        );
        // A migration delta built from valid moves applies whole.
        let delta = LayoutDelta::migrations(&[good]);
        assert_eq!(nn.apply_migrations(&delta).unwrap(), 1);
        nn.check_invariants().unwrap();

        // A batch containing one bad move applies nothing.
        let before = nn.chunk(chunks[1]).unwrap().clone();
        let locs = nn.chunk(chunks[2]).unwrap().locations.clone();
        let bad = LayoutDelta::migrations(&[
            (
                chunks[1],
                nn.chunk(chunks[1]).unwrap().locations[0],
                free_node(&nn, chunks[1]),
            ),
            // Target already holds a replica: the whole batch must fail.
            (chunks[2], locs[0], locs[1]),
        ]);
        assert!(nn.apply_migrations(&bad).is_err());
        assert_eq!(nn.chunk(chunks[1]).unwrap(), &before, "nothing applied");

        // Count-changing deltas are rejected as not migration-shaped.
        let lopsided = LayoutDelta {
            replicas_added: vec![(chunks[3], free_node(&nn, chunks[3]))],
            ..Default::default()
        };
        assert_eq!(
            nn.apply_migrations(&lopsided),
            Err(DfsError::NotMigrationShaped(
                "per-chunk drop and add counts must pair up with no file or node churn",
            ))
        );
    }
}
