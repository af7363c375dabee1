//! Layout snapshots — what Opass retrieves from the namenode.
//!
//! A [`LayoutSnapshot`] is an immutable copy of the chunk→locations map for
//! a set of chunks of interest, decoupling the optimizer from namenode
//! mutations (the real system would fetch this over RPC via
//! `getFileBlockLocations`). It also provides the inverse co-location view
//! (the chunks on one node).
//!
//! Snapshots are copy-on-write: `clone` hands out another handle to the
//! same entries, and the entries are copied at most once per divergence —
//! when a handle that still shares them applies a non-empty delta. A
//! single-data planning session builds its locality graph from a
//! snapshot and keeps no handle on it: the graph is its layout from
//! then on, and a [`ChunkIndex`] advanced by [`ChunkIndex::apply_scope`]
//! maps the chunk ids of later deltas onto its file indices.

use crate::delta::LayoutDelta;
use crate::ids::{ChunkId, NodeId};
use crate::namenode::Namenode;
use crate::placement::floyd_sample;
use crate::replicas::Replicas;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One chunk's layout entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkLayout {
    /// The chunk.
    pub chunk: ChunkId,
    /// Size in bytes.
    pub size: u64,
    /// Replica holders, sorted.
    pub locations: Replicas,
}

impl ChunkLayout {
    /// `chunk`'s current row in the namenode.
    ///
    /// # Panics
    ///
    /// Panics on an unknown chunk id.
    pub(crate) fn of(namenode: &Namenode, chunk: ChunkId) -> Self {
        let meta = namenode.chunk(chunk).expect("chunk must exist");
        ChunkLayout {
            chunk,
            size: meta.size,
            locations: meta.locations.clone(),
        }
    }
}

/// Immutable layout of a set of chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutSnapshot {
    /// Shared between clones until one of them applies a delta.
    entries: Arc<Vec<ChunkLayout>>,
}

/// Chunk-id → entry-index map maintained *across* deltas.
///
/// [`LayoutSnapshot::apply_delta`] rebuilds this map from scratch on
/// every call — fine for one-shot use, O(n) per step for a session
/// replaying a long churn stream. A long-lived holder keeps one
/// `ChunkIndex` alive instead and advances it with
/// [`ChunkIndex::apply_scope`] — alongside its snapshot through
/// [`LayoutSnapshot::apply_delta_indexed`], or on its own where no
/// snapshot is kept (a planning session) — paying nothing for replica
/// churn and work in the number of runs, not entries, for scope
/// changes.
///
/// Datasets get their chunk ids consecutively and snapshots list them
/// in that order, so the map is stored as runs: a snapshot captured in
/// dataset order is one run, whatever its size. A shuffled snapshot
/// degrades to one run per entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkIndex {
    /// Maximal runs, disjoint in chunk id and sorted by it. A chunk the
    /// snapshot lists more than once is here with its last entry.
    runs: Vec<Run>,
    /// The earlier entries of chunks listed more than once, sorted.
    shadowed: Vec<(ChunkId, usize)>,
}

/// `len` entries starting at index `first_index` whose chunk ids count
/// up from `first_id` one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    first_id: ChunkId,
    first_index: u32,
    len: u32,
}

impl Run {
    /// The chunk id of the run's last entry (runs are never empty).
    fn last_id(&self) -> u64 {
        self.first_id.0 + u64::from(self.len - 1)
    }

    /// Whether `next` carries on where this run ends, in both chunk id
    /// and entry index.
    fn continues_into(&self, next: &Run) -> bool {
        self.last_id().checked_add(1) == Some(next.first_id.0)
            && self.first_index + self.len == next.first_index
    }

    /// The run of `len` chunks from `first_id`, at entry `first_index`.
    fn at(first_id: u64, first_index: u32, len: u32) -> Run {
        Run {
            first_id: ChunkId(first_id),
            first_index,
            len,
        }
    }
}

/// Folds `(chunk, index)` pairs into maximal runs; a pair that does not
/// continue the last run in both chunk id and index opens the next one.
fn push_run(runs: &mut Vec<Run>, chunk: ChunkId, index: usize) {
    let index = u32::try_from(index).expect("entry index fits u32");
    let pair = Run::at(chunk.0, index, 1);
    match runs.last_mut() {
        Some(run) if run.continues_into(&pair) => run.len += 1,
        _ => runs.push(pair),
    }
}

/// Merges every run into its predecessor when it carries on where that
/// one ends, leaving the runs maximal again after an edit.
fn coalesce(runs: &mut Vec<Run>) {
    runs.dedup_by(|next, run| {
        let merge = run.continues_into(next);
        if merge {
            run.len += next.len;
        }
        merge
    });
}

impl ChunkIndex {
    /// Builds the index for `snapshot`. When the snapshot holds the same
    /// chunk id twice (two tasks reading one chunk), [`ChunkIndex::get`]
    /// resolves to the later entry and [`ChunkIndex::indices_of`] to all
    /// of them.
    pub fn build(snapshot: &LayoutSnapshot) -> Self {
        let entries = snapshot.entries();
        let mut runs = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            push_run(&mut runs, e.chunk, i);
        }
        if runs.windows(2).all(|w| w[0].last_id() < w[1].first_id.0) {
            // Ascending chunk ids, the order datasets are captured in:
            // the runs are already disjoint and sorted.
            return ChunkIndex {
                runs,
                shadowed: Vec::new(),
            };
        }
        let mut pairs: Vec<(ChunkId, usize)> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.chunk, i))
            .collect();
        pairs.sort_unstable();
        let mut index = ChunkIndex::default();
        for (k, &(chunk, i)) in pairs.iter().enumerate() {
            if pairs.get(k + 1).is_some_and(|next| next.0 == chunk) {
                index.shadowed.push((chunk, i));
            } else {
                push_run(&mut index.runs, chunk, i);
            }
        }
        index
    }

    /// Entry index of `chunk` in the tracked snapshot, if present (the
    /// last one when the snapshot lists the chunk more than once).
    pub fn get(&self, chunk: ChunkId) -> Option<usize> {
        let after = self.runs.partition_point(|r| r.first_id <= chunk);
        let run = self.runs[..after].last()?;
        (chunk.0 <= run.last_id())
            .then(|| (u64::from(run.first_index) + chunk.0 - run.first_id.0) as usize)
    }

    /// Every entry index holding `chunk`, ascending. Replica churn on a
    /// chunk has to reach all of them.
    pub fn indices_of(&self, chunk: ChunkId) -> impl Iterator<Item = usize> + '_ {
        let from = self.shadowed.partition_point(|&(c, _)| c < chunk);
        self.shadowed[from..]
            .iter()
            .take_while(move |&&(c, _)| c == chunk)
            .map(|&(_, i)| i)
            .chain(self.get(chunk))
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        let in_runs: usize = self.runs.iter().map(|r| r.len as usize).sum();
        in_runs + self.shadowed.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Advances the index past a normalized delta's scope changes, with
    /// no entries to read: every entry of a removed chunk leaves and the
    /// entries after it move down, then each added chunk is appended in
    /// delta order. Replica changes move no entry. Leaves the index
    /// exactly as [`ChunkIndex::build`] would make it for the advanced
    /// snapshot.
    pub fn apply_scope(&mut self, delta: &LayoutDelta) {
        if !delta.files_removed.is_empty() {
            self.remove(&delta.files_removed);
        }
        for (index, e) in (self.len()..).zip(&delta.files_added) {
            self.append(e.chunk, index);
        }
    }

    /// Drops every entry of the `gone` chunks (ascending) and closes the
    /// holes: an entry moves down by the number of removed entries
    /// before it. A run is cut at its removed chunks; no removed entry
    /// lies inside a piece, so each piece moves as one.
    fn remove(&mut self, gone: &[ChunkId]) {
        let mut holes: Vec<u32> = gone
            .iter()
            .flat_map(|&c| self.indices_of(c))
            .map(|i| i as u32)
            .collect();
        if holes.is_empty() {
            return;
        }
        holes.sort_unstable();
        let moved = |i: u32| i - holes.partition_point(|&h| h < i) as u32;
        let mut runs = Vec::with_capacity(self.runs.len() + gone.len());
        for run in &self.runs {
            let (first, last) = (run.first_id.0, run.last_id());
            let cut = gone.partition_point(|c| c.0 < first);
            let mut from = first;
            for c in gone[cut..].iter().map(|c| c.0).take_while(|&c| c <= last) {
                if c > from {
                    let index = run.first_index + (from - first) as u32;
                    runs.push(Run::at(from, moved(index), (c - from) as u32));
                }
                from = c + 1;
            }
            if from <= last {
                let index = run.first_index + (from - first) as u32;
                runs.push(Run::at(from, moved(index), (last + 1 - from) as u32));
            }
        }
        coalesce(&mut runs);
        self.runs = runs;
        self.shadowed
            .retain(|(c, _)| gone.binary_search(c).is_err());
        for (_, i) in &mut self.shadowed {
            *i = moved(*i as u32) as usize;
        }
    }

    /// Indexes a new entry of `chunk` at `index`, past every entry. A
    /// chunk already indexed keeps its old entry as shadowed, and its run
    /// is cut around it.
    fn append(&mut self, chunk: ChunkId, index: usize) {
        let pair = Run::at(
            chunk.0,
            u32::try_from(index).expect("entry index fits u32"),
            1,
        );
        let at = self.runs.partition_point(|r| r.first_id <= chunk);
        match self.runs[..at].last().copied() {
            Some(run) if chunk.0 <= run.last_id() => {
                let offset = (chunk.0 - run.first_id.0) as u32;
                let old = (chunk, (run.first_index + offset) as usize);
                let slot = self.shadowed.partition_point(|&s| s < old);
                self.shadowed.insert(slot, old);
                let below = Run::at(run.first_id.0, run.first_index, offset);
                let above = Run::at(
                    chunk.0 + 1,
                    run.first_index + offset + 1,
                    run.len - offset - 1,
                );
                let pieces = [below, pair, above].into_iter().filter(|r| r.len > 0);
                self.runs.splice(at - 1..at, pieces);
            }
            _ => self.runs.insert(at, pair),
        }
        coalesce(&mut self.runs);
    }
}

impl LayoutSnapshot {
    /// Captures the layout of `chunks` from the namenode, in the given
    /// order (the order defines the task indexing downstream).
    ///
    /// # Panics
    ///
    /// Panics on unknown chunk ids — snapshots are taken from ids the
    /// namenode itself returned.
    pub fn capture(namenode: &Namenode, chunks: &[ChunkId]) -> Self {
        chunks
            .iter()
            .map(|&c| ChunkLayout::of(namenode, c))
            .collect()
    }

    /// Entries in capture order.
    pub fn entries(&self) -> &[ChunkLayout] {
        &self.entries
    }

    /// Number of chunks in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when both handles still share one copy of the entries: one
    /// is a clone of the other and neither has applied a non-empty delta
    /// since. Equal snapshots captured separately do not share.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// Sizes in capture order (the task demand vector).
    pub fn sizes(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.size).collect()
    }

    /// Total bytes in the snapshot.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }

    /// Chunk indices (into this snapshot) co-located with `node`, with
    /// their sizes — the raw material for locality edges.
    pub fn colocated_with(&self, node: NodeId) -> Vec<(usize, u64)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.locations.binary_search(&node).is_ok())
            .map(|(i, e)| (i, e.size))
            .collect()
    }

    /// Advances the snapshot by a normalized [`LayoutDelta`] without
    /// re-walking the namenode: O(|delta| + n) instead of O(n · r) chunk
    /// lookups.
    ///
    /// Semantics, in order: failed nodes lose every replica they held;
    /// net replica drops and adds apply to surviving entries; removed
    /// chunks leave (order of the remaining entries is preserved, so
    /// surviving task indices compact predictably); added chunks append
    /// in the delta's order. Changes referring to chunks outside the
    /// snapshot are ignored — deltas may be projected from a wider scope.
    ///
    /// Determinism: a pure function of `(self, delta)`; equal inputs
    /// yield byte-identical snapshots.
    pub fn apply_delta(&mut self, delta: &LayoutDelta) {
        let mut index = ChunkIndex::build(self);
        self.apply_delta_indexed(delta, &mut index);
    }

    /// [`apply_delta`](Self::apply_delta) with a caller-maintained
    /// [`ChunkIndex`], for holders replaying long churn streams (a
    /// multi-data session): the per-call index rebuild disappears, and
    /// `index` comes out tracking the advanced snapshot (ready for the
    /// next delta). The index must have been built from — or advanced
    /// alongside — this snapshot.
    pub fn apply_delta_indexed(&mut self, delta: &LayoutDelta, index: &mut ChunkIndex) {
        debug_assert_eq!(
            index.len(),
            self.entries.len(),
            "index must track this snapshot"
        );
        if delta.is_empty() {
            return;
        }
        // The one place a snapshot diverges from the handles it was
        // cloned from: entries are copied here iff they are still shared.
        let entries = Arc::make_mut(&mut self.entries);
        if !delta.nodes_failed.is_empty() {
            for entry in entries.iter_mut() {
                entry
                    .locations
                    .retain(|n| delta.nodes_failed.binary_search(n).is_err());
            }
        }
        for &(chunk, node) in &delta.replicas_dropped {
            for i in index.indices_of(chunk) {
                entries[i].locations.retain(|&n| n != node);
            }
        }
        for &(chunk, node) in &delta.replicas_added {
            for i in index.indices_of(chunk) {
                entries[i].locations.insert(node);
            }
        }
        if !delta.files_removed.is_empty() {
            entries.retain(|e| delta.files_removed.binary_search(&e.chunk).is_err());
        }
        entries.extend(delta.files_added.iter().cloned());
        index.apply_scope(delta);
    }

    /// Bytes stored per node among the snapshot's chunks, indexed by raw
    /// node id (`n_nodes` sizes the vector).
    pub fn bytes_per_node(&self, n_nodes: usize) -> Vec<u64> {
        let mut out = vec![0u64; n_nodes];
        for e in self.entries.iter() {
            for &n in &e.locations {
                out[n.index()] += e.size;
            }
        }
        out
    }
}

/// Each dataset's layout as a namenode of `n_nodes` nodes would hold it
/// after creating one uniform dataset per `(chunks, chunk size)` of
/// `datasets` with [`Random`](crate::Placement::Random) placement and
/// one RNG seeded with `seed`, drawn without the namenode: the same
/// Floyd draws, straight into each chunk's replica set, chunk ids
/// consecutive across datasets. How a world that only plans gets its
/// layouts. Panics where the namenode path panics, with the same
/// messages.
pub fn seeded_layouts(
    n_nodes: usize,
    replication: u32,
    seed: u64,
    datasets: impl IntoIterator<Item = (usize, u64)>,
) -> impl Iterator<Item = LayoutSnapshot> {
    assert!(replication >= 1, "replication must be at least 1");
    assert!(
        n_nodes >= replication as usize,
        "cluster of {n_nodes} cannot hold {replication} replicas"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u64;
    datasets.into_iter().map(move |(n_chunks, chunk_size)| {
        assert!(chunk_size > 0, "chunk size must be positive");
        let first = next_id;
        next_id += n_chunks as u64;
        (0..n_chunks)
            .map(|j| ChunkLayout {
                chunk: ChunkId(first + j as u64),
                size: chunk_size,
                locations: floyd_sample(n_nodes, replication as usize, &mut rng, |i| {
                    NodeId(i as u32)
                }),
            })
            .collect()
    })
}

/// A snapshot of exactly these entries, in iteration order — for layouts
/// that were never in a namenode, such as a served world drawn straight
/// from its spec. An iterator of known length allocates the entries once,
/// at their exact size.
impl FromIterator<ChunkLayout> for LayoutSnapshot {
    fn from_iter<I: IntoIterator<Item = ChunkLayout>>(iter: I) -> Self {
        LayoutSnapshot {
            entries: Arc::new(iter.into_iter().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::DatasetSpec;
    use crate::namenode::DfsConfig;
    use crate::placement::Placement;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn setup() -> (Namenode, Vec<ChunkId>) {
        let mut nn = Namenode::new(6, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let id = nn.create_dataset(
            &DatasetSpec::uniform("d", 12, 64),
            &Placement::Random,
            &mut rng,
        );
        let chunks = nn.dataset(id).unwrap().chunks.clone();
        (nn, chunks)
    }

    #[test]
    fn capture_preserves_order_and_sizes() {
        let (nn, chunks) = setup();
        let snap = LayoutSnapshot::capture(&nn, &chunks);
        assert_eq!(snap.len(), 12);
        assert!(!snap.is_empty());
        assert_eq!(snap.total_bytes(), 12 * 64);
        for (i, e) in snap.entries().iter().enumerate() {
            assert_eq!(e.chunk, chunks[i]);
            assert_eq!(e.size, 64);
            assert_eq!(e.locations.len(), 3);
        }
    }

    #[test]
    fn colocated_matches_namenode_view() {
        let (nn, chunks) = setup();
        let snap = LayoutSnapshot::capture(&nn, &chunks);
        for node in nn.alive_nodes() {
            let from_snap: Vec<ChunkId> = snap
                .colocated_with(node)
                .into_iter()
                .map(|(i, _)| chunks[i])
                .collect();
            let from_nn: Vec<ChunkId> = nn
                .chunks()
                .iter()
                .zip(0..)
                .filter(|(c, _)| c.is_on(node))
                .map(|(_, i)| ChunkId(i))
                .collect();
            assert_eq!(from_snap, from_nn, "{node}");
        }
    }

    #[test]
    fn bytes_per_node_sums_to_replicated_total() {
        let (nn, chunks) = setup();
        let snap = LayoutSnapshot::capture(&nn, &chunks);
        let total: u64 = snap.bytes_per_node(nn.node_count()).iter().sum();
        assert_eq!(total, snap.total_bytes() * 3);
    }

    #[test]
    fn apply_delta_tracks_namenode_churn_exactly() {
        // Capture, churn the namenode (failure, repair, decommission,
        // node add, rebalance), project the journal, apply — the advanced
        // snapshot must equal a fresh capture.
        let (mut nn, chunks) = setup();
        let mut snap = LayoutSnapshot::capture(&nn, &chunks);
        nn.take_delta(|_| false); // settle: the snapshot has the creation
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        nn.fail_node(NodeId(1)).unwrap();
        nn.repair_under_replicated(&mut rng).unwrap();
        nn.add_node();
        nn.decommission(NodeId(4), &mut rng).unwrap();
        nn.rebalance(1.25, &mut rng);
        let scope: std::collections::BTreeSet<ChunkId> = chunks.iter().copied().collect();
        let delta = nn.take_delta(|c| scope.contains(&c));
        assert!(nn.events().is_empty(), "drain empties the journal");
        assert!(!delta.is_empty());
        snap.apply_delta(&delta);
        assert_eq!(snap, LayoutSnapshot::capture(&nn, &chunks));
    }

    #[test]
    fn take_delta_projects_chunks_born_and_churned_in_one_window() {
        // One window creates a dataset, fails a node, repairs,
        // decommissions and migrates a replica of a chunk born in it:
        // the born chunks arrive with their current rows, churn on the
        // older ones as net replica changes.
        let (mut nn, old) = setup();
        let mut snap = LayoutSnapshot::capture(&nn, &old);
        nn.take_delta(|_| false);
        let mut rng = StdRng::seed_from_u64(0xB0A7);
        let id = nn.create_dataset(
            &DatasetSpec::uniform("born", 8, 32),
            &Placement::Random,
            &mut rng,
        );
        let born = nn.dataset(id).unwrap().chunks.clone();
        nn.fail_node(NodeId(2)).unwrap();
        nn.repair_under_replicated(&mut rng).unwrap();
        nn.decommission(NodeId(5), &mut rng).unwrap();
        let from = nn.chunk(born[0]).unwrap().locations[0];
        let to = nn
            .alive_nodes()
            .into_iter()
            .find(|&n| !nn.chunk(born[0]).unwrap().is_on(n))
            .expect("r = 3 on 4 alive nodes leaves one free");
        nn.apply_migrations(&LayoutDelta::migration(born[0], from, to))
            .unwrap();
        assert!(!nn.events().is_empty());

        let all: Vec<ChunkId> = old.iter().chain(&born).copied().collect();
        let delta = nn.take_delta(|_| true);
        let added: Vec<ChunkId> = delta.files_added.iter().map(|e| e.chunk).collect();
        assert_eq!(added, born);
        assert!(delta
            .replicas_added
            .iter()
            .chain(&delta.replicas_dropped)
            .all(|(c, _)| old.contains(c)));
        assert_eq!(delta.nodes_failed, vec![NodeId(2), NodeId(5)]);
        snap.apply_delta(&delta);
        assert_eq!(snap, LayoutSnapshot::capture(&nn, &all));

        // An empty window gives an empty delta, in scope or not.
        assert!(nn.take_delta(|_| true).is_empty());
        assert!(nn.events().is_empty());
    }

    #[test]
    fn apply_delta_handles_scope_changes() {
        let (nn, chunks) = setup();
        let mut snap = LayoutSnapshot::capture(&nn, &chunks);
        let delta = crate::delta::LayoutDelta {
            files_removed: vec![chunks[3], chunks[7]],
            files_added: vec![ChunkLayout {
                chunk: ChunkId(999),
                size: 32,
                locations: vec![NodeId(0), NodeId(2)].into(),
            }],
            ..Default::default()
        };
        snap.apply_delta(&delta);
        assert_eq!(snap.len(), 11);
        // Survivors keep their relative order; the new chunk appends.
        let ids: Vec<ChunkId> = snap.entries().iter().map(|e| e.chunk).collect();
        let mut expected: Vec<ChunkId> = chunks
            .iter()
            .copied()
            .filter(|&c| c != chunks[3] && c != chunks[7])
            .collect();
        expected.push(ChunkId(999));
        assert_eq!(ids, expected);
    }

    #[test]
    fn apply_delta_indexed_matches_per_call_rebuild() {
        // Replay a mixed stream through both entry points: the
        // maintained index must stay in lockstep with fresh rebuilds and
        // both snapshots must stay byte-identical.
        let (nn, chunks) = setup();
        let mut plain = LayoutSnapshot::capture(&nn, &chunks);
        let mut indexed = plain.clone();
        let mut index = ChunkIndex::build(&indexed);
        let deltas = vec![
            LayoutDelta {
                replicas_dropped: vec![(chunks[0], plain.entries()[0].locations[0])],
                replicas_added: vec![(chunks[1], NodeId(5))],
                ..Default::default()
            },
            LayoutDelta {
                files_removed: vec![chunks[2], chunks[9]],
                files_added: vec![ChunkLayout {
                    chunk: ChunkId(500),
                    size: 16,
                    locations: vec![NodeId(1)].into(),
                }],
                ..Default::default()
            },
            LayoutDelta {
                nodes_failed: vec![NodeId(3)],
                replicas_added: vec![(ChunkId(500), NodeId(0)), (ChunkId(999), NodeId(2))],
                ..Default::default()
            },
        ];
        for delta in &deltas {
            let mut delta = delta.clone();
            delta.normalize();
            plain.apply_delta(&delta);
            indexed.apply_delta_indexed(&delta, &mut index);
            assert_eq!(plain, indexed);
            assert_eq!(index, ChunkIndex::build(&indexed), "index tracks snapshot");
        }
        assert_eq!(index.len(), indexed.len());
        assert!(!index.is_empty());
        assert_eq!(index.get(ChunkId(500)), Some(indexed.len() - 1));
        assert_eq!(index.get(chunks[2]), None);
    }

    fn snapshot_of(ids: &[u64]) -> LayoutSnapshot {
        ids.iter()
            .map(|&c| ChunkLayout {
                chunk: ChunkId(c),
                size: 8,
                locations: vec![NodeId(0)].into(),
            })
            .collect()
    }

    /// Checks `index` against the map the old `BTreeMap` index was:
    /// last entry per chunk for `get`, every entry for `indices_of`.
    fn assert_index_matches_oracle(index: &ChunkIndex, snap: &LayoutSnapshot, probe_to: u64) {
        let mut oracle: BTreeMap<ChunkId, Vec<usize>> = BTreeMap::new();
        for (i, e) in snap.entries().iter().enumerate() {
            oracle.entry(e.chunk).or_default().push(i);
        }
        for c in (0..probe_to).map(ChunkId) {
            let all = oracle.get(&c).cloned().unwrap_or_default();
            assert_eq!(index.get(c), all.last().copied(), "{c}");
            assert_eq!(index.indices_of(c).collect::<Vec<_>>(), all, "{c}");
        }
        assert_eq!(index.len(), snap.len());
        assert_eq!(index.is_empty(), snap.is_empty());
        assert_eq!(index, &ChunkIndex::build(snap), "one form per snapshot");
    }

    #[test]
    fn dataset_ordered_snapshots_index_as_one_run() {
        let (nn, chunks) = setup();
        let snap = LayoutSnapshot::capture(&nn, &chunks);
        let index = ChunkIndex::build(&snap);
        assert_eq!((index.runs.len(), index.shadowed.len()), (1, 0));
        assert_index_matches_oracle(&index, &snap, 20);
        assert_index_matches_oracle(&ChunkIndex::default(), &snapshot_of(&[]), 4);
    }

    #[test]
    fn chunk_index_matches_a_map_oracle_through_random_scope_churn() {
        // Snapshots in dataset order, shuffled, and with chunks listed
        // twice, each advanced by random removals and additions (fresh
        // ids past the end, ids reused, ids already present).
        let mut rng = StdRng::seed_from_u64(0x1DE5);
        for case in 0..60 {
            let n = rng.gen_range(0..40u64);
            let mut ids: Vec<u64> = (10..10 + n).collect();
            if case % 3 >= 1 {
                ids.shuffle(&mut rng);
            }
            if case % 3 == 2 {
                for _ in 0..rng.gen_range(1..6) {
                    ids.push(rng.gen_range(10..12 + n));
                }
            }
            let mut snap = snapshot_of(&ids);
            let mut index = ChunkIndex::build(&snap);
            if case % 3 == 0 {
                assert!(index.runs.len() <= 1 && index.shadowed.is_empty());
            }
            assert_index_matches_oracle(&index, &snap, 80);
            for _ in 0..6 {
                let mut delta = LayoutDelta::default();
                for _ in 0..rng.gen_range(0..4) {
                    delta.files_removed.push(ChunkId(rng.gen_range(8..70)));
                }
                for _ in 0..rng.gen_range(0..4) {
                    let past_end = snap.entries().iter().map(|e| e.chunk.0 + 1).max();
                    let chunk = match rng.gen_range(0..3) {
                        0 => rng.gen_range(8..70),
                        _ => past_end.unwrap_or(10) + delta.files_added.len() as u64,
                    };
                    delta.files_added.push(ChunkLayout {
                        chunk: ChunkId(chunk),
                        size: 8,
                        locations: vec![NodeId(1)].into(),
                    });
                }
                delta.files_removed.sort_unstable();
                delta.files_removed.dedup();
                snap.apply_delta_indexed(&delta, &mut index);
                assert_index_matches_oracle(&index, &snap, 80);
            }
        }
    }

    #[test]
    fn replica_churn_reaches_every_entry_of_a_chunk_listed_twice() {
        let (nn, mut chunks) = setup();
        chunks.push(chunks[0]);
        let mut snap = LayoutSnapshot::capture(&nn, &chunks);
        let gone = snap.entries()[0].locations[0];
        let delta = LayoutDelta {
            replicas_dropped: vec![(chunks[0], gone)],
            replicas_added: vec![(chunks[0], NodeId(77))],
            ..Default::default()
        };
        snap.apply_delta(&delta);
        for i in [0, 12] {
            assert!(!snap.entries()[i].locations.contains(&gone), "entry {i}");
            assert!(
                snap.entries()[i].locations.contains(&NodeId(77)),
                "entry {i}"
            );
        }
        assert_eq!(snap.entries()[0], snap.entries()[12]);
    }

    #[test]
    fn clones_share_entries_until_a_delta_diverges_them() {
        let (nn, chunks) = setup();
        let original = LayoutSnapshot::capture(&nn, &chunks);
        let reference = LayoutSnapshot::capture(&nn, &chunks);
        assert!(
            !original.ptr_eq(&reference),
            "separate captures are equal, not shared"
        );
        let mut advanced = original.clone();
        assert!(advanced.ptr_eq(&original), "clone is another handle");

        // An empty delta changes nothing, so nothing is copied.
        advanced.apply_delta(&LayoutDelta::default());
        let mut index = ChunkIndex::build(&advanced);
        advanced.apply_delta_indexed(&LayoutDelta::default(), &mut index);
        assert!(advanced.ptr_eq(&original));

        // The first real delta copies; the other handle never notices.
        let victim = original.entries()[0].locations[0];
        let delta = LayoutDelta {
            replicas_dropped: vec![(chunks[0], victim)],
            ..Default::default()
        };
        advanced.apply_delta_indexed(&delta, &mut index);
        assert!(!advanced.ptr_eq(&original));
        assert_eq!(original, reference, "the shared handle is unchanged");
        assert!(!advanced.entries()[0].locations.contains(&victim));
        assert_eq!(advanced.entries()[1..], original.entries()[1..]);

        // Once unshared, further deltas mutate in place: a handle taken
        // now diverges again only at its own next delta.
        let later = advanced.clone();
        assert!(later.ptr_eq(&advanced));
    }

    #[test]
    fn apply_delta_ignores_out_of_scope_changes() {
        let (nn, chunks) = setup();
        let mut snap = LayoutSnapshot::capture(&nn, &chunks);
        let before = snap.clone();
        let delta = crate::delta::LayoutDelta {
            replicas_added: vec![(ChunkId(998), NodeId(0))],
            replicas_dropped: vec![(ChunkId(997), NodeId(1))],
            ..Default::default()
        };
        snap.apply_delta(&delta);
        assert_eq!(snap, before);
    }

    #[test]
    fn seeded_layouts_are_the_namenode_captures() {
        // Datasets of unequal sizes and chunk sizes, an empty one among
        // them, as a trace replay sizes its world.
        for (n_nodes, replication, seed) in [(16, 3, 7), (5, 5, 1), (9, 1, 0x7ACE)] {
            let datasets = [(40, 64u64), (1, 8), (0, 3), (17, 1 << 20)];
            let mut nn = Namenode::new(n_nodes, DfsConfig { replication });
            let mut rng = StdRng::seed_from_u64(seed);
            for (d, &(n_chunks, size)) in datasets.iter().enumerate() {
                let spec = DatasetSpec::uniform(format!("ds{d}"), n_chunks, size);
                nn.create_dataset(&spec, &Placement::Random, &mut rng);
            }
            let drawn: Vec<LayoutSnapshot> =
                seeded_layouts(n_nodes, replication, seed, datasets).collect();
            assert_eq!(drawn.len(), datasets.len());
            for (meta, layout) in nn.datasets().iter().zip(&drawn) {
                assert_eq!(layout, &LayoutSnapshot::capture(&nn, &meta.chunks));
            }
        }
    }

    #[test]
    fn snapshot_is_immune_to_later_mutations() {
        let (mut nn, chunks) = setup();
        let snap = LayoutSnapshot::capture(&nn, &chunks);
        let before = snap.entries()[0].locations.clone();
        let mut rng = StdRng::seed_from_u64(9);
        nn.decommission(before[0], &mut rng).unwrap();
        assert_eq!(
            snap.entries()[0].locations,
            before,
            "snapshot must not change"
        );
    }
}
