//! Layout deltas — the namenode's change feed for incremental re-planning.
//!
//! A [`LayoutEvent`] is one journal entry describing a single layout
//! mutation (a replica created or dropped, a chunk created, a node joining
//! or leaving service). The namenode appends events as its mutation
//! methods run; a planner drains them with
//! [`Namenode::take_events`](crate::Namenode::take_events) and projects
//! them onto the snapshot it planned against with
//! [`LayoutDelta::from_events`], yielding a [`LayoutDelta`]: the net,
//! canonically ordered difference between that snapshot and the current
//! layout. [`LayoutSnapshot::apply_delta`](crate::LayoutSnapshot::apply_delta)
//! then advances the snapshot without re-walking the namenode, and the
//! matching layer repairs its solution from the same delta.
//!
//! Determinism: a delta is always *normalized* — every list sorted and
//! deduplicated, replica changes reduced to their net effect — so equal
//! event sequences produce byte-identical deltas regardless of how the
//! events interleaved.

use crate::ids::{ChunkId, NodeId};
use crate::layout::ChunkLayout;
use crate::replicas::Replicas;
use std::collections::{BTreeMap, BTreeSet};

/// One namenode layout mutation, as appended to the event journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutEvent {
    /// A chunk came into existence with its initial replica set.
    ChunkAdded {
        /// The new chunk.
        chunk: ChunkId,
        /// Its size in bytes.
        size: u64,
        /// Initial replica holders, sorted.
        locations: Replicas,
    },
    /// A replica of `chunk` was created on `node`.
    ReplicaAdded {
        /// The chunk gaining a replica.
        chunk: ChunkId,
        /// The node now holding a copy.
        node: NodeId,
    },
    /// The replica of `chunk` on `node` went away.
    ReplicaDropped {
        /// The chunk losing a replica.
        chunk: ChunkId,
        /// The node no longer holding a copy.
        node: NodeId,
    },
    /// A new empty node joined the cluster.
    NodeJoined {
        /// The new node.
        node: NodeId,
    },
    /// A node left service (crash-fail or decommission). Replica losses
    /// are journalled separately as [`LayoutEvent::ReplicaDropped`].
    NodeFailed {
        /// The departed node.
        node: NodeId,
    },
}

/// The net difference between a captured
/// [`LayoutSnapshot`](crate::LayoutSnapshot) and a later layout, in
/// snapshot terms.
///
/// All lists are sorted and duplicate-free (see [`LayoutDelta::normalize`]);
/// replica changes are *net* (a replica dropped and re-added cancels out).
/// `files_removed` describes chunks leaving the snapshot's scope — the
/// namenode never deletes chunks, but a planner's workload can shrink.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LayoutDelta {
    /// New chunks entering scope, appended after the existing entries in
    /// ascending chunk order (their snapshot indices continue at the end).
    pub files_added: Vec<ChunkLayout>,
    /// Chunks leaving scope, ascending.
    pub files_removed: Vec<ChunkId>,
    /// Net replica creations on chunks already in scope, ascending by
    /// `(chunk, node)`.
    pub replicas_added: Vec<(ChunkId, NodeId)>,
    /// Net replica losses on chunks already in scope, ascending by
    /// `(chunk, node)`.
    pub replicas_dropped: Vec<(ChunkId, NodeId)>,
    /// Nodes that left service, ascending. Their replica losses are also
    /// listed in `replicas_dropped`.
    pub nodes_failed: Vec<NodeId>,
    /// Nodes that joined, ascending (empty: no replicas yet).
    pub nodes_joined: Vec<NodeId>,
}

impl LayoutDelta {
    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.files_added.is_empty()
            && self.files_removed.is_empty()
            && self.replicas_added.is_empty()
            && self.replicas_dropped.is_empty()
            && self.nodes_failed.is_empty()
            && self.nodes_joined.is_empty()
    }

    /// Total number of elementary changes the delta carries — the `|Δ|`
    /// that incremental repair cost is proportional to.
    pub fn change_count(&self) -> usize {
        self.files_added.len()
            + self.files_removed.len()
            + self.replicas_added.len()
            + self.replicas_dropped.len()
            + self.nodes_failed.len()
            + self.nodes_joined.len()
    }

    /// Sorts every list and drops duplicates and internal contradictions:
    /// a `(chunk, node)` pair present in both `replicas_added` and
    /// `replicas_dropped` cancels out, replica changes on removed or
    /// added files are folded away (removed files need no repair; added
    /// files carry their final location set), and additions on failed
    /// nodes are dropped. Idempotent; [`LayoutDelta::from_events`] returns
    /// normalized deltas already.
    pub fn normalize(&mut self) {
        self.files_added.sort_by_key(|e| e.chunk);
        self.files_added.dedup_by_key(|e| e.chunk);
        self.files_removed.sort_unstable();
        self.files_removed.dedup();
        self.nodes_failed.sort_unstable();
        self.nodes_failed.dedup();
        self.nodes_joined.sort_unstable();
        self.nodes_joined.dedup();

        let removed: BTreeSet<ChunkId> = self.files_removed.iter().copied().collect();
        let added: BTreeSet<ChunkId> = self.files_added.iter().map(|e| e.chunk).collect();
        let failed: BTreeSet<NodeId> = self.nodes_failed.iter().copied().collect();

        self.replicas_added.sort_unstable();
        self.replicas_added.dedup();
        self.replicas_dropped.sort_unstable();
        self.replicas_dropped.dedup();
        let dropped: BTreeSet<(ChunkId, NodeId)> = self.replicas_dropped.iter().copied().collect();
        let cancelled: BTreeSet<(ChunkId, NodeId)> = self
            .replicas_added
            .iter()
            .filter(|pair| dropped.contains(pair))
            .copied()
            .collect();
        self.replicas_added.retain(|&(c, n)| {
            !cancelled.contains(&(c, n))
                && !removed.contains(&c)
                && !added.contains(&c)
                && !failed.contains(&n)
        });
        self.replicas_dropped.retain(|&(c, n)| {
            !cancelled.contains(&(c, n)) && !removed.contains(&c) && !added.contains(&c)
        });
        // A failed node's replicas must be gone from added-file locations
        // too (fold the failure into the final location sets).
        for entry in &mut self.files_added {
            entry.locations.retain(|n| !failed.contains(n));
        }
    }

    /// A delta moving one replica of `chunk` from `from` to `to` — the
    /// shape the placement engine emits: replica counts are preserved,
    /// so applying it never violates the replication-factor invariant.
    pub fn migration(chunk: ChunkId, from: NodeId, to: NodeId) -> Self {
        Self::migrations(&[(chunk, from, to)])
    }

    /// A delta bundling several replica moves (`(chunk, from, to)` each),
    /// normalized.
    pub fn migrations(moves: &[(ChunkId, NodeId, NodeId)]) -> Self {
        let mut delta = LayoutDelta {
            replicas_dropped: moves.iter().map(|&(c, from, _)| (c, from)).collect(),
            replicas_added: moves.iter().map(|&(c, _, to)| (c, to)).collect(),
            ..Default::default()
        };
        delta.normalize();
        delta
    }

    /// Decomposes a *migration-shaped* delta back into `(chunk, from, to)`
    /// moves: no file or node churn, and per chunk as many replicas
    /// dropped as added (pairing i-th drop with i-th add in node order).
    /// Returns `None` when the delta has any other shape — the
    /// replication-factor accounting gate used by
    /// [`crate::Namenode::apply_migrations`].
    pub fn migration_pairs(&self) -> Option<Vec<(ChunkId, NodeId, NodeId)>> {
        if !self.files_added.is_empty()
            || !self.files_removed.is_empty()
            || !self.nodes_failed.is_empty()
            || !self.nodes_joined.is_empty()
        {
            return None;
        }
        let mut drops: BTreeMap<ChunkId, Vec<NodeId>> = BTreeMap::new();
        for &(c, n) in &self.replicas_dropped {
            drops.entry(c).or_default().push(n);
        }
        let mut adds: BTreeMap<ChunkId, Vec<NodeId>> = BTreeMap::new();
        for &(c, n) in &self.replicas_added {
            adds.entry(c).or_default().push(n);
        }
        if drops.len() != adds.len() {
            return None;
        }
        let mut pairs = Vec::new();
        for ((dc, dn), (ac, an)) in drops.into_iter().zip(adds) {
            if dc != ac || dn.len() != an.len() {
                return None;
            }
            pairs.extend(dn.into_iter().zip(an).map(|(from, to)| (dc, from, to)));
        }
        Some(pairs)
    }

    /// Projects a journal slice onto the scope of a prior snapshot.
    ///
    /// `in_scope` decides which chunks the snapshot covers (and which
    /// *new* chunks should enter it — e.g. "belongs to dataset 3").
    /// Events about out-of-scope chunks are ignored; node membership
    /// events always apply. The result is normalized: replica events are
    /// reduced to their net effect, chunks created inside the window
    /// arrive as `files_added` entries carrying their final location set.
    pub fn from_events(events: &[LayoutEvent], mut in_scope: impl FnMut(ChunkId) -> bool) -> Self {
        // Chunks born inside the window: final locations accumulate here.
        let mut born: BTreeMap<ChunkId, ChunkLayout> = BTreeMap::new();
        // Net replica change per (chunk, node) for pre-existing chunks:
        // +1 = added, -1 = dropped, 0 = cancelled out.
        let mut net: BTreeMap<(ChunkId, NodeId), i32> = BTreeMap::new();
        let mut delta = LayoutDelta::default();

        for event in events {
            match event {
                LayoutEvent::ChunkAdded {
                    chunk,
                    size,
                    locations,
                } => {
                    if in_scope(*chunk) {
                        born.insert(
                            *chunk,
                            ChunkLayout {
                                chunk: *chunk,
                                size: *size,
                                locations: locations.clone(),
                            },
                        );
                    }
                }
                LayoutEvent::ReplicaAdded { chunk, node } => {
                    if let Some(entry) = born.get_mut(chunk) {
                        entry.locations.insert(*node);
                    } else if in_scope(*chunk) {
                        *net.entry((*chunk, *node)).or_insert(0) += 1;
                    }
                }
                LayoutEvent::ReplicaDropped { chunk, node } => {
                    if let Some(entry) = born.get_mut(chunk) {
                        entry.locations.retain(|n| n != node);
                    } else if in_scope(*chunk) {
                        *net.entry((*chunk, *node)).or_insert(0) -= 1;
                    }
                }
                LayoutEvent::NodeJoined { node } => delta.nodes_joined.push(*node),
                LayoutEvent::NodeFailed { node } => delta.nodes_failed.push(*node),
            }
        }

        delta.files_added = born.into_values().collect();
        for ((chunk, node), n) in net {
            match n.cmp(&0) {
                std::cmp::Ordering::Greater => delta.replicas_added.push((chunk, node)),
                std::cmp::Ordering::Less => delta.replicas_dropped.push((chunk, node)),
                std::cmp::Ordering::Equal => {}
            }
        }
        delta.normalize();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(chunk: u64, size: u64, nodes: &[u32]) -> ChunkLayout {
        ChunkLayout {
            chunk: ChunkId(chunk),
            size,
            locations: nodes.iter().map(|&n| NodeId(n)).collect(),
        }
    }

    #[test]
    fn empty_delta_is_empty() {
        let d = LayoutDelta::default();
        assert!(d.is_empty());
        assert_eq!(d.change_count(), 0);
    }

    #[test]
    fn from_events_nets_out_replica_churn() {
        let events = vec![
            LayoutEvent::ReplicaDropped {
                chunk: ChunkId(3),
                node: NodeId(1),
            },
            LayoutEvent::ReplicaAdded {
                chunk: ChunkId(3),
                node: NodeId(5),
            },
            // Dropped then re-added on the same node: cancels out.
            LayoutEvent::ReplicaDropped {
                chunk: ChunkId(4),
                node: NodeId(2),
            },
            LayoutEvent::ReplicaAdded {
                chunk: ChunkId(4),
                node: NodeId(2),
            },
        ];
        let d = LayoutDelta::from_events(&events, |_| true);
        assert_eq!(d.replicas_dropped, vec![(ChunkId(3), NodeId(1))]);
        assert_eq!(d.replicas_added, vec![(ChunkId(3), NodeId(5))]);
        assert_eq!(d.change_count(), 2);
    }

    #[test]
    fn from_events_folds_churn_into_born_chunks() {
        let events = vec![
            LayoutEvent::ChunkAdded {
                chunk: ChunkId(9),
                size: 64,
                locations: vec![NodeId(0), NodeId(1)].into(),
            },
            LayoutEvent::ReplicaAdded {
                chunk: ChunkId(9),
                node: NodeId(4),
            },
            LayoutEvent::ReplicaDropped {
                chunk: ChunkId(9),
                node: NodeId(0),
            },
        ];
        let d = LayoutDelta::from_events(&events, |_| true);
        assert_eq!(d.files_added, vec![layout(9, 64, &[1, 4])]);
        assert!(d.replicas_added.is_empty() && d.replicas_dropped.is_empty());
    }

    #[test]
    fn from_events_respects_scope() {
        let events = vec![
            LayoutEvent::ReplicaAdded {
                chunk: ChunkId(1),
                node: NodeId(0),
            },
            LayoutEvent::ReplicaAdded {
                chunk: ChunkId(2),
                node: NodeId(0),
            },
            LayoutEvent::NodeJoined { node: NodeId(9) },
        ];
        let d = LayoutDelta::from_events(&events, |c| c == ChunkId(1));
        assert_eq!(d.replicas_added, vec![(ChunkId(1), NodeId(0))]);
        assert_eq!(d.nodes_joined, vec![NodeId(9)], "membership always applies");
    }

    #[test]
    fn normalize_cancels_and_sorts() {
        let mut d = LayoutDelta {
            replicas_added: vec![
                (ChunkId(2), NodeId(1)),
                (ChunkId(1), NodeId(0)),
                (ChunkId(1), NodeId(0)),
            ],
            replicas_dropped: vec![(ChunkId(1), NodeId(0))],
            nodes_failed: vec![NodeId(7), NodeId(3), NodeId(7)],
            ..Default::default()
        };
        d.normalize();
        assert_eq!(d.replicas_added, vec![(ChunkId(2), NodeId(1))]);
        assert!(d.replicas_dropped.is_empty());
        assert_eq!(d.nodes_failed, vec![NodeId(3), NodeId(7)]);
    }

    #[test]
    fn normalize_drops_adds_on_failed_nodes_and_removed_files() {
        let mut d = LayoutDelta {
            files_removed: vec![ChunkId(5)],
            files_added: vec![layout(8, 64, &[0, 3])],
            replicas_added: vec![
                (ChunkId(5), NodeId(1)),
                (ChunkId(6), NodeId(3)),
                (ChunkId(8), NodeId(2)),
            ],
            replicas_dropped: vec![(ChunkId(5), NodeId(2))],
            nodes_failed: vec![NodeId(3)],
            ..Default::default()
        };
        d.normalize();
        assert!(d.replicas_added.is_empty(), "{:?}", d.replicas_added);
        assert!(d.replicas_dropped.is_empty());
        assert_eq!(
            d.files_added[0].locations,
            vec![NodeId(0)],
            "failed node folded out of the added file"
        );
    }
}
