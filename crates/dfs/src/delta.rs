//! Layout deltas — the namenode's change feed for incremental re-planning.
//!
//! A [`LayoutEvent`] is one journal entry describing a single replica or
//! membership mutation (a replica created or dropped, a node joining or
//! leaving service). The namenode appends events as its mutation methods
//! run and remembers where the chunks created since its last drain begin;
//! a planner drains both with
//! [`Namenode::take_delta`](crate::Namenode::take_delta), yielding a
//! [`LayoutDelta`] scoped to the snapshot it planned against: the net,
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
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// One namenode layout mutation, as appended to the event journal.
/// Chunk creation is not journalled: the namenode's chunk table already
/// holds every chunk created since the last drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutEvent {
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

    /// Sorts every list and drops duplicates and internal contradictions:
    /// a `(chunk, node)` pair present in both `replicas_added` and
    /// `replicas_dropped` cancels out, replica changes on removed or
    /// added files are folded away (removed files need no repair; added
    /// files carry their final location set), and additions on failed
    /// nodes are dropped. Idempotent;
    /// [`Namenode::take_delta`](crate::Namenode::take_delta) returns
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

    /// The delta as [`LayoutDelta::normalize`] leaves it: borrowed when
    /// it is already normalized (as [`LayoutDelta::migrations`] and
    /// [`Namenode::take_delta`](crate::Namenode::take_delta) return it),
    /// so a consumer pays a copy and the normalization's sets only for a
    /// delta built by hand.
    pub fn normalized(&self) -> Cow<'_, LayoutDelta> {
        if self.is_normal() {
            return Cow::Borrowed(self);
        }
        let mut delta = self.clone();
        delta.normalize();
        Cow::Owned(delta)
    }

    /// Whether [`LayoutDelta::normalize`] would leave the delta as it
    /// is, checked by binary searches in place: every list strictly
    /// ascending, no replica both added and dropped, no replica change
    /// on a removed or added file, no addition on a failed node.
    fn is_normal(&self) -> bool {
        fn ascending<T: Ord>(items: &[T]) -> bool {
            items.windows(2).all(|w| w[0] < w[1])
        }
        let removed = |c: &ChunkId| self.files_removed.binary_search(c).is_ok();
        let added = |c: &ChunkId| {
            self.files_added
                .binary_search_by_key(c, |e| e.chunk)
                .is_ok()
        };
        let failed = |n: &NodeId| self.nodes_failed.binary_search(n).is_ok();
        self.files_added.windows(2).all(|w| w[0].chunk < w[1].chunk)
            && ascending(&self.files_removed)
            && ascending(&self.nodes_failed)
            && ascending(&self.nodes_joined)
            && ascending(&self.replicas_added)
            && ascending(&self.replicas_dropped)
            && self.replicas_added.iter().all(|pair @ (c, n)| {
                self.replicas_dropped.binary_search(pair).is_err()
                    && !removed(c)
                    && !added(c)
                    && !failed(n)
            })
            && self
                .replicas_dropped
                .iter()
                .all(|(c, _)| !removed(c) && !added(c))
            && self
                .files_added
                .iter()
                .all(|e| !e.locations.iter().any(failed))
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

    /// Projects a journal slice onto the scope of a prior snapshot:
    /// replica events on chunks `in_scope` accepts, reduced to their net
    /// effect, and node membership events, which always apply. The result
    /// is normalized.
    pub(crate) fn from_events(
        events: &[LayoutEvent],
        mut in_scope: impl FnMut(ChunkId) -> bool,
    ) -> Self {
        // Net replica change per (chunk, node): +1 = added, -1 = dropped,
        // 0 = cancelled out.
        let mut net: BTreeMap<(ChunkId, NodeId), i32> = BTreeMap::new();
        let mut delta = LayoutDelta::default();
        for event in events {
            match *event {
                LayoutEvent::ReplicaAdded { chunk, node } if in_scope(chunk) => {
                    *net.entry((chunk, node)).or_insert(0) += 1;
                }
                LayoutEvent::ReplicaDropped { chunk, node } if in_scope(chunk) => {
                    *net.entry((chunk, node)).or_insert(0) -= 1;
                }
                LayoutEvent::ReplicaAdded { .. } | LayoutEvent::ReplicaDropped { .. } => {}
                LayoutEvent::NodeJoined { node } => delta.nodes_joined.push(node),
                LayoutEvent::NodeFailed { node } => delta.nodes_failed.push(node),
            }
        }
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
    fn normalized_borrows_exactly_the_deltas_normalize_leaves_alone() {
        // Small random deltas over few chunks and nodes, so duplicates,
        // cancellations and changes on removed, added or failed ones all
        // come up; each is also checked once normalized.
        let mut state = 0x0DE17Au64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % bound
        };
        let (mut borrowed, mut owned) = (0, 0);
        for _ in 0..4000 {
            let mut pairs = |n: u64| -> Vec<(ChunkId, NodeId)> {
                (0..next(n))
                    .map(|_| (ChunkId(next(6)), NodeId(next(4) as u32)))
                    .collect()
            };
            let (replicas_added, replicas_dropped) = (pairs(3), pairs(3));
            let mut d = LayoutDelta {
                replicas_added,
                replicas_dropped,
                ..Default::default()
            };
            for _ in 0..next(2) {
                d.files_removed.push(ChunkId(next(6)));
            }
            for _ in 0..next(2) {
                d.files_added.push(layout(next(8), 8, &[next(4) as u32]));
            }
            for _ in 0..next(2) {
                d.nodes_failed.push(NodeId(next(4) as u32));
            }
            for _ in 0..next(2) {
                d.nodes_joined.push(NodeId(next(6) as u32));
            }
            for d in [d.clone(), {
                d.normalize();
                d
            }] {
                let mut want = d.clone();
                want.normalize();
                let got = d.normalized();
                assert_eq!(*got, want, "{d:?}");
                match got {
                    Cow::Borrowed(_) => borrowed += 1,
                    Cow::Owned(_) => owned += 1,
                }
                assert_eq!(d.is_normal(), d == want, "{d:?}");
            }
        }
        assert!(
            borrowed > 4000 && owned > 1000,
            "{borrowed} borrowed, {owned} owned"
        );
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
