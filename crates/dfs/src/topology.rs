//! Rack membership of cluster nodes.
//!
//! HDFS placement and replica selection are rack-aware in real
//! deployments; the paper's testbed is single-switch, so the reproduction
//! defaults to no racks. The [`RackMap`] supports this repository's
//! rack-locality extension: rack-aware placement, rack-preferring replica
//! selection, and two-tier (node-then-rack) matching.

use crate::ids::NodeId;

/// Maps every node to a rack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RackMap {
    rack_of: Vec<u32>,
}

impl RackMap {
    /// Groups `n_nodes` into consecutive racks of `nodes_per_rack` (the
    /// last rack may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn uniform(n_nodes: usize, nodes_per_rack: usize) -> Self {
        assert!(n_nodes > 0, "need at least one node");
        assert!(nodes_per_rack > 0, "racks must hold at least one node");
        RackMap {
            rack_of: (0..n_nodes).map(|i| (i / nodes_per_rack) as u32).collect(),
        }
    }

    /// Builds from an explicit node→rack vector.
    pub fn explicit(rack_of: Vec<u32>) -> Self {
        assert!(!rack_of.is_empty(), "need at least one node");
        RackMap { rack_of }
    }

    /// Number of nodes covered.
    pub fn n_nodes(&self) -> usize {
        self.rack_of.len()
    }

    /// The rack of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the map.
    pub fn rack_of(&self, node: NodeId) -> u32 {
        self.rack_of[node.index()]
    }

    /// Whether two nodes share a rack.
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grouping() {
        let m = RackMap::uniform(10, 4);
        assert_eq!(m.n_nodes(), 10);
        assert_eq!(m.rack_of(NodeId(0)), 0);
        assert_eq!(m.rack_of(NodeId(4)), 1);
        assert_eq!(m.rack_of(NodeId(9)), 2);
        assert!(m.same_rack(NodeId(0), NodeId(3)));
        assert!(!m.same_rack(NodeId(3), NodeId(4)));
    }

    #[test]
    fn explicit_map() {
        let m = RackMap::explicit(vec![1, 0, 1]);
        assert_eq!(m.rack_of(NodeId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty() {
        let _ = RackMap::explicit(vec![]);
    }
}
