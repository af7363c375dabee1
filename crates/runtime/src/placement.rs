//! Process-to-node placement.
//!
//! The paper launches one MPI process per cluster node (Marmot has two
//! cores, but the evaluation is I/O-bound and uses node-level parallelism).
//! The mapping is kept explicit so tests can model oversubscription and
//! sub-cluster launches.

use opass_dfs::NodeId;

/// Maps process ranks to the cluster nodes they run on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessPlacement {
    node_of: Vec<NodeId>,
}

impl ProcessPlacement {
    /// One process per node: rank `i` on node `i`.
    pub fn one_per_node(n_nodes: usize) -> Self {
        ProcessPlacement {
            node_of: (0..n_nodes).map(|i| NodeId(i as u32)).collect(),
        }
    }

    /// `n_procs` ranks spread round-robin over `n_nodes` nodes.
    pub fn round_robin(n_procs: usize, n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "need at least one node");
        ProcessPlacement {
            node_of: (0..n_procs).map(|i| NodeId((i % n_nodes) as u32)).collect(),
        }
    }

    /// Explicit placement.
    pub fn explicit(node_of: Vec<NodeId>) -> Self {
        ProcessPlacement { node_of }
    }

    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.node_of.len()
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.node_of[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_per_node_is_identity() {
        let p = ProcessPlacement::one_per_node(4);
        assert_eq!(p.n_procs(), 4);
        for i in 0..4 {
            assert_eq!(p.node_of(i), NodeId(i as u32));
        }
    }

    #[test]
    fn round_robin_wraps() {
        let p = ProcessPlacement::round_robin(5, 2);
        assert_eq!(p.node_of(0), NodeId(0));
        assert_eq!(p.node_of(1), NodeId(1));
        assert_eq!(p.node_of(4), NodeId(0));
    }

    #[test]
    fn explicit_placement() {
        let p = ProcessPlacement::explicit(vec![NodeId(3), NodeId(3)]);
        assert_eq!(p.n_procs(), 2);
        assert!((0..2).all(|r| p.node_of(r) == NodeId(3)));
    }
}
