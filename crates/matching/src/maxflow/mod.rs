//! Max-flow machinery for the single-data matcher.
//!
//! Two interchangeable implementations over one [`FlowNetwork`]
//! representation:
//!
//! * [`edmonds_karp`] — the Ford–Fulkerson variant the paper describes;
//! * [`dinic`] — asymptotically faster on the unit-capacity bipartite
//!   networks Opass builds, used by default.
//!
//! The `assignment` benches compare the two; property tests assert they
//! always agree on the flow value, and — edge for edge — with the
//! pre-CSR network and bodies kept under `cfg(test)` in `reference`.

pub mod dinic;
pub mod edmonds_karp;
pub mod min_cost;
pub mod network;
#[cfg(test)]
pub(crate) mod reference;

pub use min_cost::{CostEdgeId, MinCostFlowNetwork};
pub use network::{EdgeId, FlowNetwork, FlowWork};

/// Which max-flow implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowAlgo {
    /// Dinic's algorithm (default).
    #[default]
    Dinic,
    /// Edmonds–Karp (BFS Ford–Fulkerson), as described in the paper.
    EdmondsKarp,
}

impl FlowAlgo {
    /// Runs the selected algorithm. See [`dinic::max_flow`].
    pub fn run(self, net: &mut FlowNetwork, s: usize, t: usize) -> u64 {
        match self {
            FlowAlgo::Dinic => dinic::max_flow(net, s, t),
            FlowAlgo::EdmondsKarp => edmonds_karp::max_flow(net, s, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_algorithms_run_via_enum() {
        for algo in [FlowAlgo::Dinic, FlowAlgo::EdmondsKarp] {
            let mut net = FlowNetwork::new(3);
            net.add_edge(0, 1, 2);
            net.add_edge(1, 2, 3);
            assert_eq!(algo.run(&mut net, 0, 2), 2);
        }
    }

    #[test]
    fn default_is_dinic() {
        assert_eq!(FlowAlgo::default(), FlowAlgo::Dinic);
    }
}
