//! The exact-work counter every max-flow solve reports, and the general
//! flow network the test oracles run on.
//!
//! [`FlowWork`] is what [`super::dinic::BipartiteFlow::work`] returns.
//! The rest of this module compiles only under `cfg(test)`: the shipped
//! solver runs in place on the locality graph and builds no network, so
//! the general network is kept as the ground the oracles stand on — the
//! general-network Dinic the in-place solver is held to owner for owner,
//! Edmonds–Karp as an independent route to the flow value, and the plain
//! max-flow the `MinCostFlowNetwork` tests compare against.
//!
//! Edges are stored in forward/reverse pairs (indices `2k` and `2k+1`), the
//! classic residual-graph layout: pushing flow on one edge adds residual
//! capacity to its partner. Capacities are `u64` (bytes or task units).
//!
//! Everything lives in four flat columns (DESIGN.md §13, "Flow network
//! layout"): `to` and `cap` per edge id, filled by `FlowNetwork::add_edge`,
//! and a CSR adjacency (`start`, `adj`) that `FlowNetwork::adjacency`
//! builds once, when an algorithm starts, by a *stable* counting sort of
//! edge ids by tail vertex. Stable means every vertex lists its edges in
//! `add_edge` order — the order the algorithms scan, and therefore the
//! order the oracles' owner-for-owner comparisons rest on. Nothing else
//! is kept: the tail of edge `e` is `to[e ^ 1]`, the flow on a forward
//! edge is its partner's residual, and its original capacity is the
//! pair's sum.

/// Handle to an edge added with [`FlowNetwork::add_edge`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) usize);

/// The exact work of one max-flow solve, read from
/// [`super::dinic::BipartiteFlow::work`]: counts, not clocks, so they
/// repeat to the digit on any host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowWork {
    /// Breadth-first searches run: Dinic's level graphs, the last one
    /// finding `t` unreachable (the test-only Edmonds–Karp counts one per
    /// path, plus the one that finds none).
    pub phases: u64,
    /// Augmenting paths pushed.
    pub paths: u64,
    /// Adjacency entries read, by the searches and the pushes together
    /// (the in-place Dinic reads only process→file entries).
    pub scanned: u64,
}

/// A directed flow network over `n` vertices.
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    n: usize,
    /// Head vertex per edge id.
    to: Vec<u32>,
    /// Remaining (residual) capacity per edge id.
    cap: Vec<u64>,
    /// CSR offsets into `adj`, `n + 1` of them once built.
    start: Vec<u32>,
    /// Edge ids grouped by tail vertex, each group in `add_edge` order.
    /// Current when it is as long as `to` (and `start` has been built).
    adj: Vec<u32>,
    pub(crate) work: FlowWork,
}

/// The columns an algorithm works on: the adjacency read-only beside
/// the one column a push writes.
#[cfg(test)]
pub(crate) struct Residual<'a> {
    pub to: &'a [u32],
    pub cap: &'a mut [u64],
    pub start: &'a [u32],
    pub adj: &'a [u32],
}

#[cfg(test)]
impl<'a> Residual<'a> {
    /// Ids of the edges leaving `u`, in `add_edge` order.
    pub fn edges_of(&self, u: usize) -> &'a [u32] {
        &self.adj[self.start[u] as usize..self.start[u + 1] as usize]
    }
}

#[cfg(test)]
impl FlowNetwork {
    /// Creates a network with `n` vertices and no edges.
    ///
    /// # Panics
    ///
    /// Panics unless `n < u32::MAX` (vertices are stored as `u32`).
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// Like [`Self::new`], with room for exactly `edges` forward edges, so
    /// a caller that knows its edge count builds without regrowth.
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok_and(|n| n < u32::MAX),
            "too many vertices ({n})"
        );
        FlowNetwork {
            n,
            to: Vec::with_capacity(2 * edges),
            cap: Vec::with_capacity(2 * edges),
            start: Vec::new(),
            adj: Vec::new(),
            work: FlowWork::default(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of forward edges.
    pub fn edge_count(&self) -> usize {
        self.to.len() / 2
    }

    /// Adds a directed edge `from -> to` with the given capacity and returns
    /// its handle.
    ///
    /// # Panics
    ///
    /// Panics if a vertex is out of range or `from == to`.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) -> EdgeId {
        let n = self.n;
        assert!(
            from < n && to < n,
            "vertex out of range ({from}->{to}, n={n})"
        );
        assert_ne!(from, to, "self-loops are not allowed");
        let id = self.to.len();
        // Edge ids are stored as `u32` too, `u32::MAX` standing for "none".
        assert!(id + 2 < u32::MAX as usize, "too many edges");
        self.to.extend([to as u32, from as u32]);
        self.cap.extend([cap, 0]);
        EdgeId(id)
    }

    /// Flow currently routed through an edge: what its reverse partner
    /// could give back.
    pub fn flow_on(&self, edge: EdgeId) -> u64 {
        self.cap[edge.0 ^ 1]
    }

    /// Original capacity of an edge: residual plus flow.
    pub fn capacity_of(&self, edge: EdgeId) -> u64 {
        self.cap[edge.0] + self.cap[edge.0 ^ 1]
    }

    /// Resets all flow to zero, keeping the topology.
    pub fn reset_flow(&mut self) {
        for pair in self.cap.chunks_exact_mut(2) {
            pair[0] += pair[1];
            pair[1] = 0;
        }
    }

    /// The exact work of the last solve run on this network (zero before
    /// the first).
    pub fn work(&self) -> FlowWork {
        self.work
    }

    /// Checks flow conservation at every vertex except `s` and `t`:
    /// inflow equals outflow. Used by tests and debug assertions.
    pub fn conserves_flow(&self, s: usize, t: usize) -> bool {
        let mut balance = vec![0i128; self.n];
        for (heads, caps) in self.to.chunks_exact(2).zip(self.cap.chunks_exact(2)) {
            let flow = caps[1] as i128;
            balance[heads[1] as usize] -= flow;
            balance[heads[0] as usize] += flow;
        }
        balance
            .iter()
            .enumerate()
            .all(|(v, &b)| v == s || v == t || b == 0)
    }

    /// The columns an algorithm runs on, the CSR adjacency (re)built first
    /// if edges were added since it last was.
    ///
    /// A stable counting sort of edge ids by tail: count, prefix-sum,
    /// place in ascending id order. `start` doubles as the placement
    /// cursor — after placing, `start[v]` has advanced to where `v + 1`
    /// begins, so one shift restores it — and nothing else is allocated.
    pub(crate) fn adjacency(&mut self) -> Residual<'_> {
        if self.adj.len() != self.to.len() || self.start.len() != self.n + 1 {
            let (n, to) = (self.n, &self.to);
            let start = &mut self.start;
            start.clear();
            start.resize(n + 1, 0);
            for e in 0..to.len() {
                start[to[e ^ 1] as usize + 1] += 1;
            }
            for v in 0..n {
                start[v + 1] += start[v];
            }
            self.adj.clear();
            self.adj.resize(to.len(), 0);
            for e in 0..to.len() {
                let cursor = &mut start[to[e ^ 1] as usize];
                self.adj[*cursor as usize] = e as u32;
                *cursor += 1;
            }
            start.copy_within(0..n, 1);
            start[0] = 0;
        }
        Residual {
            to: &self.to,
            cap: &mut self.cap,
            start: &self.start,
            adj: &self.adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_creates_residual_pair() {
        let mut net = FlowNetwork::new(3);
        let e = net.add_edge(0, 1, 10);
        assert_eq!(net.edge_count(), 1);
        assert_eq!(net.flow_on(e), 0);
        assert_eq!(net.capacity_of(e), 10);
    }

    #[test]
    fn reset_restores_capacities() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 5);
        // Manually push 3 units through the residual representation.
        net.cap[0] -= 3;
        net.cap[1] += 3;
        assert_eq!(net.flow_on(e), 3);
        assert_eq!(net.capacity_of(e), 5);
        net.reset_flow();
        assert_eq!(net.flow_on(e), 0);
        assert_eq!(net.capacity_of(e), 5);
    }

    #[test]
    fn conservation_of_empty_network() {
        let net = FlowNetwork::new(4);
        assert!(net.conserves_flow(0, 3));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn rejects_out_of_range() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 2, 1);
    }

    #[test]
    fn adjacency_lists_each_tail_in_insertion_order() {
        let mut net = FlowNetwork::new(4);
        // Interleaved tails, an antiparallel pair and a repeated edge.
        for (u, v) in [(2, 1), (0, 1), (2, 3), (1, 2), (0, 1), (0, 3)] {
            net.add_edge(u, v, 1);
        }
        let lists = |net: &mut FlowNetwork| -> Vec<Vec<u32>> {
            let r = net.adjacency();
            (0..4).map(|v| r.edges_of(v).to_vec()).collect()
        };
        let expected: Vec<Vec<u32>> =
            vec![vec![2, 8, 10], vec![1, 3, 6, 9], vec![0, 4, 7], vec![5, 11]];
        assert_eq!(lists(&mut net), expected);
        // Edges added after a build are picked up by the next one.
        net.add_edge(3, 0, 1);
        assert_eq!(lists(&mut net)[3], vec![5, 11, 12]);
        assert_eq!(lists(&mut net)[0], vec![2, 8, 10, 13]);
    }
}
