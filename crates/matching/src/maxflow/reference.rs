//! The flow network and both algorithm bodies as they stood before the
//! flat CSR layout, kept verbatim as the identity oracle: `proptests`
//! below hold every per-edge flow of [`super::FlowNetwork`] equal to
//! these on general and quota-bipartite networks, under both algorithms.
//! One heap `Vec` per vertex, 16-byte edges, an `original_caps` side
//! table, a fresh `VecDeque` per BFS — what the layout replaced.

#![allow(dead_code)]

pub(crate) mod network {
    /// Handle to an edge added with [`FlowNetwork::add_edge`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct EdgeId(pub(crate) usize);

    #[derive(Debug, Clone)]
    pub(crate) struct Edge {
        pub to: usize,
        /// Remaining (residual) capacity.
        pub cap: u64,
    }

    /// A directed flow network over `n` vertices.
    #[derive(Debug, Clone)]
    pub struct FlowNetwork {
        pub(crate) edges: Vec<Edge>,
        pub(crate) adj: Vec<Vec<usize>>,
        original_caps: Vec<u64>,
    }

    impl FlowNetwork {
        /// Creates a network with `n` vertices and no edges.
        pub fn new(n: usize) -> Self {
            FlowNetwork {
                edges: Vec::new(),
                adj: vec![Vec::new(); n],
                original_caps: Vec::new(),
            }
        }

        /// Number of vertices.
        pub fn vertex_count(&self) -> usize {
            self.adj.len()
        }

        /// Number of forward edges.
        pub fn edge_count(&self) -> usize {
            self.edges.len() / 2
        }

        /// Adds a directed edge `from -> to` with the given capacity and returns
        /// its handle.
        ///
        /// # Panics
        ///
        /// Panics if a vertex is out of range or `from == to`.
        pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) -> EdgeId {
            let n = self.adj.len();
            assert!(
                from < n && to < n,
                "vertex out of range ({from}->{to}, n={n})"
            );
            assert_ne!(from, to, "self-loops are not allowed");
            let id = self.edges.len();
            self.edges.push(Edge { to, cap });
            self.edges.push(Edge { to: from, cap: 0 });
            self.adj[from].push(id);
            self.adj[to].push(id + 1);
            self.original_caps.push(cap);
            EdgeId(id)
        }

        /// Flow currently routed through an edge (original capacity minus
        /// residual capacity).
        pub fn flow_on(&self, edge: EdgeId) -> u64 {
            let original = self.original_caps[edge.0 / 2];
            original - self.edges[edge.0].cap
        }

        /// Original capacity of an edge.
        pub fn capacity_of(&self, edge: EdgeId) -> u64 {
            self.original_caps[edge.0 / 2]
        }

        /// Resets all flow to zero, keeping the topology.
        pub fn reset_flow(&mut self) {
            for (k, &cap) in self.original_caps.iter().enumerate() {
                self.edges[2 * k].cap = cap;
                self.edges[2 * k + 1].cap = 0;
            }
        }

        /// Checks flow conservation at every vertex except `s` and `t`:
        /// inflow equals outflow. Used by tests and debug assertions.
        pub fn conserves_flow(&self, s: usize, t: usize) -> bool {
            let mut balance = vec![0i128; self.adj.len()];
            for k in 0..self.original_caps.len() {
                let flow = self.flow_on(EdgeId(2 * k)) as i128;
                let to = self.edges[2 * k].to;
                let from = self.edges[2 * k + 1].to;
                balance[from] -= flow;
                balance[to] += flow;
            }
            balance
                .iter()
                .enumerate()
                .all(|(v, &b)| v == s || v == t || b == 0)
        }
    }
}

pub(crate) mod dinic {
    use super::network::FlowNetwork;
    use std::collections::VecDeque;

    /// Computes the maximum flow from `s` to `t`, mutating `net` so per-edge
    /// flows can be read back with [`FlowNetwork::flow_on`].
    pub fn max_flow(net: &mut FlowNetwork, s: usize, t: usize) -> u64 {
        assert!(
            s < net.vertex_count() && t < net.vertex_count(),
            "s/t out of range"
        );
        assert_ne!(s, t, "source and sink must differ");
        let n = net.vertex_count();
        let mut total = 0u64;
        let mut level = vec![u32::MAX; n];
        let mut iter = vec![0usize; n];

        loop {
            // Build the level graph with BFS over residual edges.
            level.iter_mut().for_each(|l| *l = u32::MAX);
            level[s] = 0;
            let mut queue = VecDeque::new();
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &eid in &net.adj[u] {
                    let edge = &net.edges[eid];
                    if edge.cap > 0 && level[edge.to] == u32::MAX {
                        level[edge.to] = level[u] + 1;
                        queue.push_back(edge.to);
                    }
                }
            }
            if level[t] == u32::MAX {
                break;
            }
            // Find a blocking flow with iterative DFS.
            iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = dfs_push(net, s, t, u64::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
        debug_assert!(net.conserves_flow(s, t));
        total
    }

    /// Pushes up to `limit` units from `u` toward `t` along level-increasing
    /// residual edges. Recursive with depth bounded by the level count.
    fn dfs_push(
        net: &mut FlowNetwork,
        u: usize,
        t: usize,
        limit: u64,
        level: &[u32],
        iter: &mut [usize],
    ) -> u64 {
        if u == t {
            return limit;
        }
        while iter[u] < net.adj[u].len() {
            let eid = net.adj[u][iter[u]];
            let (to, cap) = {
                let e = &net.edges[eid];
                (e.to, e.cap)
            };
            if cap > 0 && level[to] == level[u].wrapping_add(1) {
                let pushed = dfs_push(net, to, t, limit.min(cap), level, iter);
                if pushed > 0 {
                    net.edges[eid].cap -= pushed;
                    net.edges[eid ^ 1].cap += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0
    }
}

pub(crate) mod edmonds_karp {
    use super::network::FlowNetwork;
    use std::collections::VecDeque;

    /// Computes the maximum flow from `s` to `t`, mutating `net` so per-edge
    /// flows can be read back with [`FlowNetwork::flow_on`].
    pub fn max_flow(net: &mut FlowNetwork, s: usize, t: usize) -> u64 {
        assert!(
            s < net.vertex_count() && t < net.vertex_count(),
            "s/t out of range"
        );
        assert_ne!(s, t, "source and sink must differ");
        let n = net.vertex_count();
        let mut total = 0u64;
        // prev[v] = edge index used to reach v in the BFS tree.
        let mut prev = vec![usize::MAX; n];

        loop {
            prev.iter_mut().for_each(|p| *p = usize::MAX);
            let mut queue = VecDeque::new();
            queue.push_back(s);
            let mut reached = false;
            'bfs: while let Some(u) = queue.pop_front() {
                for &eid in &net.adj[u] {
                    let edge = &net.edges[eid];
                    if edge.cap == 0 || edge.to == s || prev[edge.to] != usize::MAX {
                        continue;
                    }
                    prev[edge.to] = eid;
                    if edge.to == t {
                        reached = true;
                        break 'bfs;
                    }
                    queue.push_back(edge.to);
                }
            }
            if !reached {
                break;
            }

            // Find the bottleneck along the path.
            let mut bottleneck = u64::MAX;
            let mut v = t;
            while v != s {
                let eid = prev[v];
                bottleneck = bottleneck.min(net.edges[eid].cap);
                v = net.edges[eid ^ 1].to;
            }
            debug_assert!(bottleneck > 0 && bottleneck != u64::MAX);

            // Augment.
            let mut v = t;
            while v != s {
                let eid = prev[v];
                net.edges[eid].cap -= bottleneck;
                net.edges[eid ^ 1].cap += bottleneck;
                v = net.edges[eid ^ 1].to;
            }
            total += bottleneck;
        }
        debug_assert!(net.conserves_flow(s, t));
        total
    }
}

#[cfg(test)]
mod proptests {
    use super::super::{dinic, edmonds_karp, EdgeId, FlowAlgo, FlowNetwork};
    use super::network::{EdgeId as OldEdgeId, FlowNetwork as OldNetwork};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds `edges` into both representations, solves both with `algo`
    /// and holds value, every per-edge flow and every capacity equal —
    /// then once more after a reset, which the flat network derives
    /// from the reverse residuals instead of a side table.
    fn assert_identical(
        n: usize,
        edges: &[(usize, usize, u64)],
        s: usize,
        t: usize,
        algo: FlowAlgo,
    ) {
        let mut new = FlowNetwork::new(n);
        let mut old = OldNetwork::new(n);
        for &(u, v, c) in edges {
            assert_eq!(new.add_edge(u, v, c).0, old.add_edge(u, v, c).0);
        }
        for round in 0..2 {
            let (value, old_value) = match algo {
                FlowAlgo::Dinic => (
                    dinic::max_flow(&mut new, s, t),
                    super::dinic::max_flow(&mut old, s, t),
                ),
                FlowAlgo::EdmondsKarp => (
                    edmonds_karp::max_flow(&mut new, s, t),
                    super::edmonds_karp::max_flow(&mut old, s, t),
                ),
            };
            assert_eq!(value, old_value, "{algo:?} value, round {round}: {edges:?}");
            for (k, &(_, _, c)) in edges.iter().enumerate() {
                assert_eq!(
                    new.flow_on(EdgeId(2 * k)),
                    old.flow_on(OldEdgeId(2 * k)),
                    "{algo:?} flow on edge {k}, round {round}: {edges:?}"
                );
                assert_eq!(new.capacity_of(EdgeId(2 * k)), c);
            }
            assert!(new.conserves_flow(s, t));
            assert!(new.work().phases >= 1);
            new.reset_flow();
            old.reset_flow();
        }
    }

    #[test]
    fn general_networks_carry_identical_flows_edge_for_edge() {
        // Antiparallel pairs and repeated edges arise freely at these
        // densities; a third of the networks draw capacities up to
        // `u64::MAX / 4`, with at most three such edges leaving `s` so
        // the flow value itself cannot overflow.
        let mut rng = StdRng::seed_from_u64(0xF1A7);
        for case in 0..12_000 {
            let n = rng.gen_range(2usize..12);
            let huge = case % 3 == 0;
            let mut from_source = 0;
            let edges: Vec<(usize, usize, u64)> = (0..rng.gen_range(0usize..60))
                .map(|_| {
                    let u = rng.gen_range(0..n);
                    let v = (u + rng.gen_range(1..n)) % n;
                    from_source += usize::from(u == 0);
                    let cap = if huge && (u != 0 || from_source <= 3) {
                        rng.gen_range(1..=u64::MAX / 4)
                    } else {
                        rng.gen_range(0u64..100)
                    };
                    (u, v, cap)
                })
                .collect();
            for algo in [FlowAlgo::Dinic, FlowAlgo::EdmondsKarp] {
                assert_identical(n, &edges, 0, n - 1, algo);
            }
        }
    }

    #[test]
    fn quota_networks_carry_identical_flows_edge_for_edge() {
        // The shape `crates/bench/benches/maxflow.rs` and the matcher
        // build — `s → processes → files → t` with `r` co-locations per
        // file — including more processes than files, no files at all,
        // zero-quota processes (as a zero-capacity edge or none, as
        // `flow_match` leaves them out), and files already owned by an
        // earlier tier: no locality edge, no edge to `t`.
        let mut rng = StdRng::seed_from_u64(0xF1A8);
        for _ in 0..10_000 {
            let m = rng.gen_range(1usize..10);
            let n = rng.gen_range(0usize..40);
            let r = rng.gen_range(0usize..4).min(m);
            let owned_percent = [0, 0, 30, 80][rng.gen_range(0usize..4)];
            let (s, t) = (0, 1 + m + n);
            let mut edges = Vec::new();
            for p in 0..m {
                let quota = match rng.gen_range(0u32..4) {
                    0 => 0,
                    1 => rng.gen_range(0..=n as u64),
                    _ => (n / m).max(1) as u64,
                };
                if quota > 0 || rng.gen_bool(0.5) {
                    edges.push((s, 1 + p, quota));
                }
            }
            let owned: Vec<bool> = (0..n)
                .map(|_| rng.gen_range(0u32..100) < owned_percent)
                .collect();
            // Process-major locality edges, as the matcher adds them.
            let mut locality: Vec<(usize, usize)> = Vec::new();
            for f in (0..n).filter(|&f| !owned[f]) {
                let first = rng.gen_range(0..m);
                locality.extend((0..r).map(|i| ((first + i) % m, f)));
            }
            locality.sort_unstable();
            edges.extend(locality.iter().map(|&(p, f)| (1 + p, 1 + m + f, 1)));
            edges.extend((0..n).filter(|&f| !owned[f]).map(|f| (1 + m + f, t, 1)));
            for algo in [FlowAlgo::Dinic, FlowAlgo::EdmondsKarp] {
                assert_identical(t + 1, &edges, s, t, algo);
            }
        }
    }
}
