//! Dinic's max-flow algorithm: BFS level graphs + DFS blocking flows.
//!
//! `O(V²·E)` in general and `O(E·√V)` on the unit-capacity bipartite
//! networks the single-data matcher builds — the production choice for
//! large clusters. Results are cross-checked against Edmonds–Karp by
//! property tests in the crate root, and edge for edge against the
//! pre-CSR bodies kept in `maxflow::reference`.
//!
//! One queue and two `u32` arrays serve every phase. Each search stops
//! expanding at `t`'s level: a vertex at or beyond it cannot lie on a
//! level path to `t`, so it is left unlevelled and the blocking-flow DFS
//! rejects its edge at the level test instead of after a fruitless
//! descent — the same edges are skipped, no capacity differs.

use super::network::{FlowNetwork, FlowWork, Residual};

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
    let mut work = FlowWork::default();
    let mut level = vec![u32::MAX; n];
    let mut iter = vec![0u32; n];
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    let mut res = net.adjacency();

    loop {
        // Build the level graph with BFS over residual edges.
        work.phases += 1;
        level.fill(u32::MAX);
        level[s] = 0;
        queue.clear();
        queue.push(s as u32);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            // The queue is in level order, so nothing after `u` is
            // nearer; `level[t]` is `u32::MAX` until `t` is reached.
            if level[u] >= level[t] {
                break;
            }
            let list = res.edges_of(u);
            work.scanned += list.len() as u64;
            for &eid in list {
                let to = res.to[eid as usize];
                if res.cap[eid as usize] > 0 && level[to as usize] == u32::MAX {
                    level[to as usize] = level[u] + 1;
                    queue.push(to);
                }
            }
        }
        if level[t] == u32::MAX {
            break;
        }
        // Find a blocking flow with iterative DFS.
        iter.copy_from_slice(&res.start[..n]);
        loop {
            let pushed = dfs_push(&mut res, s, t, u64::MAX, &level, &mut iter);
            if pushed == 0 {
                break;
            }
            work.paths += 1;
            total += pushed;
        }
        // Every entry a vertex's cursor passed was read once.
        for (&at, &from) in iter.iter().zip(res.start) {
            work.scanned += u64::from(at - from);
        }
    }
    net.work = work;
    debug_assert!(net.conserves_flow(s, t));
    total
}

/// Pushes up to `limit` units from `u` toward `t` along level-increasing
/// residual edges. Recursive with depth bounded by the level count.
fn dfs_push(
    res: &mut Residual<'_>,
    u: usize,
    t: usize,
    limit: u64,
    level: &[u32],
    iter: &mut [u32],
) -> u64 {
    if u == t {
        return limit;
    }
    while iter[u] < res.start[u + 1] {
        let eid = res.adj[iter[u] as usize] as usize;
        let (to, cap) = (res.to[eid] as usize, res.cap[eid]);
        if cap > 0 && level[to] == level[u].wrapping_add(1) {
            let pushed = dfs_push(res, to, t, limit.min(cap), level, iter);
            if pushed > 0 {
                res.cap[eid] -= pushed;
                res.cap[eid ^ 1] += pushed;
                return pushed;
            }
        }
        iter[u] += 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 9);
        assert_eq!(max_flow(&mut net, 0, 1), 9);
    }

    #[test]
    fn clrs_textbook_network() {
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16);
        net.add_edge(0, 2, 13);
        net.add_edge(1, 2, 10);
        net.add_edge(2, 1, 4);
        net.add_edge(1, 3, 12);
        net.add_edge(3, 2, 9);
        net.add_edge(2, 4, 14);
        net.add_edge(4, 3, 7);
        net.add_edge(3, 5, 20);
        net.add_edge(4, 5, 4);
        assert_eq!(max_flow(&mut net, 0, 5), 23);
    }

    #[test]
    fn unit_capacity_bipartite() {
        // 3 procs x 3 files, perfect matching exists.
        // s=0, procs 1-3, files 4-6, t=7.
        let mut net = FlowNetwork::new(8);
        for p in 1..=3 {
            net.add_edge(0, p, 1);
        }
        for f in 4..=6 {
            net.add_edge(f, 7, 1);
        }
        net.add_edge(1, 4, 1);
        net.add_edge(1, 5, 1);
        net.add_edge(2, 5, 1);
        net.add_edge(3, 6, 1);
        assert_eq!(max_flow(&mut net, 0, 7), 3);
    }

    #[test]
    fn agrees_with_edmonds_karp_on_dense_network() {
        // Deterministic pseudo-random dense network; both algorithms must
        // find the same flow value.
        let n = 12;
        let mut edges = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for u in 0..n {
            for v in 0..n {
                if u != v && next() % 3 == 0 {
                    edges.push((u, v, next() % 50 + 1));
                }
            }
        }
        let build = |edges: &[(usize, usize, u64)]| {
            let mut net = FlowNetwork::new(n);
            for &(u, v, c) in edges {
                net.add_edge(u, v, c);
            }
            net
        };
        let mut a = build(&edges);
        let mut b = build(&edges);
        let fa = max_flow(&mut a, 0, n - 1);
        let fb = super::super::edmonds_karp::max_flow(&mut b, 0, n - 1);
        assert_eq!(fa, fb);
    }

    #[test]
    fn zero_when_no_path() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 5);
        net.add_edge(2, 3, 5);
        assert_eq!(max_flow(&mut net, 0, 3), 0);
    }
}
