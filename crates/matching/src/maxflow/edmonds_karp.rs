//! Edmonds–Karp max-flow: Ford–Fulkerson with BFS-chosen augmenting paths,
//! compiled only under `cfg(test)`.
//!
//! The paper's single-data matcher names Ford–Fulkerson; BFS path
//! selection makes it `O(V·E²)` independent of capacities while keeping
//! the cancellation the paper relies on (an augmenting path may reroute a
//! previously assigned file through a residual edge). The shipped matcher
//! runs Dinic in place; this body is the independent oracle its flow
//! value is held to.

use super::network::{FlowNetwork, FlowWork};

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
    // prev[v] = edge index used to reach v in the BFS tree.
    let mut prev = vec![u32::MAX; n];
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    let res = net.adjacency();

    loop {
        work.phases += 1;
        prev.fill(u32::MAX);
        queue.clear();
        queue.push(s as u32);
        let mut head = 0;
        let mut reached = false;
        'bfs: while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            let list = res.edges_of(u);
            for (read, &eid) in list.iter().enumerate() {
                let to = res.to[eid as usize] as usize;
                if res.cap[eid as usize] == 0 || to == s || prev[to] != u32::MAX {
                    continue;
                }
                prev[to] = eid;
                if to == t {
                    work.scanned += read as u64 + 1;
                    reached = true;
                    break 'bfs;
                }
                queue.push(to as u32);
            }
            work.scanned += list.len() as u64;
        }
        if !reached {
            break;
        }

        // Find the bottleneck along the path.
        let mut bottleneck = u64::MAX;
        let mut v = t;
        while v != s {
            let eid = prev[v] as usize;
            bottleneck = bottleneck.min(res.cap[eid]);
            v = res.to[eid ^ 1] as usize;
        }
        debug_assert!(bottleneck > 0 && bottleneck != u64::MAX);

        // Augment.
        let mut v = t;
        while v != s {
            let eid = prev[v] as usize;
            res.cap[eid] -= bottleneck;
            res.cap[eid ^ 1] += bottleneck;
            v = res.to[eid ^ 1] as usize;
        }
        work.paths += 1;
        total += bottleneck;
    }
    net.work = work;
    debug_assert!(net.conserves_flow(s, t));
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 7);
        assert_eq!(max_flow(&mut net, 0, 1), 7);
        assert_eq!(net.flow_on(e), 7);
    }

    #[test]
    fn series_takes_min() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 10);
        net.add_edge(1, 2, 4);
        assert_eq!(max_flow(&mut net, 0, 2), 4);
    }

    #[test]
    fn parallel_paths_add() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(1, 3, 3);
        net.add_edge(0, 2, 5);
        net.add_edge(2, 3, 5);
        assert_eq!(max_flow(&mut net, 0, 3), 8);
    }

    #[test]
    fn clrs_textbook_network() {
        // The classic CLRS example with max flow 23.
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
        assert!(net.conserves_flow(0, 5));
    }

    #[test]
    fn requires_cancellation() {
        // Bipartite matching where the greedy first choice must be undone:
        // s->a->x->t and s->b->x->t with b having only x, a having x and y.
        // s=0, a=1, b=2, x=3, y=4, t=5.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(1, 4, 1);
        net.add_edge(2, 3, 1);
        net.add_edge(3, 5, 1);
        net.add_edge(4, 5, 1);
        assert_eq!(max_flow(&mut net, 0, 5), 2);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        assert_eq!(max_flow(&mut net, 0, 2), 0);
    }

    #[test]
    fn rerun_after_reset_matches() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 2);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 2);
        let first = max_flow(&mut net, 0, 3);
        net.reset_flow();
        let second = max_flow(&mut net, 0, 3);
        assert_eq!(first, second);
        assert_eq!(first, 4);
    }
}
