//! Dinic's max-flow algorithm: BFS level graphs + DFS blocking flows,
//! run in place on per-process file lists.
//!
//! The single-data matcher's network is `s → process → file → t`, with
//! capacities quota, 1 and 1 and a `p → f` edge wherever `f` is on `p`'s
//! list. [`bipartite_max_flow`] solves it without building it: the
//! sorted process→file lists ([`FileLists`]) are the only per-edge data,
//! and the residual state is one owner per file and one remaining quota
//! per process. A locality graph yields its lists as they are stored; a
//! cold plan hands it its nodes' lists, shared by the processes on each
//! node, and builds no graph. `O(E·√V)` on this unit-capacity shape —
//! four phases on the planner's.
//!
//! The contract is the flow the general-network body finds on the
//! network the matcher used to build, not merely one as large: every
//! owner is the same (DESIGN.md §13.1). That body is kept under
//! `cfg(test)` as the oracle `max_flow`, and the unit tests below hold
//! the two equal owner for owner. Four facts carry the equivalence:
//!
//! 1. Levels are residual distances, so they do not depend on scan
//!    order. The general search left unlevelled exactly the vertices
//!    farther than `t`, plus — levelled but unable to reach `t` — the
//!    owners at `t`'s level. This one goes a process layer and the file
//!    layer behind it at a time, and stops after the first file layer
//!    that holds an unmatched file.
//! 2. A file has at most one admissible out-edge: to its owner if
//!    matched, to `t` if not. Both are dead after the file's first visit
//!    in a phase (a path through `f` leaves its new owner one level below
//!    it, and a matched file's `t` edge is full), so a visit unlevels the
//!    file and it needs no cursor.
//! 3. A process's cursor over its list is the network's cursor minus the
//!    reverse `p → s` edge, which is never admissible because
//!    `level[s] = 0`.
//! 4. The source walks processes with residual quota in ascending order
//!    and stays on one while it keeps pushing.
//!
//! 5. The first phase starts with every file free, so its level graph
//!    is every process with quota over every file it reaches, and every
//!    augmenting path is one edge. It is a greedy pass in process order:
//!    a process takes the free files of its list in order until its
//!    quota fills. Its work is counted as the
//!    levelled phase would count it — the level search reads the lists
//!    of the processes with quota, and each cursor stops on the last
//!    file its process took when the quota fills, at the list's end when
//!    it does not.
//!
//! The two loops that read every list entry run on selects, not on
//! branches: which file is free and which owner is new is data, and a
//! mispredicted branch per entry cost more than the work. The greedy
//! pass writes each owner whether or not it changes and exits its loop
//! only on the list's end or a full quota; the level search sends a
//! visit with nothing to push to a sentinel process `m`, which sits at
//! level 0 and is never unlevelled, and advances its queue by the push
//! bit.
//!
//! The blocking-flow search is iterative: an augmenting path can be as
//! long as the graph (a chain of `m` processes gives one of `2m` edges),
//! and a recursion per level overflowed a pool worker's stack there.

use super::network::FlowWork;
#[cfg(test)]
use super::network::{FlowNetwork, Residual};
use crate::arena::NONE;
#[cfg(test)]
use crate::graph::BipartiteGraph;

/// Sorted per-process file lists, the only per-edge data the solve
/// reads: process `p`'s files are `keys[start[p]..start[p] + len[p]]`,
/// ascending and distinct, each below `n_files`. Processes may share a
/// span. A [`crate::BipartiteGraph`] converts into its process side as
/// stored.
#[derive(Debug, Clone, Copy)]
pub struct FileLists<'a> {
    n_files: usize,
    start: &'a [u32],
    len: &'a [u32],
    keys: &'a [u32],
}

impl<'a> FileLists<'a> {
    /// Lists over `n_files` files, one `start`/`len` pair per process.
    ///
    /// # Panics
    ///
    /// Panics unless `start` and `len` have one entry per process.
    pub fn new(n_files: usize, start: &'a [u32], len: &'a [u32], keys: &'a [u32]) -> Self {
        assert_eq!(start.len(), len.len(), "one span per process");
        FileLists {
            n_files,
            start,
            len,
            keys,
        }
    }

    fn n_procs(&self) -> usize {
        self.start.len()
    }

    fn files(&self, p: usize) -> &'a [u32] {
        &self.keys[self.start[p] as usize..][..self.len[p] as usize]
    }
}

/// A maximum flow of the single-data network, as [`bipartite_max_flow`]
/// leaves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteFlow {
    /// The process whose `p → f` edge carries file `f`'s unit of flow,
    /// [`NONE`] where none does.
    pub owner: Vec<u32>,
    /// Per process: the files its flow carries.
    pub load: Vec<usize>,
    /// The exact work of the solve. Every augmenting path carries one
    /// file, so `paths` is the flow value.
    pub work: FlowWork,
}

/// Computes the maximum flow of `s --(quota[p])--> p --(1)--> f --(1)--> t`
/// over the edges of `lists` (a [`FileLists`], or a graph's), in
/// `O(n + m)` `u32` scratch allocated once: an owner and a level per
/// file; a remaining quota, a level and a cursor per process; a layer
/// queue and a path stack.
///
/// # Panics
///
/// Panics unless `quota` has one entry per process, or if a vertex count
/// does not fit below [`NONE`].
pub fn bipartite_max_flow<'a>(lists: impl Into<FileLists<'a>>, quota: &[usize]) -> BipartiteFlow {
    let mut s = Search::new(lists.into(), quota);
    if s.first_phase() {
        s.levelled_phases();
    }
    s.into_flow(quota)
}

/// [`bipartite_max_flow`] with every phase levelled, the first one too:
/// the reference fact 5 is held to.
#[cfg(test)]
fn levelled_max_flow<'a>(lists: impl Into<FileLists<'a>>, quota: &[usize]) -> BipartiteFlow {
    let mut s = Search::new(lists.into(), quota);
    s.levelled_phases();
    s.into_flow(quota)
}

/// The residual state and the per-phase scratch of one solve.
struct Search<'g> {
    lists: FileLists<'g>,
    /// Per file: the process its unit of flow passes through.
    owner: Vec<u32>,
    /// Per process: residual capacity of its `s → p` edge.
    left: Vec<usize>,
    /// Per process, plus the sentinel `m` at level 0.
    proc_level: Vec<u32>,
    file_level: Vec<u32>,
    /// Per process: position in its list, reset each phase.
    cursor: Vec<u32>,
    /// Processes in level order: `m` of them at most, and a slot the
    /// level search writes past the end.
    queue: Vec<u32>,
    /// The processes of the path being searched, source side first.
    stack: Vec<u32>,
    work: FlowWork,
}

impl<'g> Search<'g> {
    fn new(lists: FileLists<'g>, quota: &[usize]) -> Self {
        let (m, n) = (lists.n_procs(), lists.n_files);
        assert_eq!(quota.len(), m, "one quota per process");
        assert!(
            u32::try_from(m.max(n)).is_ok_and(|v| v < NONE),
            "too many vertices ({m} processes, {n} files)"
        );
        let mut proc_level = vec![NONE; m + 1];
        proc_level[m] = 0;
        Search {
            lists,
            owner: vec![NONE; n],
            // No process can take more than every file, so the clamp
            // changes no admissibility test.
            left: quota.iter().map(|&q| q.min(n)).collect(),
            proc_level,
            file_level: vec![NONE; n],
            cursor: vec![0; m],
            queue: vec![0; m + 1],
            stack: Vec::with_capacity(m),
            work: FlowWork::default(),
        }
    }

    /// The flow, with each process's load read off the quota it has
    /// left.
    fn into_flow(mut self, quota: &[usize]) -> BipartiteFlow {
        let n = self.owner.len();
        for (left, &q) in self.left.iter_mut().zip(quota) {
            *left = q.min(n) - *left;
        }
        BipartiteFlow {
            owner: self.owner,
            load: self.left,
            work: self.work,
        }
    }

    /// The first phase in closed form (fact 5), on a search no phase has
    /// touched. Returns whether it reached `t`, which is whether a later
    /// phase can push anything.
    fn first_phase(&mut self) -> bool {
        self.work.phases += 1;
        let mut reached_t = false;
        for p in 0..self.left.len() {
            let quota = self.left[p];
            if quota == 0 {
                continue;
            }
            let files = self.lists.files(p);
            reached_t |= !files.is_empty();
            // `at` ends on the last take when the quota fills, at the
            // list's end when it does not: the cursor either way.
            let (mut left, mut at) = (quota, 0);
            while at < files.len() {
                let f = files[at] as usize;
                let o = self.owner[f];
                self.owner[f] = if o == NONE { p as u32 } else { o };
                left -= usize::from(o == NONE);
                if left == 0 {
                    break;
                }
                at += 1;
            }
            self.left[p] = left;
            self.work.paths += (quota - left) as u64;
            // The level search read the whole list; the blocking flow
            // read it up to the cursor.
            self.work.scanned += (files.len() + at) as u64;
        }
        reached_t
    }

    /// Levelled phases until `t` is out of reach.
    fn levelled_phases(&mut self) {
        loop {
            self.work.phases += 1;
            if !self.level() {
                break;
            }
            self.cursor.fill(0);
            for p in 0..self.left.len() {
                while self.left[p] > 0 && self.augment(p) {
                    self.left[p] -= 1;
                    self.work.paths += 1;
                }
            }
            // Every entry a process's cursor passed was read once.
            self.work.scanned += self.cursor.iter().map(|&c| u64::from(c)).sum::<u64>();
        }
    }

    /// Builds the level graph; returns whether `t` is reachable.
    fn level(&mut self) -> bool {
        let m = self.left.len();
        self.proc_level[..m].fill(NONE);
        self.file_level.fill(NONE);
        let mut len = 0;
        for (p, &left) in self.left.iter().enumerate() {
            if left > 0 {
                self.proc_level[p] = 1;
                self.queue[len] = p as u32;
                len += 1;
            }
        }
        let (mut head, mut level) = (0, 1);
        while head < len {
            let layer_end = len;
            let mut reached_t = false;
            while head < layer_end {
                let p = self.queue[head];
                head += 1;
                let files = self.lists.files(p as usize);
                self.work.scanned += files.len() as u64;
                for &f in files {
                    let f = f as usize;
                    let (o, at) = (self.owner[f], self.file_level[f]);
                    // `p → f` is full when `p` owns `f`.
                    let fresh = (at == NONE) & (o != p);
                    self.file_level[f] = if fresh { level + 1 } else { at };
                    // The file's one residual out-edge, taken at once:
                    // to `t`, or to its owner — the sentinel when free.
                    reached_t |= fresh & (o == NONE);
                    let q = if o == NONE { m } else { o as usize };
                    let push = fresh & (self.proc_level[q] == NONE);
                    self.proc_level[q] = if push { level + 2 } else { self.proc_level[q] };
                    self.queue[len] = q as u32;
                    len += usize::from(push);
                }
            }
            if reached_t {
                // The owners behind the last file layer sit at `t`'s
                // level, where no level path to `t` starts.
                for &q in &self.queue[layer_end..len] {
                    self.proc_level[q as usize] = NONE;
                }
                return true;
            }
            level += 2;
        }
        false
    }

    /// Looks for one augmenting path `s → root → … → t` in the level
    /// graph and pushes a unit along it. A frame is a process; the file
    /// under its cursor is the edge it is trying, and the step out of
    /// that file is forced (fact 2), so files need no frames.
    fn augment(&mut self, root: usize) -> bool {
        let lists = self.lists;
        self.stack.clear();
        self.stack.push(root as u32);
        'frames: while let Some(&p) = self.stack.last() {
            let files = lists.files(p as usize);
            let next = self.proc_level[p as usize] + 1;
            while let Some(&f) = files.get(self.cursor[p as usize] as usize) {
                let f = f as usize;
                if self.file_level[f] == next && self.owner[f] != p {
                    self.file_level[f] = NONE;
                    let q = self.owner[f];
                    if q == NONE {
                        // Every process on the path takes the file under
                        // its cursor; only the root's load grows.
                        for &u in &self.stack {
                            let at = self.cursor[u as usize] as usize;
                            self.owner[lists.files(u as usize)[at] as usize] = u;
                        }
                        return true;
                    }
                    if self.proc_level[q as usize] == next + 1 {
                        self.stack.push(q);
                        continue 'frames;
                    }
                }
                self.cursor[p as usize] += 1;
            }
            // `p` is exhausted, so its parent's edge into it failed.
            self.stack.pop();
            if let Some(&parent) = self.stack.last() {
                self.cursor[parent as usize] += 1;
            }
        }
        false
    }
}

/// The general-network Dinic the matcher ran before
/// [`bipartite_max_flow`], verbatim: the oracle it is held to.
#[cfg(test)]
pub(crate) fn max_flow(net: &mut FlowNetwork, s: usize, t: usize) -> u64 {
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
#[cfg(test)]
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
    use crate::maxflow::EdgeId;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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

    /// The single-data solve as the matcher ran it before the in-place
    /// solver: the network built in `files_raw` order (no `t` edge for a
    /// file an earlier tier `owned`), the oracle, and the read-back by
    /// consecutive edge ids.
    fn network_flow(graph: &BipartiteGraph, quota: &[usize], owned: &[bool]) -> (Vec<u32>, u64) {
        let (m, n) = (graph.n_procs(), graph.n_files());
        let (s, t) = (0, 1 + m + n);
        let mut net = FlowNetwork::with_capacity(t + 1, m + graph.edge_count() + n);
        for (p, &q) in quota.iter().enumerate() {
            if q > 0 {
                net.add_edge(s, 1 + p, q as u64);
            }
        }
        let first_match_edge = net.edge_count();
        for p in 0..m {
            for &f in graph.files_raw(p) {
                net.add_edge(1 + p, 1 + m + f as usize, 1);
            }
        }
        for f in (0..n).filter(|&f| !owned[f]) {
            net.add_edge(1 + m + f, t, 1);
        }
        let value = max_flow(&mut net, s, t);
        let mut owner = vec![NONE; n];
        let mut edge = 2 * first_match_edge;
        for p in 0..m {
            for &f in graph.files_raw(p) {
                if net.flow_on(EdgeId(edge)) == 1 {
                    owner[f as usize] = p as u32;
                }
                edge += 2;
            }
        }
        (owner, value)
    }

    /// Holds every owner and the flow value of the in-place solve equal
    /// to the oracle's, and its owners and work equal to the all-levelled
    /// reference's.
    fn assert_same_flow(graph: &BipartiteGraph, quota: &[usize], owned: &[bool], case: &str) {
        let (want, value) = network_flow(graph, quota, owned);
        let got = bipartite_max_flow(graph, quota);
        assert_eq!(got, levelled_max_flow(graph, quota), "{case}: levelled");
        assert_eq!(got.work.paths, value, "{case}: flow value");
        assert_eq!(got.owner, want, "{case}: owners");
        let taken = got.owner.iter().filter(|&&p| p != NONE).count();
        assert_eq!(taken as u64, value, "{case}: one file per unit");
        for (p, &q) in quota.iter().enumerate() {
            let load = got.owner.iter().filter(|&&o| o == p as u32).count();
            assert!(load <= q, "{case}: process {p} over its quota");
        }
    }

    #[test]
    fn the_closed_form_first_phase_repeats_the_levelled_one() {
        // Owners and work, phase for phase: random graphs whose quotas,
        // degrees and sizes reach every corner the greedy pass must count
        // as the level search did — zero quotas, processes and files with
        // no edge, no edges at all, more processes than files, quotas
        // above the file count.
        let mut rng = StdRng::seed_from_u64(0xD1_20);
        let mut shapes = [0usize; 3];
        for case in 0..6_000 {
            let m = rng.gen_range(1usize..12);
            let n = match case % 4 {
                0 => rng.gen_range(0..m),
                _ => rng.gen_range(0usize..40),
            };
            let mut g = BipartiteGraph::new(m, n);
            let density = [0u32, 10, 40, 90][rng.gen_range(0..4)];
            for p in 0..m {
                // A third of the processes isolated.
                if rng.gen_range(0u32..3) == 0 {
                    continue;
                }
                for f in 0..n {
                    if rng.gen_range(0u32..100) < density {
                        g.add_edge(p, f, 64);
                    }
                }
            }
            let quota: Vec<usize> = (0..m)
                .map(|_| [0, 0, 1, 2, rng.gen_range(0..=n + 2)][rng.gen_range(0..5)])
                .collect();
            let got = bipartite_max_flow(&g, &quota);
            assert_eq!(got, levelled_max_flow(&g, &quota), "case {case}");
            shapes[match (g.edge_count(), got.work.phases) {
                (0, _) => 0,
                (_, 1) => 1,
                _ => 2,
            }] += 1;
        }
        // Every shape occurred: no edges; edges, but none from a process
        // with quota; a first phase that pushes.
        assert!(shapes.iter().all(|&s| s > 0), "{shapes:?}");
    }

    #[test]
    fn the_first_phase_counts_its_reads_as_the_level_search_did() {
        // Process 0 (quota 1) takes file 0 and its cursor stops there;
        // process 1 (quota 0) reads nothing; process 2 (quota 2) finds
        // file 0 taken, takes 1 and 2, stops on 2. Phase 1 reads the
        // two lists with quota (2 + 3) and the cursors (0 + 2); phase 2
        // starts with no quota left and reads nothing.
        let mut g = BipartiteGraph::new(3, 4);
        for (p, f) in [(0, 0), (0, 3), (1, 0), (2, 0), (2, 1), (2, 2)] {
            g.add_edge(p, f, 64);
        }
        let flow = bipartite_max_flow(&g, &[1, 0, 2]);
        assert_eq!(flow.owner, [0, 2, 2, NONE]);
        assert_eq!(
            flow.work,
            FlowWork {
                phases: 2,
                paths: 3,
                scanned: 7,
            }
        );
        assert_eq!(flow, levelled_max_flow(&g, &[1, 0, 2]));
    }

    #[test]
    fn in_place_flows_repeat_the_oracle_on_residual_graphs() {
        // The matcher's own generator: some files already owned by an
        // earlier tier (no edge, no `t` edge), the rest on processes
        // with residual quota; zero residuals arise where a tier filled
        // a process, and files with no edge are isolated.
        let mut rng = StdRng::seed_from_u64(0xD1_1C);
        for case in 0..8_000 {
            let m = rng.gen_range(1usize..9);
            let n = rng.gen_range(0usize..48);
            let quota = crate::single_data::quotas(n, m);
            let mut load = vec![0usize; m];
            let owned_percent = [0, 25, 70][case % 3];
            let owned: Vec<bool> = (0..n)
                .map(|_| {
                    let p = rng.gen_range(0..m);
                    let own = rng.gen_range(0u32..100) < owned_percent && load[p] < quota[p];
                    load[p] += usize::from(own);
                    own
                })
                .collect();
            let mut g = BipartiteGraph::new(m, n);
            for _ in 0..rng.gen_range(0usize..140) {
                let (p, f) = (rng.gen_range(0..m), rng.gen_range(0..n.max(1)));
                if f < n && !owned[f] && load[p] < quota[p] {
                    g.add_edge(p, f, 64);
                }
            }
            let residual: Vec<usize> = (0..m).map(|p| quota[p] - load[p]).collect();
            assert_same_flow(&g, &residual, &owned, &format!("residual case {case}"));
        }
    }

    #[test]
    fn in_place_flows_repeat_the_oracle_on_skewed_quotas_and_shapes() {
        let mut rng = StdRng::seed_from_u64(0xD1_1D);
        for case in 0..8_000 {
            let shape = case % 4;
            let m = rng.gen_range(1usize..24);
            let n = match shape {
                // More processes than files.
                0 => rng.gen_range(0..m),
                _ => rng.gen_range(0usize..64),
            };
            let mut g = BipartiteGraph::new(m, n);
            match shape {
                // Every file on one process, a few strays elsewhere.
                1 => {
                    let hub = rng.gen_range(0..m);
                    for f in 0..n {
                        g.add_edge(hub, f, 64);
                        if rng.gen_range(0u32..8) == 0 {
                            g.add_edge(rng.gen_range(0..m), f, 64);
                        }
                    }
                }
                // Up to three replicas per file; a third of the files isolated.
                _ => {
                    for f in 0..n {
                        if rng.gen_range(0u32..3) > 0 {
                            for _ in 0..rng.gen_range(1usize..=3) {
                                g.add_edge(rng.gen_range(0..m), f, 64);
                            }
                        }
                    }
                }
            }
            // Even quotas, or arbitrary ones with zeros, edges and all.
            let quota: Vec<usize> = if shape == 3 {
                (0..m)
                    .map(|_| [0, 0, 1, rng.gen_range(0..=n)][rng.gen_range(0..4)])
                    .collect()
            } else {
                crate::single_data::quotas(n, m)
            };
            assert_same_flow(&g, &quota, &vec![false; n], &format!("shape case {case}"));
        }
    }

    #[test]
    fn in_place_flows_repeat_the_oracle_on_chains() {
        // Process `i` holds files `i` and `i + 1` and the last one file
        // 0, so one augmenting path crosses the whole chain; then the
        // same with a few random extra edges and uneven quotas.
        let mut rng = StdRng::seed_from_u64(0xD1_1E);
        for case in 0..3_000 {
            let m = rng.gen_range(2usize..200);
            let mut g = BipartiteGraph::new(m, m);
            for p in 0..m - 1 {
                g.add_edge(p, p, 64);
                g.add_edge(p, p + 1, 64);
            }
            g.add_edge(m - 1, 0, 64);
            if case % 2 == 1 {
                for _ in 0..rng.gen_range(0..4) {
                    g.add_edge(rng.gen_range(0..m), rng.gen_range(0..m), 64);
                }
            }
            let mut quota = vec![1; m];
            if case % 3 == 2 {
                let (from, to) = (rng.gen_range(0..m), rng.gen_range(0..m));
                quota[from] -= 1;
                quota[to] += 1;
            }
            assert_same_flow(&g, &quota, &vec![false; m], &format!("chain case {case}"));
        }
    }

    #[test]
    fn in_place_flows_repeat_the_oracle_on_replica_bounded_graphs() {
        // The planner's shape: 128 processes, `r` distinct holders per
        // file, even quotas; many small instances, then the real sizes.
        let m = 128;
        let mut rng = StdRng::seed_from_u64(0xD1_1F);
        let sizes: Vec<usize> = (0..1_200)
            .map(|_| rng.gen_range(1usize..640))
            .chain([1280, 2560, 5120, 10_240, 10_240])
            .collect();
        let mut nodes: Vec<usize> = (0..m).collect();
        for (case, n) in sizes.into_iter().enumerate() {
            let r = 1 + case % 3;
            let mut g = BipartiteGraph::new(m, n);
            for f in 0..n {
                nodes.shuffle(&mut rng);
                for &p in &nodes[..r] {
                    g.add_edge(p, f, 64);
                }
            }
            let quota = crate::single_data::quotas(n, m);
            assert_same_flow(&g, &quota, &vec![false; n], &format!("128 x {n}, r {r}"));
        }
    }
}
