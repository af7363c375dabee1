//! Building matching inputs from the file-system layout.
//!
//! This is the "retrieve the data layout information from the underlying
//! distributed file system and build the locality relationship" step of
//! Section IV-A: a [`LayoutSnapshot`] plus a process placement become either
//! a [`BipartiteGraph`] (single-input tasks; graph file index = task index)
//! or a [`MatchingValues`] table (multi-input tasks; value = co-located
//! bytes summed over the task's inputs).
//!
//! Every builder reads a layout and nothing else, walking its replica
//! locations through one dense table of the processes on each node (or
//! rack), so each costs O(edges). The namenode is read once per
//! request, by the capture that turns a workload into its layout
//! ([`capture_workload_layout`] for single-input tasks); a captured
//! snapshot can be cached and planned against again without the walk.

use opass_dfs::{ChunkId, ChunkLayout, LayoutSnapshot, Namenode, NodeId, RackMap};
use opass_matching::maxflow::dinic::FileLists;
use opass_matching::{BipartiteGraph, MatchingValues};
use opass_runtime::ProcessPlacement;
use opass_workloads::Workload;
use std::borrow::Cow;

/// Captures the layout snapshot of a single-input workload: one entry per
/// task, in task order (the order defines the graph's file indexing).
///
/// # Panics
///
/// Panics if any task has more than one input.
pub fn capture_workload_layout(namenode: &Namenode, workload: &Workload) -> LayoutSnapshot {
    let chunks: Vec<ChunkId> = workload
        .tasks
        .iter()
        .map(|t| {
            assert_eq!(
                t.inputs.len(),
                1,
                "single-data graph requires single-input tasks"
            );
            t.inputs[0]
        })
        .collect();
    LayoutSnapshot::capture(namenode, &chunks)
}

/// Builds the process↔chunk locality graph from an already-captured
/// layout snapshot (entry `i` = task `i` = file vertex `i`).
///
/// Pure function of its inputs: no namenode access, safe to call from any
/// thread against a shared snapshot.
pub fn build_locality_graph_from_layout(
    snapshot: &LayoutSnapshot,
    placement: &ProcessPlacement,
) -> BipartiteGraph {
    grouped_graph(snapshot, &ProcsOn::nodes(placement), NodeId::index, true)
}

/// Builds the *rack-level* locality graph from a layout snapshot (entry
/// `i` = file vertex `i`): an edge wherever a replica of the chunk lives
/// in the process's rack (the second tier of the rack-locality
/// extension). Built from each entry's distinct holder racks and the
/// processes on each, so it costs O(edges), and laid out exactly.
pub fn build_rack_graph(
    snapshot: &LayoutSnapshot,
    placement: &ProcessPlacement,
    racks: &RackMap,
) -> BipartiteGraph {
    let rack_of = |node: NodeId| racks.rack_of(node) as usize;
    let procs_on_rack = ProcsOn::grouped(placement.n_procs(), |p| rack_of(placement.node_of(p)));
    grouped_graph(snapshot, &procs_on_rack, rack_of, false)
}

/// Builds the matching-value table `m_i^j = |d(p_i) ∩ d(t_j)|` for an
/// arbitrary (possibly multi-input) workload: its layout is captured from
/// the namenode, then tabulated like every other request's.
pub fn build_matching_values(
    namenode: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
) -> MatchingValues {
    TaskLayout::of(namenode, workload).values(placement)
}

/// Processes grouped by a dense index — the node they run on, or its
/// rack — in one flat table: group `g` holds
/// `procs[starts[g]..starts[g + 1]]`, ascending.
#[derive(Debug, Clone)]
pub(crate) struct ProcsOn {
    starts: Vec<usize>,
    procs: Vec<usize>,
}

impl ProcsOn {
    /// The processes on each node.
    pub(crate) fn nodes(placement: &ProcessPlacement) -> Self {
        Self::grouped(placement.n_procs(), |p| placement.node_of(p).index())
    }

    /// Processes `0..n_procs` grouped by `group_of`, by one stable
    /// counting sort.
    fn grouped(n_procs: usize, group_of: impl Fn(usize) -> usize) -> Self {
        let span = (0..n_procs).map(&group_of).max().map_or(0, |g| g + 1);
        let mut starts = vec![0usize; span + 1];
        for p in 0..n_procs {
            starts[group_of(p) + 1] += 1;
        }
        for g in 0..span {
            starts[g + 1] += starts[g];
        }
        // Each group's start serves as its write cursor and ends at the
        // next group's start; one shift restores the starts.
        let mut procs = vec![0usize; n_procs];
        for p in 0..n_procs {
            let cursor = &mut starts[group_of(p)];
            procs[*cursor] = p;
            *cursor += 1;
        }
        starts.copy_within(0..span, 1);
        starts[0] = 0;
        ProcsOn { starts, procs }
    }

    /// The processes of group `group` (none past the last group).
    pub(crate) fn at(&self, group: usize) -> &[usize] {
        match self.starts.get(group..group + 2) {
            Some(&[lo, hi]) => &self.procs[lo..hi],
            _ => &[],
        }
    }

    /// Number of processes.
    pub(crate) fn n_procs(&self) -> usize {
        self.procs.len()
    }
}

/// Every node's files in ascending order, as the per-process lists the
/// in-place max-flow reads (`matching::maxflow::dinic::FileLists`): a
/// process's list in the locality graph is its node's list, so the
/// processes on one node share one span, and a cold plan builds these
/// instead of the graph — no file side, no weights. Holders on nodes
/// with no process are skipped.
#[derive(Debug)]
pub(crate) struct NodeLists {
    n_files: usize,
    /// Per process, where its node's span starts in `keys`; then, per
    /// process, the span's length.
    spans: Vec<u32>,
    keys: Vec<u32>,
}

impl NodeLists {
    /// One counting sort over the snapshot's replica lists: count each
    /// node's files, turn the counts into span ends, then write the
    /// files in descending order just below their nodes' ends, which
    /// leaves every span ascending and every end at its start.
    pub(crate) fn build(snapshot: &LayoutSnapshot, procs_on: &ProcsOn) -> Self {
        let entries = snapshot.entries();
        let n_nodes = procs_on.starts.len() - 1;
        let hosts = |node: NodeId| {
            let g = node.index();
            g < n_nodes && procs_on.starts[g] < procs_on.starts[g + 1]
        };
        let mut at = vec![0u32; n_nodes + 1];
        for entry in entries.iter() {
            for &node in entry.locations.iter().filter(|&&n| hosts(n)) {
                at[node.index()] += 1;
            }
        }
        let mut end = 0u32;
        for a in &mut at {
            end += *a;
            *a = end;
        }
        let mut keys = vec![0u32; end as usize];
        for (f, entry) in entries.iter().enumerate().rev() {
            for &node in entry.locations.iter().filter(|&&n| hosts(n)) {
                let slot = &mut at[node.index()];
                *slot -= 1;
                keys[*slot as usize] = f as u32;
            }
        }
        let m = procs_on.n_procs();
        let mut spans = vec![0u32; 2 * m];
        for g in 0..n_nodes {
            for &p in procs_on.at(g) {
                spans[p] = at[g];
                spans[m + p] = at[g + 1] - at[g];
            }
        }
        NodeLists {
            n_files: entries.len(),
            spans,
            keys,
        }
    }

    /// The lists, as the max-flow reads them.
    pub(crate) fn lists(&self) -> FileLists<'_> {
        let (start, len) = self.spans.split_at(self.spans.len() / 2);
        FileLists::new(self.n_files, start, len, &self.keys)
    }
}

/// The graph with an edge of the entry's size between every entry of
/// `snapshot` (file vertex = entry index) and every process in a group
/// holding one of its replicas, `group_of` mapping holders to groups.
/// `one_to_one` says that `group_of` never maps two nodes to one group,
/// so a chunk's replicas, on distinct nodes, name distinct groups with
/// no check.
///
/// A counting pass first, so the graph is laid out at its exact degrees
/// with no growth slack for a session to hold on to; then one pass
/// writes each entry's processes and weights, sorting a span only when
/// its groups did not already arrive in process order, and the graph
/// takes them as its file side and counting-sorts its process side.
fn grouped_graph(
    snapshot: &LayoutSnapshot,
    groups: &ProcsOn,
    group_of: impl Fn(NodeId) -> usize,
    one_to_one: bool,
) -> BipartiteGraph {
    let entries = snapshot.entries();
    let mut n_edges = 0;
    let degrees: Vec<u32> = entries
        .iter()
        .map(|entry| {
            let mut degree = 0;
            holder_procs(entry, groups, &group_of, one_to_one, |procs| {
                degree += procs.len()
            });
            n_edges += degree;
            degree as u32
        })
        .collect();
    let mut procs: Vec<u32> = Vec::with_capacity(n_edges);
    let mut bytes: Vec<u64> = Vec::with_capacity(n_edges);
    for entry in entries.iter() {
        let span = procs.len();
        holder_procs(entry, groups, &group_of, one_to_one, |group| {
            for &p in group {
                procs.push(p as u32);
                bytes.push(entry.size);
            }
        });
        let span = &mut procs[span..];
        if span.windows(2).any(|w| w[0] > w[1]) {
            span.sort_unstable();
        }
    }
    BipartiteGraph::from_file_spans(groups.n_procs(), degrees, procs, bytes)
}

/// Visits the processes of each group holding a replica of `entry`, in
/// replica order, each group once: at its first holder, unless
/// `one_to_one` says every holder names its own group.
fn holder_procs(
    entry: &ChunkLayout,
    groups: &ProcsOn,
    group_of: &impl Fn(NodeId) -> usize,
    one_to_one: bool,
    mut visit: impl FnMut(&[usize]),
) {
    let holders = &entry.locations[..];
    for (k, &node) in holders.iter().enumerate() {
        let group = group_of(node);
        if one_to_one || holders[..k].iter().all(|&m| group_of(m) != group) {
            visit(groups.at(group));
        }
    }
}

/// Builds the matching-value table: for each `(entry, task)` read, the
/// entry's size is credited between `task` and every process on one of
/// the entry's replica holders. Reads fed task-major give every process
/// its tasks in ascending order, the order `MatchingValues::add` appends
/// without searching; any other order builds the same table.
pub(crate) fn build_values(
    snapshot: &LayoutSnapshot,
    reads: impl IntoIterator<Item = (usize, usize)>,
    procs_on: &ProcsOn,
    n_tasks: usize,
) -> MatchingValues {
    let mut values = MatchingValues::new(procs_on.n_procs(), n_tasks);
    let entries = snapshot.entries();
    for (entry, task) in reads {
        let entry = &entries[entry];
        for &p in entry.locations.iter().flat_map(|n| procs_on.at(n.index())) {
            values.add(p, task, entry.size);
        }
    }
    values
}

/// What every planning mode reads: one layout entry per task input, in
/// task order — borrowed from the caller or captured from a namenode.
#[derive(Debug, Clone)]
pub(crate) struct TaskLayout<'a> {
    snapshot: Cow<'a, LayoutSnapshot>,
    /// Task `t` reads entries `offsets[t]..offsets[t + 1]`; `None` when
    /// every task reads exactly one entry, task `t` entry `t`.
    offsets: Option<Vec<usize>>,
}

impl<'a> TaskLayout<'a> {
    /// A single-input layout: entry `t` is task `t`'s one input.
    pub(crate) fn single_input(snapshot: &'a LayoutSnapshot) -> Self {
        TaskLayout {
            snapshot: Cow::Borrowed(snapshot),
            offsets: None,
        }
    }

    /// Captures every task input of `workload` from the namenode. A
    /// single-input workload captures exactly [`capture_workload_layout`].
    pub(crate) fn of(namenode: &Namenode, workload: &Workload) -> TaskLayout<'static> {
        if workload.tasks.iter().all(|t| t.inputs.len() == 1) {
            return TaskLayout {
                snapshot: Cow::Owned(capture_workload_layout(namenode, workload)),
                offsets: None,
            };
        }
        let mut inputs = Vec::new();
        let mut offsets = Vec::with_capacity(workload.len() + 1);
        offsets.push(0);
        for task in &workload.tasks {
            inputs.extend_from_slice(&task.inputs);
            offsets.push(inputs.len());
        }
        TaskLayout {
            snapshot: Cow::Owned(LayoutSnapshot::capture(namenode, &inputs)),
            offsets: Some(offsets),
        }
    }

    /// Every entry, in task order.
    pub(crate) fn snapshot(&self) -> &LayoutSnapshot {
        &self.snapshot
    }

    /// The single-input snapshot (entry `t` = task `t`).
    ///
    /// # Panics
    ///
    /// Panics if some task has other than one input.
    pub(crate) fn single(&self) -> &LayoutSnapshot {
        assert!(
            self.is_single_input(),
            "single-data graph requires single-input tasks"
        );
        &self.snapshot
    }

    /// Whether every task reads exactly one entry.
    pub(crate) fn is_single_input(&self) -> bool {
        self.offsets.is_none()
    }

    /// Number of tasks.
    pub(crate) fn n_tasks(&self) -> usize {
        self.offsets
            .as_ref()
            .map_or(self.snapshot.len(), |o| o.len() - 1)
    }

    /// Every `(entry, task)` read, task-major.
    pub(crate) fn reads(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_tasks()).flat_map(move |t| {
            let inputs = self.offsets.as_ref().map_or(t..t + 1, |o| o[t]..o[t + 1]);
            inputs.map(move |i| (i, t))
        })
    }

    /// The matching-value table of these reads.
    pub(crate) fn values(&self, placement: &ProcessPlacement) -> MatchingValues {
        build_values(
            &self.snapshot,
            self.reads(),
            &ProcsOn::nodes(placement),
            self.n_tasks(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_dfs::{DatasetSpec, DfsConfig, NodeId, Placement};
    use opass_workloads::Task;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fs(n_nodes: usize, n_chunks: usize, size: u64) -> (Namenode, Vec<ChunkId>) {
        let mut nn = Namenode::new(n_nodes, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(21);
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("d", n_chunks, size),
            &Placement::Random,
            &mut rng,
        );
        let chunks = nn.dataset(ds).unwrap().chunks.clone();
        (nn, chunks)
    }

    fn build_locality_graph(
        nn: &Namenode,
        w: &Workload,
        placement: &ProcessPlacement,
    ) -> BipartiteGraph {
        build_locality_graph_from_layout(&capture_workload_layout(nn, w), placement)
    }

    #[test]
    fn graph_edges_match_namenode_colocations() {
        let (nn, chunks) = fs(6, 12, 64);
        let w = Workload::new("w", chunks.iter().map(|&c| Task::single(c)).collect());
        let placement = ProcessPlacement::one_per_node(6);
        let g = build_locality_graph(&nn, &w, &placement);
        assert_eq!(g.n_procs(), 6);
        assert_eq!(g.n_files(), 12);
        for p in 0..6 {
            for (t, size) in g.files_of(p) {
                assert_eq!(size, 64);
                assert!(nn.chunk(chunks[t]).unwrap().is_on(NodeId(p as u32)));
            }
        }
        // Every chunk has r=3 co-located procs (one proc per node).
        let total_edges: usize = (0..12).map(|f| g.procs_of(f).count()).sum();
        assert_eq!(total_edges, 12 * 3);
    }

    #[test]
    fn matching_values_sum_colocated_input_bytes() {
        let (nn, chunks) = fs(6, 6, 10);
        // Tasks pair consecutive chunks: inputs of sizes 10+10.
        let w = Workload::new(
            "w",
            (0..3)
                .map(|i| Task::multi(vec![chunks[2 * i], chunks[2 * i + 1]]))
                .collect(),
        );
        let placement = ProcessPlacement::one_per_node(6);
        let values = build_matching_values(&nn, &w, &placement);
        for (t, task) in w.tasks.iter().enumerate() {
            for p in 0..6 {
                let expected: u64 = task
                    .inputs
                    .iter()
                    .filter(|&&c| nn.chunk(c).unwrap().is_on(NodeId(p as u32)))
                    .map(|&c| nn.chunk(c).unwrap().size)
                    .sum();
                assert_eq!(values.value(p, t), expected, "p={p} t={t}");
            }
        }
    }

    #[test]
    fn multiple_procs_per_node_share_locality() {
        let (nn, chunks) = fs(3, 3, 5);
        let w = Workload::new("w", chunks.iter().map(|&c| Task::single(c)).collect());
        let placement = ProcessPlacement::round_robin(6, 3);
        let g = build_locality_graph(&nn, &w, &placement);
        // Ranks r and r+3 sit on the same node and must have equal edges.
        for r in 0..3 {
            assert_eq!(
                g.files_of(r).collect::<Vec<_>>(),
                g.files_of(r + 3).collect::<Vec<_>>()
            );
        }
    }

    /// The rack graph as every process × every entry scan: O(m · n · r).
    fn rack_graph_by_scan(
        snapshot: &LayoutSnapshot,
        placement: &ProcessPlacement,
        racks: &RackMap,
    ) -> BipartiteGraph {
        let mut graph = BipartiteGraph::new(placement.n_procs(), snapshot.len());
        for proc in 0..placement.n_procs() {
            let rack = racks.rack_of(placement.node_of(proc));
            for (task_idx, entry) in snapshot.entries().iter().enumerate() {
                if entry.locations.iter().any(|&h| racks.rack_of(h) == rack) {
                    graph.add_edge(proc, task_idx, entry.size);
                }
            }
        }
        graph
    }

    #[test]
    fn rack_graph_equals_the_process_by_entry_scan() {
        // Processes on some nodes only, several on one node, none on
        // others; racks of unequal size; chunks of two sizes.
        let mut rng = StdRng::seed_from_u64(0x5AC4);
        for case in 0..24 {
            let n_nodes = rng.gen_range(3..24);
            let (nn, chunks) = fs(n_nodes, rng.gen_range(0..60), 8 + case);
            let snapshot = LayoutSnapshot::capture(&nn, &chunks);
            let n_procs = rng.gen_range(1..2 * n_nodes);
            let placement = ProcessPlacement::explicit(
                (0..n_procs)
                    .map(|_| NodeId(rng.gen_range(0..n_nodes as u32)))
                    .collect(),
            );
            let racks = RackMap::explicit(
                (0..n_nodes)
                    .map(|n| (n / rng.gen_range(1..4)) as u32)
                    .collect(),
            );
            let want = rack_graph_by_scan(&snapshot, &placement, &racks);
            let got = build_rack_graph(&snapshot, &placement, &racks);
            assert_eq!(got.edge_count(), want.edge_count(), "case {case}");
            for p in 0..n_procs {
                assert_eq!(
                    got.files_of(p).collect::<Vec<_>>(),
                    want.files_of(p).collect::<Vec<_>>(),
                    "case {case}: process {p}"
                );
            }
        }
    }

    #[test]
    fn rack_graph_is_superset_of_node_graph() {
        let (nn, chunks) = fs(8, 16, 64);
        let w = Workload::new("w", chunks.iter().map(|&c| Task::single(c)).collect());
        let placement = ProcessPlacement::one_per_node(8);
        let racks = RackMap::uniform(8, 4);
        let node_g = build_locality_graph(&nn, &w, &placement);
        let rack_g = build_rack_graph(&capture_workload_layout(&nn, &w), &placement, &racks);
        for p in 0..8 {
            for (f, _) in node_g.files_of(p) {
                assert!(
                    rack_g.weight(p, f).is_some(),
                    "node edge ({p},{f}) missing from rack graph"
                );
            }
        }
        assert!(rack_g.edge_count() >= node_g.edge_count());
    }

    #[test]
    fn procs_on_groups_every_process_once_in_ascending_order() {
        let placement =
            ProcessPlacement::explicit([4, 0, 4, 2, 0, 4].into_iter().map(NodeId).collect());
        let on = ProcsOn::nodes(&placement);
        assert_eq!(on.n_procs(), 6);
        for (node, want) in [
            (0, &[1, 4][..]),
            (1, &[]),
            (2, &[3]),
            (3, &[]),
            (4, &[0, 2, 5]),
        ] {
            assert_eq!(on.at(node), want, "node {node}");
        }
        assert!(on.at(5).is_empty() && on.at(99).is_empty());
        let empty = ProcsOn::nodes(&ProcessPlacement::explicit(Vec::new()));
        assert!(empty.at(0).is_empty());
    }

    #[test]
    fn a_task_layout_reads_its_inputs_task_major() {
        let (nn, chunks) = fs(4, 4, 5);
        let single = Workload::new("s", chunks.iter().map(|&c| Task::single(c)).collect());
        let layout = TaskLayout::of(&nn, &single);
        assert_eq!(layout.single(), &capture_workload_layout(&nn, &single));
        assert_eq!(
            layout.reads().collect::<Vec<_>>(),
            vec![(0, 0), (1, 1), (2, 2), (3, 3)]
        );
        let multi = Workload::new(
            "m",
            vec![
                Task::multi(vec![chunks[2], chunks[0]]),
                Task::multi(vec![chunks[3]]),
                Task::multi(vec![chunks[1], chunks[2], chunks[3]]),
            ],
        );
        let layout = TaskLayout::of(&nn, &multi);
        assert_eq!(layout.n_tasks(), 3);
        let read: Vec<ChunkId> = layout
            .snapshot()
            .entries()
            .iter()
            .map(|e| e.chunk)
            .collect();
        assert_eq!(read, [2, 0, 3, 1, 2, 3].map(|i| chunks[i]));
        assert_eq!(
            layout.reads().collect::<Vec<_>>(),
            vec![(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 2)]
        );
    }

    #[test]
    #[should_panic(expected = "single-input tasks")]
    fn graph_rejects_multi_input_tasks() {
        let (nn, chunks) = fs(3, 2, 5);
        let w = Workload::new("w", vec![Task::multi(vec![chunks[0], chunks[1]])]);
        build_locality_graph(&nn, &w, &ProcessPlacement::one_per_node(3));
    }
}
