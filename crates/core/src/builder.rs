//! Building matching inputs from the file-system layout.
//!
//! This is the "retrieve the data layout information from the underlying
//! distributed file system and build the locality relationship" step of
//! Section IV-A: a [`LayoutSnapshot`] plus a process placement become either
//! a [`BipartiteGraph`] (single-input tasks; graph file index = task index)
//! or a [`MatchingValues`] table (multi-input tasks; value = co-located
//! bytes summed over the task's inputs).

use opass_dfs::{ChunkId, LayoutSnapshot, Namenode, NodeId, RackMap};
use opass_matching::{BipartiteGraph, MatchingValues};
use opass_runtime::ProcessPlacement;
use opass_workloads::Workload;
use std::collections::BTreeMap;

/// Builds the process↔chunk locality graph for a single-input workload.
///
/// Task `t` of the workload maps to file vertex `t`.
///
/// # Panics
///
/// Panics if any task has more than one input (use
/// [`build_matching_values`] for those).
pub fn build_locality_graph(
    namenode: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
) -> BipartiteGraph {
    let snapshot = capture_workload_layout(namenode, workload);
    build_locality_graph_from_layout(&snapshot, placement)
}

/// Captures the layout snapshot of a single-input workload: one entry per
/// task, in task order (the order defines the graph's file indexing).
///
/// This is the only step of single-data planning that talks to the
/// namenode; the snapshot can be cached and re-planned against via
/// [`build_locality_graph_from_layout`] without repeating the walk.
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
    // Procs per node, indexed by raw node id for O(1) lookups (nodes
    // hosting no process simply have no slot or an empty one).
    let mut procs_on: Vec<Vec<usize>> = Vec::new();
    for proc in 0..placement.n_procs() {
        let i = placement.node_of(proc).index();
        if i >= procs_on.len() {
            procs_on.resize_with(i + 1, Vec::new);
        }
        procs_on[i].push(proc);
    }
    // Procs co-located with one replica holder (none for a node that
    // hosts no process).
    let procs_at = |node: &NodeId| procs_on.get(node.index()).map_or(&[][..], Vec::as_slice);
    // Counting pass: replica holders are distinct nodes and every proc
    // sits on one node, so these are the exact degrees — the graph is
    // laid out once, with no growth slack for a session to hold on to.
    let mut proc_degrees = vec![0u32; placement.n_procs()];
    let mut file_degrees = vec![0u32; snapshot.len()];
    for (entry, degree) in snapshot.entries().iter().zip(&mut file_degrees) {
        for &p in entry.locations.iter().flat_map(procs_at) {
            proc_degrees[p] += 1;
            *degree += 1;
        }
    }
    let mut graph = BipartiteGraph::with_degrees(proc_degrees, file_degrees);
    // One pass over entries × replica locations — O(edges) — instead of
    // a per-proc `colocated_with` scan, which is O(procs × entries).
    // The graph stores sorted adjacency spans, so the build order cannot
    // leak into the result; tasks arrive in ascending order, which every
    // proc's span takes as a plain append.
    for (task_idx, entry) in snapshot.entries().iter().enumerate() {
        for &p in entry.locations.iter().flat_map(procs_at) {
            graph.add_edge(p, task_idx, entry.size);
        }
    }
    graph
}

/// Builds the *rack-level* locality graph for a single-input workload:
/// an edge wherever a replica of the task's chunk lives in the process's
/// rack (the second tier of the rack-locality extension).
///
/// # Panics
///
/// Panics if any task has more than one input.
pub fn build_rack_graph(
    namenode: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
    racks: &RackMap,
) -> BipartiteGraph {
    let chunks: Vec<ChunkId> = workload
        .tasks
        .iter()
        .map(|t| {
            assert_eq!(t.inputs.len(), 1, "rack graph requires single-input tasks");
            t.inputs[0]
        })
        .collect();
    let snapshot = LayoutSnapshot::capture(namenode, &chunks);
    let mut graph = BipartiteGraph::new(placement.n_procs(), workload.len());
    for proc in 0..placement.n_procs() {
        let node = placement.node_of(proc);
        let rack = racks.rack_of(node);
        for (task_idx, entry) in snapshot.entries().iter().enumerate() {
            if entry
                .locations
                .iter()
                .any(|&holder| racks.rack_of(holder) == rack)
            {
                graph.add_edge(proc, task_idx, entry.size);
            }
        }
    }
    graph
}

/// Processes hosted on each node.
pub(crate) fn procs_per_node(placement: &ProcessPlacement) -> BTreeMap<NodeId, Vec<usize>> {
    let mut procs_on: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for proc in 0..placement.n_procs() {
        procs_on
            .entry(placement.node_of(proc))
            .or_default()
            .push(proc);
    }
    procs_on
}

/// Credits one chunk of `size` bytes, replicated at `locations`, to the
/// matching value between every process on a replica holder and each of
/// the `tasks` that read it.
pub(crate) fn add_colocated(
    values: &mut MatchingValues,
    procs_on: &BTreeMap<NodeId, Vec<usize>>,
    locations: &[NodeId],
    tasks: &[usize],
    size: u64,
) {
    for node in locations {
        if let Some(procs) = procs_on.get(node) {
            for &p in procs {
                for &t in tasks {
                    values.add(p, t, size);
                }
            }
        }
    }
}

/// Builds the matching-value table `m_i^j = |d(p_i) ∩ d(t_j)|` for an
/// arbitrary (possibly multi-input) workload.
pub fn build_matching_values(
    namenode: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
) -> MatchingValues {
    let mut values = MatchingValues::new(placement.n_procs(), workload.len());
    let procs_on = procs_per_node(placement);
    // Task-major, so every process is fed its tasks in ascending order —
    // the order `MatchingValues::add` appends without searching.
    for (task_idx, task) in workload.tasks.iter().enumerate() {
        for &chunk in &task.inputs {
            let meta = namenode
                .chunk(chunk)
                .expect("workload references unknown chunk");
            add_colocated(
                &mut values,
                &procs_on,
                &meta.locations,
                &[task_idx],
                meta.size,
            );
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_dfs::{DatasetSpec, DfsConfig, NodeId, Placement};
    use opass_workloads::Task;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn rack_graph_is_superset_of_node_graph() {
        let (nn, chunks) = fs(8, 16, 64);
        let w = Workload::new("w", chunks.iter().map(|&c| Task::single(c)).collect());
        let placement = ProcessPlacement::one_per_node(8);
        let racks = RackMap::uniform(8, 4);
        let node_g = build_locality_graph(&nn, &w, &placement);
        let rack_g = build_rack_graph(&nn, &w, &placement, &racks);
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
    #[should_panic(expected = "single-input tasks")]
    fn graph_rejects_multi_input_tasks() {
        let (nn, chunks) = fs(3, 2, 5);
        let w = Workload::new("w", vec![Task::multi(vec![chunks[0], chunks[1]])]);
        build_locality_graph(&nn, &w, &ProcessPlacement::one_per_node(3));
    }
}
