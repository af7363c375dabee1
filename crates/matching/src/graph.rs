//! The process-to-data bipartite graph (paper Section IV-A, Figure 4).
//!
//! Vertices are parallel processes on one side and chunk files on the other.
//! An edge `(p, f)` means a replica of `f` lives on the node where process
//! `p` runs; its weight is the number of bytes of `f` that `p` could read
//! locally — the full chunk size in HDFS, since replication is
//! whole-chunk, so every edge of a file weighs the file's size.
//! Opass builds this graph from the file-system layout and feeds it to the
//! matchers in [`crate::single_data`] and [`crate::multi_data`].
//!
//! Storage is struct-of-arrays: both adjacency mirrors live in pooled
//! [`crate::arena::AdjPool`] spans of `u32` keys, so the repair searches
//! in [`crate::incremental`] iterate neighbors as dense `u32` slices
//! instead of chasing per-vertex allocations. The weight is stored once
//! per file, as its size; both sides are keys only.

use crate::arena::AdjPool;
use crate::maxflow::dinic::FileLists;

/// Weighted bipartite graph between `n_procs` processes and `n_files` files.
///
/// Indices are dense (`0..n_procs`, `0..n_files`); richer identifiers are
/// mapped by the caller. Every edge of a file weighs the file's size, and
/// adding an edge sets that size (last write wins), so replaying a layout
/// delta is idempotent and the weight always reflects the latest chunk
/// size. The graph is mutable in both directions — edges and vertices can
/// be added and removed without a rebuild — and every mutation preserves
/// the structural invariant that the proc-side and file-side pools are
/// exact sorted mirrors of each other.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    /// Per-process adjacency spans: sorted file keys.
    procs: AdjPool,
    /// Per-file adjacency spans: sorted proc keys.
    files: AdjPool,
    /// Per-file size in bytes: the weight of each of the file's edges.
    sizes: Vec<u64>,
    edges: usize,
}

impl BipartiteGraph {
    /// Creates an empty graph with the given vertex counts; every file's
    /// size is set by its first edge.
    pub fn new(n_procs: usize, n_files: usize) -> Self {
        BipartiteGraph {
            procs: AdjPool::with_vertices(n_procs),
            files: AdjPool::with_vertices(n_files),
            sizes: vec![0; n_files],
            edges: 0,
        }
    }

    /// Builds the graph from every file's edges at once: file `f`'s
    /// edges are the next `degrees[f]` entries of `procs` (ascending,
    /// distinct), each weighing `sizes[f]`. The file side takes the
    /// vectors as its spans and the process side is filled by one
    /// counting sort over them, so both are laid out at their exact
    /// degrees plus the pool's fixed headroom, sorted, with no search or
    /// shift. The graph mutates afterwards like any other.
    ///
    /// # Panics
    ///
    /// Panics if the degrees do not cover `procs`, a process index is
    /// out of range, a file's processes do not ascend, a file with edges
    /// has size zero, or there is not one size per file.
    pub fn from_file_spans(
        n_procs: usize,
        degrees: Vec<u32>,
        procs: Vec<u32>,
        sizes: Vec<u64>,
    ) -> Self {
        let files = AdjPool::from_spans(degrees, procs);
        // Process degrees, checked edge by edge as they are counted; then
        // a counting sort in the same array: the degrees become span
        // ends, each file (descending) is written just below its
        // processes' ends, which leaves every span ascending and every
        // end at its start; the starts then turn back into lengths.
        let mut at = vec![0u32; n_procs];
        for (f, &size) in sizes.iter().enumerate().take(files.n_vertices()) {
            let keys = files.keys_of(f);
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "file {f}: processes must ascend"
            );
            assert!(
                keys.is_empty() || size > 0,
                "locality edges must carry positive bytes"
            );
            for &p in keys {
                assert!((p as usize) < n_procs, "process index {p} out of range");
                at[p as usize] += 1;
            }
        }
        assert_eq!(sizes.len(), files.n_vertices(), "one size per file");
        let edges = files.total_len();
        let mut end = 0u32;
        for d in &mut at {
            end += *d;
            *d = end;
        }
        let mut keys = vec![0u32; edges];
        for f in (0..files.n_vertices()).rev() {
            for &p in files.keys_of(f) {
                let slot = &mut at[p as usize];
                *slot -= 1;
                keys[*slot as usize] = f as u32;
            }
        }
        for p in 0..n_procs {
            let next = at.get(p + 1).copied().unwrap_or(edges as u32);
            at[p] = next - at[p];
        }
        BipartiteGraph {
            procs: AdjPool::from_spans(at, keys),
            files,
            sizes,
            edges,
        }
    }

    /// Number of process vertices.
    pub fn n_procs(&self) -> usize {
        self.procs.n_vertices()
    }

    /// Number of file vertices.
    pub fn n_files(&self) -> usize {
        self.files.n_vertices()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds the locality edge between `proc` and `file` if it is absent,
    /// and sets the file's size to `bytes`. Both adjacency mirrors stay
    /// sorted.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `bytes` is zero.
    pub fn add_edge(&mut self, proc: usize, file: usize, bytes: u64) {
        assert!(proc < self.n_procs(), "process index {proc} out of range");
        assert!(file < self.n_files(), "file index {file} out of range");
        assert!(bytes > 0, "locality edges must carry positive bytes");
        if self.procs.insert(proc, file as u32) {
            self.files.insert(file, proc as u32);
            self.edges += 1;
        }
        self.sizes[file] = bytes;
    }

    /// Removes the edge between `proc` and `file`. Returns whether the
    /// edge existed. Both adjacency mirrors stay sorted.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn remove_edge(&mut self, proc: usize, file: usize) -> bool {
        assert!(proc < self.n_procs(), "process index {proc} out of range");
        assert!(file < self.n_files(), "file index {file} out of range");
        if self.procs.remove(proc, file as u32) {
            let mirrored = self.files.remove(file, proc as u32);
            debug_assert!(mirrored, "adjacency mirrors agree");
            self.edges -= 1;
            true
        } else {
            false
        }
    }

    /// Appends a new file vertex of `size` bytes with no edges; returns
    /// its index.
    pub fn push_file(&mut self, size: u64) -> usize {
        self.sizes.push(size);
        self.files.push_vertex()
    }

    /// Removes file vertex `file` and all its edges; files above it shift
    /// down by one (the same order-preserving compaction a layout snapshot
    /// applies when a chunk leaves scope). O(n_files + edges).
    ///
    /// # Panics
    ///
    /// Panics if `file` is out of range.
    pub fn remove_file(&mut self, file: usize) {
        assert!(file < self.n_files(), "file index {file} out of range");
        // The span is at most replication-factor procs; copy it out so
        // the proc-side pool can be edited.
        let holders: Vec<u32> = self.files.keys_of(file).to_vec();
        for &p in &holders {
            let removed = self.procs.remove(p as usize, file as u32);
            debug_assert!(removed, "adjacency mirrors agree");
        }
        self.edges -= holders.len();
        self.files.remove_vertex(file);
        self.sizes.remove(file);
        self.procs.shift_keys_above(file as u32);
    }

    /// Verifies the mirror invariant: the proc and file pools describe
    /// the same sorted edge set. O(edges log edges); used by tests and
    /// debug assertions.
    pub fn check_mirror(&self) -> Result<(), String> {
        let mut counted = 0usize;
        for p in 0..self.n_procs() {
            let row = self.procs.keys_of(p);
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("proc {p} adjacency not sorted/distinct"));
            }
            counted += row.len();
            for &f in row {
                if f as usize >= self.n_files() {
                    return Err(format!("proc {p} lists out-of-range file {f}"));
                }
                if !self.files.contains(f as usize, p as u32) {
                    return Err(format!("edge ({p},{f}) missing from file side"));
                }
            }
        }
        if counted != self.edges || self.files.total_len() != self.edges {
            return Err(format!(
                "edge counter {} disagrees with pool totals {counted}/{}",
                self.edges,
                self.files.total_len()
            ));
        }
        if self.sizes.len() != self.n_files() {
            return Err(format!(
                "{} sizes for {} files",
                self.sizes.len(),
                self.n_files()
            ));
        }
        for f in 0..self.n_files() {
            let col = self.files.keys_of(f);
            if col.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("file {f} adjacency not sorted/distinct"));
            }
            for &p in col {
                if p as usize >= self.n_procs() {
                    return Err(format!("file {f} lists out-of-range proc {p}"));
                }
                if !self.procs.contains(p as usize, f as u32) {
                    return Err(format!("edge ({p},{f}) missing from proc side"));
                }
            }
        }
        Ok(())
    }

    /// Bytes of `file` readable locally by `proc` — the file's size — or
    /// `None` if not co-located.
    pub fn weight(&self, proc: usize, file: usize) -> Option<u64> {
        debug_assert!(proc < self.n_procs() && file < self.n_files());
        self.files
            .contains(file, proc as u32)
            .then(|| self.sizes[file])
    }

    /// The size of `file` in bytes: the weight of each of its edges.
    pub fn size(&self, file: usize) -> u64 {
        self.sizes[file]
    }

    /// Every file's size, in file order.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Files co-located with `proc`, as sorted `(file, bytes)` pairs.
    pub fn files_of(&self, proc: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.procs
            .keys_of(proc)
            .iter()
            .map(move |&f| (f as usize, self.sizes[f as usize]))
    }

    /// Processes co-located with `file`, as sorted `(proc, bytes)` pairs.
    pub fn procs_of(&self, file: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let bytes = self.sizes[file];
        self.files
            .keys_of(file)
            .iter()
            .map(move |&p| (p as usize, bytes))
    }

    /// Sorted file handles adjacent to `proc`, as a dense `u32` slice —
    /// the zero-decode view the repair searches iterate.
    pub fn files_raw(&self, proc: usize) -> &[u32] {
        self.procs.keys_of(proc)
    }

    /// Sorted proc handles adjacent to `file`, as a dense `u32` slice.
    pub fn procs_raw(&self, file: usize) -> &[u32] {
        self.files.keys_of(file)
    }
}

/// Semantic equality: same vertex counts and edge sets with equal
/// weights — equal sizes wherever a file has an edge. Pool layout (span
/// offsets, capacities, garbage) is an artifact of the mutation history
/// and deliberately ignored, and so is the size of a file with no edge,
/// which no edge weighs.
impl PartialEq for BipartiteGraph {
    fn eq(&self, other: &Self) -> bool {
        if self.n_procs() != other.n_procs()
            || self.n_files() != other.n_files()
            || self.edges != other.edges
        {
            return false;
        }
        // The proc side mirrors the file side, so one side decides.
        (0..self.n_files()).all(|f| {
            let keys = self.files.keys_of(f);
            keys == other.files.keys_of(f) && (keys.is_empty() || self.sizes[f] == other.sizes[f])
        })
    }
}

impl Eq for BipartiteGraph {}

/// Every process's [`BipartiteGraph::files_raw`] at once, as stored: the
/// view the in-place max-flow reads.
impl<'a> From<&'a BipartiteGraph> for FileLists<'a> {
    fn from(graph: &'a BipartiteGraph) -> Self {
        let (start, len, keys) = graph.procs.spans();
        FileLists::new(graph.n_files(), start, len, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files_vec(g: &BipartiteGraph, p: usize) -> Vec<(usize, u64)> {
        g.files_of(p).collect()
    }

    fn procs_vec(g: &BipartiteGraph, f: usize) -> Vec<(usize, u64)> {
        g.procs_of(f).collect()
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(3, 5);
        assert_eq!(g.n_procs(), 3);
        assert_eq!(g.n_files(), 5);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = BipartiteGraph::new(2, 3);
        g.add_edge(0, 1, 64);
        g.add_edge(0, 2, 64);
        g.add_edge(1, 1, 64);
        assert_eq!(g.weight(0, 1), Some(64));
        assert_eq!(g.weight(1, 0), None);
        assert_eq!(files_vec(&g, 0), vec![(1, 64), (2, 64)]);
        assert_eq!(procs_vec(&g, 1), vec![(0, 64), (1, 64)]);
        assert_eq!(g.files_raw(0), &[1, 2]);
        assert_eq!(g.procs_raw(1), &[0, 1]);
        assert_eq!(g.edge_count(), 3);
        assert!(
            procs_vec(&g, 0).is_empty(),
            "file 0 has no co-located process"
        );
    }

    #[test]
    fn duplicate_edges_take_latest_weight() {
        // Last write wins: replaying a delta must leave the newest size,
        // even when it shrinks the chunk.
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0, 10);
        g.add_edge(0, 0, 30);
        g.add_edge(0, 0, 20);
        assert_eq!(g.weight(0, 0), Some(20));
        assert_eq!(g.edge_count(), 1);
        g.check_mirror().unwrap();
    }

    #[test]
    fn remove_edge_keeps_mirrors_in_sync() {
        let mut g = BipartiteGraph::new(2, 3);
        g.add_edge(0, 0, 8);
        g.add_edge(0, 1, 8);
        g.add_edge(1, 1, 8);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1), "already gone");
        assert!(!g.remove_edge(1, 2), "never existed");
        assert_eq!(files_vec(&g, 0), vec![(0, 8)]);
        assert_eq!(procs_vec(&g, 1), vec![(1, 8)]);
        assert_eq!(g.edge_count(), 2);
        g.check_mirror().unwrap();
    }

    #[test]
    fn vertex_mutations_preserve_mirror_and_shift_indices() {
        let mut g = BipartiteGraph::new(3, 4);
        for p in 0..3 {
            for f in 0..4 {
                if (p + f) % 2 == 0 {
                    g.add_edge(p, f, (10 * p + f + 1) as u64);
                }
            }
        }
        g.check_mirror().unwrap();

        // Removing file 1 shifts files 2..4 down; edge weights follow.
        let w_before = g.weight(0, 2);
        g.remove_file(1);
        assert_eq!(g.n_files(), 3);
        assert_eq!(g.weight(0, 1), w_before, "old file 2 is now file 1");
        g.check_mirror().unwrap();

        // Push a new file vertex and connect it.
        let f = g.push_file(99);
        assert_eq!(f, 3);
        g.add_edge(2, f, 99);
        assert_eq!(g.weight(2, 3), Some(99));
        g.check_mirror().unwrap();
    }

    #[test]
    fn mutation_sequence_matches_rebuild() {
        // Applying a random-looking add/remove schedule must land on the
        // same graph as building the final edge set from scratch.
        let mut g = BipartiteGraph::new(4, 6);
        let script: &[(bool, usize, usize, u64)] = &[
            (true, 0, 0, 5),
            (true, 1, 2, 7),
            (true, 3, 5, 2),
            (true, 0, 2, 9),
            (false, 1, 2, 0),
            (true, 2, 4, 4),
            (true, 1, 2, 11),
            (false, 0, 0, 0),
            (true, 3, 1, 6),
        ];
        for &(add, p, f, b) in script {
            if add {
                g.add_edge(p, f, b);
            } else {
                g.remove_edge(p, f);
            }
        }
        let mut fresh = BipartiteGraph::new(4, 6);
        for (p, f, b) in [(0, 2, 9), (1, 2, 11), (2, 4, 4), (3, 1, 6), (3, 5, 2)] {
            fresh.add_edge(p, f, b);
        }
        assert_eq!(g, fresh);
        g.check_mirror().unwrap();
    }

    #[test]
    fn adjacency_stays_sorted() {
        let mut g = BipartiteGraph::new(1, 10);
        for f in [7usize, 2, 9, 0, 4] {
            g.add_edge(0, f, 1);
        }
        let files: Vec<usize> = g.files_of(0).map(|(f, _)| f).collect();
        assert_eq!(files, vec![0, 2, 4, 7, 9]);
    }

    #[test]
    fn heavy_churn_pool_stays_consistent() {
        // Enough edge churn across enough vertices to force span
        // relocations and pool compactions; the mirror invariant and
        // semantic equality with a fresh rebuild must survive.
        let mut g = BipartiteGraph::new(32, 256);
        let mut state = 0x5EEDu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 16
        };
        for _ in 0..20_000 {
            let p = (next() % 32) as usize;
            let f = (next() % 256) as usize;
            if g.weight(p, f).is_some() && next() % 3 == 0 {
                g.remove_edge(p, f);
            } else {
                g.add_edge(p, f, next() % 1000 + 1);
            }
        }
        g.check_mirror().unwrap();
        let mut fresh = BipartiteGraph::new(32, 256);
        for p in 0..32 {
            for (f, b) in g.files_of(p).collect::<Vec<_>>() {
                fresh.add_edge(p, f, b);
            }
        }
        assert_eq!(g, fresh);
    }

    #[test]
    fn announced_degrees_do_not_change_the_graph() {
        // One edge set, three construction histories: file spans at their
        // announced degrees, inserts in build order, and inserts in
        // shuffled order.
        let (m, n) = (6usize, 40usize);
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        for f in 0..n {
            let mut procs: Vec<usize> = (0..3).map(|k| (f * 5 + k * 2) % m).collect();
            procs.sort_unstable();
            procs.dedup();
            edges.extend(procs.into_iter().map(|p| (p, f, (f as u64 % 4 + 1) * 16)));
        }
        let mut degrees = vec![0u32; n];
        for &(_, f, _) in &edges {
            degrees[f] += 1;
        }
        let spans = BipartiteGraph::from_file_spans(
            m,
            degrees,
            edges.iter().map(|&(p, _, _)| p as u32).collect(),
            (0..n as u64).map(|f| (f % 4 + 1) * 16).collect(),
        );
        spans.check_mirror().unwrap();
        let build = |order: &[(usize, usize, u64)]| {
            let mut g = BipartiteGraph::new(m, n);
            for &(p, f, b) in order {
                g.add_edge(p, f, b);
            }
            g.check_mirror().unwrap();
            g
        };
        let mut shuffled = edges.clone();
        let mut state = 0x51DEu64;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        assert_eq!(spans, build(&edges));
        assert_eq!(spans, build(&shuffled));
        assert_eq!(spans.edge_count(), edges.len());
        for p in 0..m {
            let want: Vec<(usize, u64)> = edges
                .iter()
                .filter(|&&(q, _, _)| q == p)
                .map(|&(_, f, b)| (f, b))
                .collect();
            assert_eq!(files_vec(&spans, p), want, "process {p}");
        }
        // A span-built graph mutates like an inserted one.
        let mut grown = spans.clone();
        grown.add_edge(0, 0, 7);
        grown.remove_file(3);
        let mut inserted = build(&edges);
        inserted.add_edge(0, 0, 7);
        inserted.remove_file(3);
        grown.check_mirror().unwrap();
        assert_eq!(grown, inserted);
    }

    #[test]
    #[should_panic(expected = "positive bytes")]
    fn span_build_rejects_zero_weight() {
        BipartiteGraph::from_file_spans(2, vec![1, 1], vec![0, 1], vec![8, 0]);
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn span_build_rejects_unsorted_files() {
        BipartiteGraph::from_file_spans(2, vec![2], vec![1, 0], vec![8, 8]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "positive bytes")]
    fn rejects_zero_weight() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0, 0);
    }
}
