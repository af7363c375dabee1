//! Adjacency index over active flows ↔ resources, with connected-component
//! extraction.
//!
//! Max-min fair rates decompose over connected components of the sharing
//! graph: a flow's rate can only change when a flow activates or completes
//! in *its own* component. The engine therefore keeps this bipartite
//! adjacency index up to date as flows activate and complete, and on each
//! recompute pass extracts just the components reachable from the dirty
//! seeds (the activated flow, or the resources a completed flow released).
//!
//! Flows are addressed by the engine's *slot*, not their id: a slot holds
//! one live flow at a time and is reused once that flow's completion is
//! delivered, together with its row here. Everything is index-based and
//! amortized allocation-free:
//!
//! * per-resource active-flow lists support O(1) insert and O(1)
//!   `swap_remove` (each slot remembers its position in every list it is
//!   on, and the displaced slot's position is patched after a removal);
//! * component extraction is a BFS over the bipartite graph using
//!   epoch-stamped visit marks, so marks are never cleared between passes;
//! * slot → resource adjacency is one row per slot, rewritten in place
//!   (keeping its allocation) when the slot takes a new flow.

/// One entry of a slot's row: a resource its flow traverses, and the
/// slot's position in that resource's active list (valid only while the
/// flow is inserted).
#[derive(Debug, Clone, Copy)]
struct Link {
    res: u32,
    pos: u32,
}

/// Bipartite adjacency index between active flow slots and the resources
/// they traverse, supporting incremental updates and component BFS.
#[derive(Debug, Default)]
pub(crate) struct ComponentIndex {
    /// Per resource: slots of the active flows traversing it (unordered).
    res_flows: Vec<Vec<u32>>,
    /// Per slot: its flow's resources, ascending (it mirrors the flow's
    /// deduplicated, sorted resource list).
    rows: Vec<Vec<Link>>,
    /// Epoch-stamped BFS visit marks.
    flow_mark: Vec<u32>,
    res_mark: Vec<u32>,
    /// Current BFS pass epoch.
    epoch: u32,
}

impl ComponentIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new resource (ids are sequential, matching the engine).
    pub fn add_resource(&mut self) {
        self.res_flows.push(Vec::new());
        self.res_mark.push(0);
    }

    /// Writes the row of `slot` (the next new slot, or one whose flow was
    /// removed) for a flow over `resources`, the flow's sorted,
    /// deduplicated resource list. The flow is *not* inserted into the
    /// active lists yet.
    pub fn set_row(&mut self, slot: u32, resources: &[usize]) {
        debug_assert!(resources.windows(2).all(|w| w[0] < w[1]));
        let s = slot as usize;
        if s == self.rows.len() {
            self.rows.push(Vec::new());
            self.flow_mark.push(0);
        }
        let row = &mut self.rows[s];
        row.clear();
        row.extend(resources.iter().map(|&r| {
            debug_assert!(r < self.res_flows.len());
            Link {
                res: r as u32,
                pos: 0,
            }
        }));
    }

    /// Inserts an activated flow's slot into the active lists of its
    /// resources.
    pub fn insert(&mut self, f: u32) {
        for link in &mut self.rows[f as usize] {
            let list = &mut self.res_flows[link.res as usize];
            link.pos = list.len() as u32;
            list.push(f);
        }
    }

    /// Removes a completed flow's slot from the active lists of its
    /// resources.
    pub fn remove(&mut self, f: u32) {
        for k in 0..self.rows[f as usize].len() {
            let Link { res, pos } = self.rows[f as usize][k];
            let (r, p) = (res as usize, pos as usize);
            let list = &mut self.res_flows[r];
            debug_assert_eq!(list[p], f);
            list.swap_remove(p);
            if p < list.len() {
                // Patch the displaced slot's remembered position for `r`.
                let row = &mut self.rows[list[p] as usize];
                let idx = row
                    .binary_search_by_key(&res, |l| l.res)
                    .expect("moved flow must traverse this resource");
                row[idx].pos = p as u32;
            }
        }
    }

    /// Slots of the active flows currently traversing resource `r`. The
    /// list length is the resource's concurrency count (feeds degraded
    /// capacity).
    #[inline]
    pub fn flows_on(&self, r: usize) -> &[u32] {
        &self.res_flows[r]
    }

    /// Starts a new recompute pass: components extracted afterwards share
    /// one visited-set, so overlapping seeds are processed once.
    pub fn begin_pass(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped after ~4 billion passes: flush all stale marks once.
            self.flow_mark.iter_mut().for_each(|m| *m = u32::MAX);
            self.res_mark.iter_mut().for_each(|m| *m = u32::MAX);
            self.epoch = 1;
        }
    }

    /// Whether `f` was already visited in the current pass.
    #[inline]
    pub fn flow_seen(&self, f: u32) -> bool {
        self.flow_mark[f as usize] == self.epoch
    }

    /// Whether `r` was already visited in the current pass.
    #[inline]
    pub fn resource_seen(&self, r: u32) -> bool {
        self.res_mark[r as usize] == self.epoch
    }

    /// Collects the connected component containing active slot `seed` into
    /// `out_flows` / `out_res` (cleared first; unsorted).
    pub fn component_from_flow(
        &mut self,
        seed: u32,
        out_flows: &mut Vec<u32>,
        out_res: &mut Vec<u32>,
    ) {
        out_flows.clear();
        out_res.clear();
        debug_assert!(!self.flow_seen(seed));
        self.flow_mark[seed as usize] = self.epoch;
        out_flows.push(seed);
        self.bfs(out_flows, out_res);
    }

    /// Collects the connected component containing resource `seed` into
    /// `out_flows` / `out_res` (cleared first; unsorted). The component may
    /// have no flows (a released resource with nothing else on it).
    pub fn component_from_resource(
        &mut self,
        seed: u32,
        out_flows: &mut Vec<u32>,
        out_res: &mut Vec<u32>,
    ) {
        out_flows.clear();
        out_res.clear();
        debug_assert!(!self.resource_seen(seed));
        self.res_mark[seed as usize] = self.epoch;
        out_res.push(seed);
        self.bfs(out_flows, out_res);
    }

    /// BFS over the bipartite graph; the output vectors double as
    /// worklists, so no queue allocation is needed.
    fn bfs(&mut self, out_flows: &mut Vec<u32>, out_res: &mut Vec<u32>) {
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            if i < out_flows.len() {
                let f = out_flows[i];
                i += 1;
                for &Link { res: r, .. } in &self.rows[f as usize] {
                    if self.res_mark[r as usize] != self.epoch {
                        self.res_mark[r as usize] = self.epoch;
                        out_res.push(r);
                    }
                }
            } else if j < out_res.len() {
                let r = out_res[j] as usize;
                j += 1;
                for idx in 0..self.res_flows[r].len() {
                    let g = self.res_flows[r][idx];
                    if self.flow_mark[g as usize] != self.epoch {
                        self.flow_mark[g as usize] = self.epoch;
                        out_flows.push(g);
                    }
                }
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(nres: usize, flows: &[&[usize]]) -> ComponentIndex {
        let mut ix = ComponentIndex::new();
        for _ in 0..nres {
            ix.add_resource();
        }
        for (f, rs) in flows.iter().enumerate() {
            ix.set_row(f as u32, rs);
            ix.insert(f as u32);
        }
        ix
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn single_component_spans_shared_resources() {
        // f0: {0}, f1: {0,1}, f2: {1,2} — all one component; f3: {3} apart.
        let mut ix = index(4, &[&[0], &[0, 1], &[1, 2], &[3]]);
        let (mut fs, mut rs) = (Vec::new(), Vec::new());
        ix.begin_pass();
        ix.component_from_flow(0, &mut fs, &mut rs);
        assert_eq!(sorted(fs.clone()), vec![0, 1, 2]);
        assert_eq!(sorted(rs.clone()), vec![0, 1, 2]);
        assert!(!ix.flow_seen(3));
        ix.component_from_flow(3, &mut fs, &mut rs);
        assert_eq!(fs, vec![3]);
        assert_eq!(rs, vec![3]);
    }

    #[test]
    fn removal_splits_components() {
        // f1 bridges resources 0 and 1; removing it disconnects f0 and f2.
        let mut ix = index(2, &[&[0], &[0, 1], &[1]]);
        ix.remove(1);
        let (mut fs, mut rs) = (Vec::new(), Vec::new());
        ix.begin_pass();
        ix.component_from_resource(0, &mut fs, &mut rs);
        assert_eq!(fs, vec![0]);
        assert_eq!(rs, vec![0]);
        assert!(!ix.resource_seen(1));
        ix.component_from_resource(1, &mut fs, &mut rs);
        assert_eq!(fs, vec![2]);
        assert_eq!(rs, vec![1]);
    }

    #[test]
    fn swap_remove_patches_displaced_positions() {
        // Three flows on resource 0; removing the first displaces the last.
        let mut ix = index(1, &[&[0], &[0], &[0]]);
        ix.remove(0);
        assert_eq!(sorted(ix.flows_on(0).to_vec()), vec![1, 2]);
        ix.remove(2); // works only if its position was patched
        assert_eq!(ix.flows_on(0), &[1]);
        ix.remove(1);
        assert!(ix.flows_on(0).is_empty());
    }

    #[test]
    fn pass_marks_dedupe_overlapping_seeds() {
        let mut ix = index(2, &[&[0, 1], &[0], &[1]]);
        let (mut fs, mut rs) = (Vec::new(), Vec::new());
        ix.begin_pass();
        ix.component_from_flow(1, &mut fs, &mut rs);
        assert_eq!(sorted(fs.clone()), vec![0, 1, 2]);
        // Every other seed in this component is now marked seen.
        assert!(ix.flow_seen(0) && ix.flow_seen(2));
        assert!(ix.resource_seen(0) && ix.resource_seen(1));
        // A new pass forgets the marks.
        ix.begin_pass();
        assert!(!ix.flow_seen(0));
    }

    #[test]
    fn empty_resource_component() {
        let mut ix = index(1, &[&[0]]);
        ix.remove(0);
        let (mut fs, mut rs) = (Vec::new(), Vec::new());
        ix.begin_pass();
        ix.component_from_resource(0, &mut fs, &mut rs);
        assert!(fs.is_empty());
        assert_eq!(rs, vec![0]);
    }
}
