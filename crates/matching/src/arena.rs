//! Flat arena structures for the solver hot path.
//!
//! The matching core runs millions of tiny adjacency probes and
//! owner-set edits per repair at 10⁵+ chunks; pointer-heavy containers
//! (`Vec<Vec<(usize, u64)>>` adjacency, `Vec<BTreeSet<usize>>` inverse
//! indices) spend most of that time chasing allocations. This module
//! provides the two dense replacements:
//!
//! * [`AdjPool`] — CSR-style adjacency: every vertex's sorted neighbor
//!   span lives in one shared pool of `u32` keys with per-vertex
//!   `(start, len, cap)` descriptors, laid out from ready spans with a
//!   fixed sixteenth of headroom, doubling relocation on overflow, and
//!   garbage compaction. Neighbor iteration is a dense `u32` slice scan —
//!   4 bytes per probe instead of a 16-byte AoS tuple.
//! * [`OwnedList`] — the `owned[p] = {files matched to p}` inverse index
//!   as an intrusive doubly-linked list over flat `next`/`prev` arenas,
//!   kept in ascending file order so enumeration is canonical (the same
//!   order the old `BTreeSet` gave, which the repair searches' path
//!   choices — and therefore bit-exact replay — depend on).
//!
//! Handles are dense `u32` indices; [`NONE`] is the sentinel. All
//! operations are pure functions of the call history, so two structures
//! driven by the same operation sequence are semantically identical
//! (pool layout may differ after different histories — comparisons must
//! go through span contents, not raw pools).

/// Sentinel for "no handle" in dense `u32` index arrays.
pub const NONE: u32 = u32::MAX;

/// Growth room a span of `len` keys is laid out with: one slot per
/// sixteen, so a span absorbs a sixteenth of net growth in place (a
/// session's replica churn moves edges between processes and nets out
/// near zero); a span shorter than sixteen gets none.
const fn headroom(len: u32) -> u32 {
    len / 16
}

/// Pooled CSR adjacency. Vertex `v`'s neighbors are the sorted key span
/// `keys[start[v]..start[v]+len[v]]`; `cap[v]` slots are reserved. Spans
/// that outgrow their capacity relocate to the pool tail (doubling),
/// abandoning the old slots; abandoned slots are reclaimed by a full
/// compaction once they outnumber the live ones.
#[derive(Debug, Clone)]
pub struct AdjPool {
    start: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    keys: Vec<u32>,
    /// Abandoned pool slots (relocations + removed vertices).
    dead: usize,
}

impl AdjPool {
    /// An empty pool with `n` vertices and no neighbors.
    pub fn with_vertices(n: usize) -> Self {
        Self::from_spans(vec![0; n], Vec::new())
    }

    /// A pool of ready spans: vertex `v`'s keys (sorted, distinct) are
    /// the next `len[v]` entries of `keys`. Each span is laid out with
    /// `len / 16` free slots after it, moved into place within `keys`
    /// (from the last span back, so no span overwrites one not yet
    /// moved); when no span gets any, the pool takes `keys` as it is.
    pub fn from_spans(len: Vec<u32>, mut keys: Vec<u32>) -> Self {
        assert!(
            len.len() < NONE as usize,
            "vertex count must fit u32 handles"
        );
        let live: usize = len.iter().map(|&l| l as usize).sum();
        assert_eq!(live, keys.len(), "the spans cover the keys");
        let cap: Vec<u32> = len.iter().map(|&l| l + headroom(l)).collect();
        let mut total = 0usize;
        let start: Vec<u32> = cap
            .iter()
            .map(|&c| {
                let s = total;
                total += c as usize;
                s as u32
            })
            .collect();
        assert!(total < NONE as usize, "adjacency pool full");
        if total > live {
            keys.reserve_exact(total - live);
            keys.resize(total, 0);
            let mut from = live;
            for v in (0..len.len()).rev() {
                let l = len[v] as usize;
                from -= l;
                keys.copy_within(from..from + l, start[v] as usize);
            }
        }
        AdjPool {
            start,
            len,
            cap,
            keys,
            dead: 0,
        }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.start.len()
    }

    /// Sorted neighbor keys of `v` as a dense slice.
    pub fn keys_of(&self, v: usize) -> &[u32] {
        let s = self.start[v] as usize;
        &self.keys[s..s + self.len[v] as usize]
    }

    /// The span columns: vertex `v`'s keys are
    /// `keys[start[v]..start[v] + len[v]]`.
    pub(crate) fn spans(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.start, &self.len, &self.keys)
    }

    /// Whether `v`'s span holds `key`.
    pub fn contains(&self, v: usize, key: u32) -> bool {
        self.keys_of(v).binary_search(&key).is_ok()
    }

    /// Inserts `(v, key)`. Returns `true` when the key was newly
    /// inserted (span stays sorted either way).
    pub fn insert(&mut self, v: usize, key: u32) -> bool {
        let (s, l, c) = (
            self.start[v] as usize,
            self.len[v] as usize,
            self.cap[v] as usize,
        );
        // A key above the span's last one appends: builds that feed
        // neighbors in ascending order skip the search and the shift.
        let i = if l == 0 || self.keys[s + l - 1] < key {
            l
        } else {
            match self.keys[s..s + l].binary_search(&key) {
                Ok(_) => return false,
                Err(i) => i,
            }
        };
        if l == c {
            self.relocate_insert(v, i, key);
            return true;
        }
        if i < l {
            self.keys.copy_within(s + i..s + l, s + i + 1);
        }
        self.keys[s + i] = key;
        self.len[v] += 1;
        true
    }

    /// Moves `v`'s span to the pool tail with doubled capacity, placing
    /// `key` at sorted position `i`.
    fn relocate_insert(&mut self, v: usize, i: usize, key: u32) {
        let (s, l, c) = (
            self.start[v] as usize,
            self.len[v] as usize,
            self.cap[v] as usize,
        );
        let new_cap = (c * 2).max(4);
        let new_start = self.keys.len();
        assert!(new_start + new_cap < NONE as usize, "adjacency pool full");
        self.keys.reserve(new_cap);
        self.keys.extend_from_within(s..s + i);
        self.keys.push(key);
        self.keys.extend_from_within(s + i..s + l);
        // Materialize the reserved capacity so later relocations of other
        // vertices cannot land inside this span's growth room.
        let pad = new_cap - (l + 1);
        self.keys.resize(self.keys.len() + pad, 0);
        self.dead += c;
        self.start[v] = new_start as u32;
        self.len[v] = (l + 1) as u32;
        self.cap[v] = new_cap as u32;
        self.maybe_compact();
    }

    /// Removes `(v, key)`; returns whether it existed.
    pub fn remove(&mut self, v: usize, key: u32) -> bool {
        match self.keys_of(v).binary_search(&key) {
            Ok(i) => {
                let (s, l) = (self.start[v] as usize, self.len[v] as usize);
                self.keys.copy_within(s + i + 1..s + l, s + i);
                self.len[v] -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Appends a new empty vertex; returns its index.
    pub fn push_vertex(&mut self) -> usize {
        assert!(self.start.len() + 1 < NONE as usize, "vertex space full");
        self.start.push(0);
        self.len.push(0);
        self.cap.push(0);
        self.start.len() - 1
    }

    /// Removes vertex `v`; vertices above shift down by one. The caller
    /// must have already dropped the mirrored entries on the other side.
    pub fn remove_vertex(&mut self, v: usize) {
        self.dead += self.cap[v] as usize;
        self.start.remove(v);
        self.len.remove(v);
        self.cap.remove(v);
        self.maybe_compact();
    }

    /// Decrements every key strictly above `threshold` in every span —
    /// the cross-side index compaction after [`AdjPool::remove_vertex`]
    /// on the mirrored pool.
    pub fn shift_keys_above(&mut self, threshold: u32) {
        for v in 0..self.start.len() {
            let s = self.start[v] as usize;
            for k in &mut self.keys[s..s + self.len[v] as usize] {
                if *k > threshold {
                    *k -= 1;
                }
            }
        }
    }

    fn maybe_compact(&mut self) {
        if self.keys.len() >= 4096 && self.dead * 2 > self.keys.len() {
            self.compact();
        }
    }

    /// Rewrites the pool in vertex order, dropping abandoned slots and
    /// leaving each span 50% growth headroom.
    fn compact(&mut self) {
        let live: usize = self.len.iter().map(|&l| l as usize).sum();
        let mut keys = Vec::with_capacity(live + live / 2 + 4 * self.start.len());
        for v in 0..self.start.len() {
            let (s, l) = (self.start[v] as usize, self.len[v] as usize);
            let cap = (l + l / 2).max(4);
            self.start[v] = keys.len() as u32;
            self.cap[v] = cap as u32;
            keys.extend_from_slice(&self.keys[s..s + l]);
            keys.resize(keys.len() + (cap - l), 0);
        }
        self.keys = keys;
        self.dead = 0;
    }

    /// Live entries across all spans.
    pub fn total_len(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }
}

/// The `owned` inverse index (`proc -> files matched to it`) as an
/// intrusive doubly-linked list over flat arenas: `head[p]` points at
/// the first owned file, `next[f]`/`prev[f]` link the per-proc chains.
/// Lists are kept in **ascending file order** (inserts walk to the
/// sorted position), so enumeration order is a pure function of the
/// owner relation — exactly the `BTreeSet` order the repair searches
/// were tuned against, with zero allocation. Unlinking is O(1), and so
/// is putting an unlinked file back where it was ([`OwnedList::relink`],
/// the undo of a failed trade); linking a file into a new chain (a
/// commit) walks to its position, O(position).
#[derive(Debug, Clone)]
pub struct OwnedList {
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl OwnedList {
    /// Empty chains for `n_procs` procs over `n_files` file slots.
    pub fn new(n_procs: usize, n_files: usize) -> Self {
        OwnedList {
            head: vec![NONE; n_procs],
            next: vec![NONE; n_files],
            prev: vec![NONE; n_files],
        }
    }

    /// Rebuilds the whole index from a dense owner vector (`NONE` =
    /// unmatched) — the single shared construction path for adoption,
    /// post-compaction rebuilds, and parallel-repair write-back.
    pub fn rebuild_from(owner: &[u32], n_procs: usize) -> Self {
        let mut list = OwnedList::new(n_procs, owner.len());
        let mut tail = vec![NONE; n_procs];
        for (f, &p) in owner.iter().enumerate() {
            if p == NONE {
                continue;
            }
            let f = f as u32;
            let t = tail[p as usize];
            if t == NONE {
                list.head[p as usize] = f;
            } else {
                list.next[t as usize] = f;
            }
            list.prev[f as usize] = t;
            tail[p as usize] = f;
        }
        list
    }

    /// First file of `p`'s chain, or [`NONE`].
    pub fn head_of(&self, p: u32) -> u32 {
        self.head[p as usize]
    }

    /// Successor of `f` in its chain, or [`NONE`].
    pub fn next_of(&self, f: u32) -> u32 {
        self.next[f as usize]
    }

    /// Links `f` into `p`'s chain at its ascending-order position.
    pub fn insert(&mut self, p: u32, f: u32) {
        let mut prev = NONE;
        let mut cur = self.head[p as usize];
        while cur != NONE && cur < f {
            prev = cur;
            cur = self.next[cur as usize];
        }
        self.next[f as usize] = cur;
        self.prev[f as usize] = prev;
        if cur != NONE {
            self.prev[cur as usize] = f;
        }
        if prev == NONE {
            self.head[p as usize] = f;
        } else {
            self.next[prev as usize] = f;
        }
    }

    /// Unlinks `f` from `p`'s chain in O(1). `f` keeps its own
    /// `prev`/`next` links, so [`OwnedList::relink`] can put it back.
    pub fn remove(&mut self, p: u32, f: u32) {
        let (pr, nx) = (self.prev[f as usize], self.next[f as usize]);
        if pr == NONE {
            self.head[p as usize] = nx;
        } else {
            self.next[pr as usize] = nx;
        }
        if nx != NONE {
            self.prev[nx as usize] = pr;
        }
    }

    /// Puts `f`, unlinked from `p`'s chain by [`OwnedList::remove`], back
    /// between the two links it kept ("dancing links"), in O(1).
    ///
    /// Exact only while `p`'s chain is as `remove` left it. Removals
    /// nested inside that window must be undone first, last in first out
    /// — then each relink finds its neighbours adjacent again, and the
    /// chain comes back in ascending order. A file that moved to another
    /// chain in the meantime goes through [`OwnedList::insert`] instead.
    pub fn relink(&mut self, p: u32, f: u32) {
        let (pr, nx) = (self.prev[f as usize], self.next[f as usize]);
        if pr == NONE {
            self.head[p as usize] = f;
        } else {
            self.next[pr as usize] = f;
        }
        if nx != NONE {
            self.prev[nx as usize] = f;
        }
    }

    /// Ascending iteration over `p`'s owned files.
    pub fn iter(&self, p: u32) -> OwnedIter<'_> {
        OwnedIter {
            next: &self.next,
            cur: self.head[p as usize],
        }
    }

    /// Grows the file arenas by one slot (new trailing file vertex).
    pub fn push_file(&mut self) {
        self.next.push(NONE);
        self.prev.push(NONE);
    }
}

/// Iterator over one proc's owned chain.
pub struct OwnedIter<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for OwnedIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NONE {
            return None;
        }
        let f = self.cur;
        self.cur = self.next[f as usize];
        Some(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adj_pool_sorted_upsert_and_remove() {
        let mut pool = AdjPool::with_vertices(3);
        assert!(pool.insert(0, 7));
        assert!(pool.insert(0, 2));
        assert!(pool.insert(0, 9));
        assert!(!pool.insert(0, 7), "a present key is not inserted twice");
        assert_eq!(pool.keys_of(0), &[2, 7, 9]);
        assert!(pool.contains(0, 7));
        assert!(!pool.contains(0, 3));
        assert!(pool.remove(0, 7));
        assert!(!pool.remove(0, 7));
        assert_eq!(pool.keys_of(0), &[2, 9]);
        assert!(pool.keys_of(1).is_empty());
        assert_eq!(pool.total_len(), 2);
    }

    #[test]
    fn adj_pool_relocation_preserves_other_spans() {
        let mut pool = AdjPool::with_vertices(2);
        for k in 0..20u32 {
            pool.insert(0, k * 2);
            pool.insert(1, k * 2 + 1);
        }
        let want0: Vec<u32> = (0..20).map(|k| k * 2).collect();
        let want1: Vec<u32> = (0..20).map(|k| k * 2 + 1).collect();
        assert_eq!(pool.keys_of(0), &want0[..]);
        assert_eq!(pool.keys_of(1), &want1[..]);
    }

    #[test]
    fn adj_pool_vertex_removal_shifts_cross_keys() {
        let mut pool = AdjPool::with_vertices(4);
        for v in 0..4 {
            for k in [1u32, 3, 5] {
                pool.insert(v, k);
            }
        }
        // Pretend key 3 was a vertex on the mirrored side that got
        // removed: keys above 3 shift down.
        for v in 0..4 {
            pool.remove(v, 3);
        }
        pool.shift_keys_above(3);
        for v in 0..4 {
            assert_eq!(pool.keys_of(v), &[1, 4]);
        }
    }

    #[test]
    fn adj_pool_compaction_keeps_contents() {
        let mut pool = AdjPool::with_vertices(64);
        // Grow every span through several relocations so dead slots pile
        // up past the compaction threshold, then verify contents.
        for round in 0..6 {
            for v in 0..64 {
                for j in 0..16u32 {
                    pool.insert(v, round * 16 + j);
                }
            }
        }
        for v in 0..64 {
            let want: Vec<u32> = (0..96).collect();
            assert_eq!(pool.keys_of(v), &want[..]);
            assert!(pool.contains(v, 95));
        }
    }

    #[test]
    fn exact_capacities_fill_without_relocating() {
        // Spans shorter than sixteen get no headroom: the pool takes the
        // keys as they are, with no slack and nothing relocated.
        let caps: Vec<u32> = (0..40).map(|v| v % 7).collect();
        let total: usize = caps.iter().map(|&c| c as usize).sum();
        let mut keys: Vec<u32> = Vec::with_capacity(total);
        keys.extend(caps.iter().flat_map(|&c| (0..c).map(|j| j * 3)));
        let mut pool = AdjPool::from_spans(caps.clone(), keys);
        assert_eq!((pool.keys.len(), pool.keys.capacity()), (total, total));
        assert_eq!(pool.dead, 0);
        assert_eq!(pool.total_len(), total);
        let starts = pool.start.clone();
        for (v, &c) in caps.iter().enumerate() {
            let want: Vec<u32> = (0..c).map(|j| j * 3).collect();
            assert_eq!(pool.keys_of(v), &want[..]);
            assert_eq!(pool.contains(v, 3), c > 1);
        }
        // The first insert past a capacity relocates that span alone.
        assert!(pool.insert(5, 1));
        assert_eq!(pool.dead, caps[5] as usize);
        assert_eq!(pool.start[5] as usize, total);
        assert_eq!(pool.keys_of(5), &[0, 1, 3, 6, 9, 12]);
        for v in (0..caps.len()).filter(|&v| v != 5) {
            assert_eq!(pool.start[v], starts[v], "vertex {v} moved");
        }
    }

    #[test]
    fn long_spans_absorb_a_sixteenth_of_growth_in_place() {
        // Spans of 0, 15, 16, 40 and 700 keys: laid out in vertex order,
        // each followed by a sixteenth of its length in free slots.
        let lens = [0u32, 15, 16, 40, 700];
        let keys: Vec<u32> = lens.iter().flat_map(|&l| (0..l).map(|j| 2 * j)).collect();
        let mut pool = AdjPool::from_spans(lens.to_vec(), keys);
        assert_eq!(pool.cap, [0, 15, 17, 42, 743]);
        assert_eq!(pool.start, [0, 0, 15, 32, 74]);
        assert_eq!(pool.keys.len(), 817);
        for (v, &l) in lens.iter().enumerate() {
            let want: Vec<u32> = (0..l).map(|j| 2 * j).collect();
            assert_eq!(pool.keys_of(v), &want[..], "vertex {v}");
        }
        // Growth up to the headroom stays in place; removals make room
        // again; only the first insert past it relocates.
        let starts = pool.start.clone();
        for k in 0..43 {
            assert!(pool.insert(4, 2 * k + 1));
        }
        assert_eq!((pool.start.clone(), pool.dead), (starts.clone(), 0));
        assert!(pool.remove(4, 0));
        assert!(pool.insert(4, 2001));
        assert_eq!((pool.start.clone(), pool.dead), (starts, 0));
        assert!(pool.insert(4, 2003));
        assert_eq!(pool.dead, 743);
        assert_eq!(pool.keys_of(4).len(), 744);
        assert!(pool.keys_of(4).windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            pool.keys_of(3),
            &(0..40).map(|j| 2 * j).collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn owned_list_keeps_ascending_order() {
        let mut list = OwnedList::new(2, 10);
        for f in [7u32, 2, 9, 4] {
            list.insert(0, f);
        }
        list.insert(1, 5);
        assert_eq!(list.iter(0).collect::<Vec<_>>(), vec![2, 4, 7, 9]);
        assert_eq!(list.iter(1).collect::<Vec<_>>(), vec![5]);
        list.remove(0, 2); // head removal
        list.remove(0, 7); // middle removal
        assert_eq!(list.iter(0).collect::<Vec<_>>(), vec![4, 9]);
        list.insert(0, 7);
        assert_eq!(list.iter(0).collect::<Vec<_>>(), vec![4, 7, 9]);
    }

    #[test]
    fn nested_removes_relinked_last_in_first_out_restore_every_chain() {
        // Seeded nests of unlinks, from one chain or several, undone in
        // reverse: after each relink every chain must read exactly as it
        // did before the matching remove — order and links both.
        let mut state = 0x0D1Cu64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % bound
        };
        let chains = |list: &OwnedList, m: u32| -> Vec<Vec<u32>> {
            (0..m).map(|p| list.iter(p).collect()).collect()
        };
        for case in 0..400 {
            let (m, n) = (1 + next(4) as u32, 1 + next(40) as usize);
            let owner: Vec<u32> = (0..n)
                .map(|_| match next(m as u64 + 1) as u32 {
                    p if p == m => NONE,
                    p => p,
                })
                .collect();
            let mut list = OwnedList::rebuild_from(&owner, m as usize);
            let mut linked: Vec<u32> = (0..n as u32)
                .filter(|&f| owner[f as usize] != NONE)
                .collect();
            let mut undo: Vec<(u32, u32, Vec<Vec<u32>>)> = Vec::new();
            for _ in 0..60 {
                if !linked.is_empty() && (undo.is_empty() || next(3) != 0) {
                    let f = linked.swap_remove(next(linked.len() as u64) as usize);
                    let p = owner[f as usize];
                    undo.push((p, f, chains(&list, m)));
                    list.remove(p, f);
                } else if let Some((p, f, before)) = undo.pop() {
                    list.relink(p, f);
                    linked.push(f);
                    assert_eq!(chains(&list, m), before, "case {case}");
                }
            }
            while let Some((p, f, before)) = undo.pop() {
                list.relink(p, f);
                assert_eq!(chains(&list, m), before, "case {case}");
            }
            let rebuilt = OwnedList::rebuild_from(&owner, m as usize);
            assert_eq!(list.head, rebuilt.head, "case {case}");
            for f in (0..n).filter(|&f| owner[f] != NONE) {
                assert_eq!(list.next[f], rebuilt.next[f], "case {case}: next of {f}");
                assert_eq!(list.prev[f], rebuilt.prev[f], "case {case}: prev of {f}");
            }
        }
    }

    #[test]
    fn owned_list_rebuild_matches_incremental_inserts() {
        let owner: Vec<u32> = vec![1, NONE, 0, 1, 0, NONE, 1];
        let rebuilt = OwnedList::rebuild_from(&owner, 2);
        let mut incremental = OwnedList::new(2, owner.len());
        for (f, &p) in owner.iter().enumerate() {
            if p != NONE {
                incremental.insert(p, f as u32);
            }
        }
        for p in 0..2 {
            assert_eq!(
                rebuilt.iter(p).collect::<Vec<_>>(),
                incremental.iter(p).collect::<Vec<_>>()
            );
        }
    }
}
