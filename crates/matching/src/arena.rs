//! Flat arena structures for the solver hot path.
//!
//! The matching core runs millions of tiny adjacency probes and
//! owner-set edits per repair at 10⁵+ chunks; pointer-heavy containers
//! (`Vec<Vec<(usize, u64)>>` adjacency, `Vec<BTreeSet<usize>>` inverse
//! indices) spend most of that time chasing allocations. This module
//! provides the two dense replacements:
//!
//! * [`AdjPool`] — struct-of-arrays CSR-style adjacency: every vertex's
//!   sorted neighbor span lives in two shared pools (`u32` keys and a
//!   weight column, `u64` or absent) with per-vertex `(start, len, cap)`
//!   descriptors, exact construction from ready spans,
//!   doubling relocation on overflow, and garbage compaction. Neighbor
//!   iteration is a dense `u32` slice scan — 4 bytes per probe instead
//!   of a 16-byte AoS tuple.
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

/// Pooled struct-of-arrays adjacency. Vertex `v`'s neighbors are the
/// sorted key span `keys[start[v]..start[v]+len[v]]` with parallel
/// weights in `wts`; `cap[v]` slots are reserved. Spans that outgrow
/// their capacity relocate to the pool tail (doubling), abandoning the
/// old slots; abandoned slots are reclaimed by a full compaction once
/// they outnumber the live ones.
///
/// The weight column is a type parameter: `AdjPool<u64>` carries one
/// weight per entry, `AdjPool<()>` is keys only — a `Vec<()>` never
/// allocates and every operation on it compiles away, so the two share
/// one implementation.
#[derive(Debug, Clone)]
pub struct AdjPool<W = u64> {
    start: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    keys: Vec<u32>,
    wts: Vec<W>,
    /// Abandoned pool slots (relocations + removed vertices).
    dead: usize,
}

impl<W: Copy + Default> AdjPool<W> {
    /// An empty pool with `n` vertices and no neighbors.
    pub fn with_vertices(n: usize) -> Self {
        Self::from_spans(vec![0; n], Vec::new(), Vec::new())
    }

    /// A pool of ready spans laid out in vertex order: vertex `v`'s keys
    /// (sorted, distinct) and weights are the next `len[v]` entries of
    /// `keys` and `wts`. Every span's capacity is its length, so the pool
    /// holds no slack and takes the vectors as they are.
    pub fn from_spans(len: Vec<u32>, keys: Vec<u32>, wts: Vec<W>) -> Self {
        assert!(
            len.len() < NONE as usize,
            "vertex count must fit u32 handles"
        );
        assert!(keys.len() < NONE as usize, "adjacency pool full");
        assert_eq!(keys.len(), wts.len(), "one weight per key");
        let mut total = 0usize;
        let start = len
            .iter()
            .map(|&l| {
                let s = total;
                total += l as usize;
                s as u32
            })
            .collect();
        assert_eq!(total, keys.len(), "the spans cover the keys");
        AdjPool {
            start,
            cap: len.clone(),
            len,
            keys,
            wts,
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

    /// Neighbor weights of `v`, parallel to [`AdjPool::keys_of`].
    pub fn wts_of(&self, v: usize) -> &[W] {
        let s = self.start[v] as usize;
        &self.wts[s..s + self.len[v] as usize]
    }

    /// Weight of the `(v, key)` entry, if present.
    pub fn get(&self, v: usize, key: u32) -> Option<W> {
        self.keys_of(v)
            .binary_search(&key)
            .ok()
            .map(|i| self.wts[self.start[v] as usize + i])
    }

    /// Inserts or reweights `(v, key)`. Returns `true` when the key was
    /// newly inserted (span stays sorted either way).
    pub fn insert(&mut self, v: usize, key: u32, w: W) -> bool {
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
                Ok(i) => {
                    self.wts[s + i] = w;
                    return false;
                }
                Err(i) => i,
            }
        };
        if l == c {
            self.relocate_insert(v, i, key, w);
            return true;
        }
        if i < l {
            self.keys.copy_within(s + i..s + l, s + i + 1);
            self.wts.copy_within(s + i..s + l, s + i + 1);
        }
        self.keys[s + i] = key;
        self.wts[s + i] = w;
        self.len[v] += 1;
        true
    }

    /// Moves `v`'s span to the pool tail with doubled capacity, placing
    /// the new `(key, w)` entry at sorted position `i`.
    fn relocate_insert(&mut self, v: usize, i: usize, key: u32, w: W) {
        let (s, l, c) = (
            self.start[v] as usize,
            self.len[v] as usize,
            self.cap[v] as usize,
        );
        let new_cap = (c * 2).max(4);
        let new_start = self.keys.len();
        assert!(new_start + new_cap < NONE as usize, "adjacency pool full");
        self.keys.reserve(new_cap);
        self.wts.reserve(new_cap);
        self.keys.extend_from_within(s..s + i);
        self.keys.push(key);
        self.keys.extend_from_within(s + i..s + l);
        self.wts.extend_from_within(s..s + i);
        self.wts.push(w);
        self.wts.extend_from_within(s + i..s + l);
        // Materialize the reserved capacity so later relocations of other
        // vertices cannot land inside this span's growth room.
        let pad = new_cap - (l + 1);
        self.keys.resize(self.keys.len() + pad, 0);
        self.wts.resize(self.wts.len() + pad, W::default());
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
                self.wts.copy_within(s + i + 1..s + l, s + i);
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

    /// Rewrites the pools in vertex order, dropping abandoned slots and
    /// leaving each span 50% growth headroom.
    fn compact(&mut self) {
        let live: usize = self.len.iter().map(|&l| l as usize).sum();
        let mut keys = Vec::with_capacity(live + live / 2 + 4 * self.start.len());
        let mut wts = Vec::with_capacity(keys.capacity());
        for v in 0..self.start.len() {
            let (s, l) = (self.start[v] as usize, self.len[v] as usize);
            let cap = (l + l / 2).max(4);
            self.start[v] = keys.len() as u32;
            self.cap[v] = cap as u32;
            keys.extend_from_slice(&self.keys[s..s + l]);
            wts.extend_from_slice(&self.wts[s..s + l]);
            keys.resize(keys.len() + (cap - l), 0);
            wts.resize(wts.len() + (cap - l), W::default());
        }
        self.keys = keys;
        self.wts = wts;
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
        assert!(pool.insert(0, 7, 70));
        assert!(pool.insert(0, 2, 20));
        assert!(pool.insert(0, 9, 90));
        assert!(!pool.insert(0, 7, 71), "upsert replaces");
        assert_eq!(pool.keys_of(0), &[2, 7, 9]);
        assert_eq!(pool.wts_of(0), &[20, 71, 90]);
        assert_eq!(pool.get(0, 7), Some(71));
        assert_eq!(pool.get(0, 3), None);
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
            pool.insert(0, k * 2, u64::from(k));
            pool.insert(1, k * 2 + 1, u64::from(k) + 100);
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
                pool.insert(v, k, 9);
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
                    pool.insert(v, round * 16 + j, u64::from(round * 16 + j));
                }
            }
        }
        for v in 0..64 {
            let want: Vec<u32> = (0..96).collect();
            assert_eq!(pool.keys_of(v), &want[..]);
            assert_eq!(pool.get(v, 95), Some(95));
        }
    }

    #[test]
    fn exact_capacities_fill_without_relocating() {
        // Spans handed over at their exact lengths: the pool takes the
        // vectors as they are, with no slack and nothing relocated.
        let caps: Vec<u32> = (0..40).map(|v| v % 7).collect();
        let total: usize = caps.iter().map(|&c| c as usize).sum();
        let mut keys: Vec<u32> = Vec::with_capacity(total);
        keys.extend(caps.iter().flat_map(|&c| (0..c).map(|j| j * 3)));
        let wts: Vec<u64> = keys.iter().map(|&k| u64::from(k / 3)).collect();
        let mut pool: AdjPool = AdjPool::from_spans(caps.clone(), keys, wts);
        assert_eq!((pool.keys.len(), pool.keys.capacity()), (total, total));
        assert_eq!(pool.dead, 0);
        assert_eq!((pool.keys.len(), pool.wts.len()), (total, total));
        assert_eq!(pool.total_len(), total);
        let starts = pool.start.clone();
        for (v, &c) in caps.iter().enumerate() {
            let want: Vec<u32> = (0..c).map(|j| j * 3).collect();
            assert_eq!(pool.keys_of(v), &want[..]);
            assert_eq!(pool.get(v, 3), (c > 1).then_some(1));
        }
        // The first insert past a capacity relocates that span alone.
        assert!(pool.insert(5, 1, 9));
        assert_eq!(pool.dead, caps[5] as usize);
        assert_eq!(pool.start[5] as usize, total);
        assert_eq!(pool.keys_of(5), &[0, 1, 3, 6, 9, 12]);
        for v in (0..caps.len()).filter(|&v| v != 5) {
            assert_eq!(pool.start[v], starts[v], "vertex {v} moved");
        }
    }

    #[test]
    fn keys_only_and_weighted_pools_stay_mirrors() {
        // The same mixed operation stream through both weight columns:
        // relocations and compactions included, the key spans must agree
        // after every step's worth of churn, and the keys-only pool must
        // never have allocated a weight.
        let mut weighted: AdjPool<u64> = AdjPool::with_vertices(48);
        let mut keys_only: AdjPool<()> = AdjPool::with_vertices(48);
        let mut state = 0xA9E0u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..20_000 {
            let v = (next() % 48) as usize;
            let key = (next() % 400) as u32;
            if next() % 3 == 0 {
                assert_eq!(weighted.remove(v, key), keys_only.remove(v, key));
            } else {
                let w = next() + 1;
                assert_eq!(weighted.insert(v, key, w), keys_only.insert(v, key, ()));
                assert_eq!(weighted.get(v, key), Some(w));
            }
            assert_eq!(weighted.keys_of(v), keys_only.keys_of(v));
        }
        for v in 0..48 {
            assert_eq!(weighted.keys_of(v), keys_only.keys_of(v));
            assert_eq!(weighted.wts_of(v).len(), keys_only.wts_of(v).len());
        }
        assert_eq!(weighted.dead, keys_only.dead);
        assert_eq!(weighted.start, keys_only.start);
        assert_eq!(
            keys_only.wts.capacity(),
            usize::MAX,
            "a Vec<()> holds no memory"
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
