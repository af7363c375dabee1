//! Incremental single-data matching: repair instead of re-solve.
//!
//! [`IncrementalMatcher`] keeps the residual network of the last max-flow
//! solve — for a unit-capacity bipartite matching that is exactly the
//! `owner` / `load` / `quota` state — and repairs it after a layout delta
//! with augmenting / de-augmenting path searches seeded only from the
//! delta-touched vertices. Each elementary mutation restores maximality
//! before the next is applied, so after any delta sequence the matching
//! has the same cardinality a from-scratch solve would produce; under
//! [`Objective::MatchedBytes`] an exchange pass additionally restores the
//! maximum matched-byte total among maximum matchings (matchable file sets
//! form a transversal matroid, so the absence of any single improving
//! exchange implies global optimality).
//!
//! Why seeded searches suffice: if the matching was maximum before a
//! single edge/vertex change, any new augmenting path must use the changed
//! element — otherwise it would have existed before, contradicting
//! maximality. A failed seeded search is therefore a *proof* that the
//! repaired matching is again maximum, not a heuristic give-up.
//!
//! The residual state lives in dense arenas (`MatchState`): `u32`
//! owner/load/quota slabs and an intrusive [`OwnedList`] inverse index,
//! so the searches run allocation-free over the graph's raw adjacency
//! slices. Every search — rehome, feed and exchange — walks its path with
//! an explicit frame stack kept in the state, so a path through every
//! process of the graph needs no more call stack than a short one. Repair
//! runs one sequential kernel.

use crate::arena::{OwnedList, NONE};
use crate::graph::BipartiteGraph;
use crate::single_data::{quotas, Objective};

fn quotas_u32(n_files: usize, n_procs: usize) -> Vec<u32> {
    quotas(n_files, n_procs)
        .into_iter()
        .map(|q| u32::try_from(q).expect("quota fits u32"))
        .collect()
}

/// The dense residual state of a quota-constrained bipartite matching:
/// everything the repair searches touch per visit, flattened into
/// index-addressed slabs. [`NONE`] is the unmatched sentinel throughout.
///
/// Kept separate from the graph so the search methods can borrow the
/// adjacency (`&BipartiteGraph`) immutably while mutating the state —
/// the split-borrow that lets the DFS walk raw neighbor slices with
/// zero per-visit allocation.
#[derive(Debug, Clone)]
struct MatchState {
    /// Per-process task quota (always `quotas(n_files, n_procs)`).
    quota: Vec<u32>,
    /// `owner[f]` = process matched to file `f`, or [`NONE`].
    owner: Vec<u32>,
    /// Inverse of `owner` (`proc -> owned files`, ascending), kept in
    /// lockstep so the repair DFS enumerates a process's matches in
    /// O(load) instead of scanning every file.
    owned: OwnedList,
    /// `load[p]` = number of files matched to process `p`.
    load: Vec<u32>,
    /// DFS visited marks over processes, versioned to avoid clearing.
    mark: Vec<u64>,
    epoch: u64,
    /// Frame-stacked `(weight, file)` snapshots for the exchange DFS —
    /// one reusable buffer instead of a sort allocation per visit.
    scratch: Vec<(u64, u32)>,
    /// Frames of the `dfs_rehome` search, kept between searches.
    rehome_stack: Vec<Rehome>,
    /// Frames of the `dfs_feed` search, kept between searches.
    feed_stack: Vec<Feed>,
    /// Frames of the `dfs_exchange` search, kept between searches.
    exchange_stack: Vec<Exchange>,
    /// The files still unmatched during `repair_core`, ascending; empty
    /// between repairs, so a clone copies none of it.
    open: Vec<u32>,
}

/// One file on the `dfs_rehome` path; see there.
#[derive(Debug, Clone, Copy)]
struct Rehome {
    file: u32,
    edge: u32,
    proc: u32,
    next: u32,
}

impl Rehome {
    fn of(file: u32) -> Self {
        Rehome {
            file,
            edge: 0,
            proc: NONE,
            next: NONE,
        }
    }
}

/// One process on the `dfs_feed` path; see there.
#[derive(Debug, Clone, Copy)]
struct Feed {
    proc: u32,
    edge: u32,
}

/// One file on the `dfs_exchange` path; see there.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    file: u32,
    edge: u32,
    proc: u32,
    start: u32,
    next: u32,
}

impl Exchange {
    fn of(file: u32) -> Self {
        Exchange {
            file,
            edge: 0,
            proc: NONE,
            start: 0,
            next: 0,
        }
    }
}

impl MatchState {
    /// The single shared construction path: adopts a dense owner vector
    /// verbatim and derives `load` and the `owned` inverse index from it.
    /// `quota.len()` is the process count. Validation stays at the public
    /// callers.
    fn adopt(owner: Vec<u32>, quota: Vec<u32>) -> Self {
        let m = quota.len();
        let mut load = vec![0u32; m];
        for &p in &owner {
            if p != NONE {
                load[p as usize] += 1;
            }
        }
        let owned = OwnedList::rebuild_from(&owner, m);
        MatchState {
            quota,
            owner,
            owned,
            load,
            mark: vec![0; m],
            epoch: 0,
            scratch: Vec::new(),
            rehome_stack: Vec::new(),
            feed_stack: Vec::new(),
            exchange_stack: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Points `file` at `proc` ([`NONE`] detaches), keeping the `owned`
    /// inverse index in lockstep. Load bookkeeping stays at the call
    /// sites — the searches move load along paths, not per file.
    fn set_owner(&mut self, file: u32, proc: u32) {
        let old = self.owner[file as usize];
        if old != NONE {
            self.owned.remove(old, file);
        }
        if proc != NONE {
            self.owned.insert(proc, file);
        }
        self.owner[file as usize] = proc;
    }

    /// Undoes a failed trade: `file`, detached from `proc` by
    /// [`Self::set_owner`]`(file, NONE)`, goes back to `proc` and to the
    /// place in its chain it left, in O(1) ([`OwnedList::relink`]).
    ///
    /// Exact because no search touches `proc`'s chain between the unlink
    /// and the relink: `proc` is marked, so nothing is assigned to it or
    /// evicted from it, and every deeper frame undoes its own unlinks
    /// before it returns (last in, first out). The chain comes back as it
    /// was, still ascending. A commit, which moves a file to a new owner,
    /// links through the sorted walk of [`Self::set_owner`] instead.
    fn restore_owner(&mut self, file: u32, proc: u32) {
        debug_assert_eq!(self.owner[file as usize], NONE, "restored file is detached");
        self.owned.relink(proc, file);
        self.owner[file as usize] = proc;
    }

    /// Kuhn-style augmenting search from an unmatched file. Commits on
    /// success; on failure the matching is untouched.
    fn try_augment(&mut self, g: &BipartiteGraph, file: u32) -> bool {
        if self.owner[file as usize] != NONE {
            return false;
        }
        self.epoch += 1;
        self.dfs_rehome(g, file)
    }

    /// Finds a home for unmatched `file`: a co-located process with spare
    /// quota, re-homing matched files along the way. Sorted adjacency and
    /// the ascending `owned` chains make the path choice deterministic.
    ///
    /// Depth-first with an explicit stack, so a path through every
    /// process of the graph needs no more call stack than a short one. A
    /// frame is a detached file: `edge` is the next of its processes to
    /// try, `proc` the full process whose owned chain it is walking and
    /// `next` that chain's resume point, captured before the child frame
    /// unlinks its file. No deeper frame touches `proc`'s chain (`proc`
    /// is marked, so none assigns to or evicts from it): a failed child
    /// relinks its file in place ([`Self::restore_owner`]) and `next` is
    /// still right.
    fn dfs_rehome(&mut self, g: &BipartiteGraph, file: u32) -> bool {
        let mut stack = std::mem::take(&mut self.rehome_stack);
        stack.clear();
        stack.push(Rehome::of(file));
        let found = loop {
            let Some(top) = stack.last_mut() else {
                break false;
            };
            if top.proc != NONE && top.next != NONE {
                // Offer `proc`'s next owned file a new home.
                let f2 = top.next;
                top.next = self.owned.next_of(f2);
                self.set_owner(f2, NONE);
                stack.push(Rehome::of(f2));
                continue;
            }
            top.proc = NONE;
            let procs = g.procs_raw(top.file as usize);
            while let Some(&p) = procs.get(top.edge as usize) {
                top.edge += 1;
                if self.mark[p as usize] == self.epoch {
                    continue;
                }
                self.mark[p as usize] = self.epoch;
                top.proc = p;
                top.next = self.owned.head_of(p);
                break;
            }
            let (failed, p) = (top.file, top.proc);
            if p == NONE {
                // Every process of this file failed: the parent's trade
                // fails too, and its file goes back to its process.
                stack.pop();
                if let Some(parent) = stack.last() {
                    self.restore_owner(failed, parent.proc);
                }
            } else if self.load[p as usize] < self.quota[p as usize] {
                // Spare quota ends the path: each process on it trades its
                // detached file for the one its frame was homing.
                self.load[p as usize] += 1;
                while let Some(frame) = stack.pop() {
                    self.set_owner(frame.file, frame.proc);
                }
                break true;
            }
        };
        self.rehome_stack = stack;
        found
    }

    /// Augmenting search that terminates *into* `proc` (which must have
    /// spare quota): reach an unmatched file along an alternating path
    /// rooted at `proc`. Commits on success.
    fn try_augment_into(&mut self, g: &BipartiteGraph, proc: u32) -> bool {
        if self.load[proc as usize] >= self.quota[proc as usize] {
            return false;
        }
        self.epoch += 1;
        self.dfs_feed(g, proc)
    }

    /// Depth-first with an explicit stack, like [`Self::dfs_rehome`]. A
    /// frame is a process that has given up a unit of quota: it takes an
    /// unmatched file of its own if it has one, or else steals the files
    /// of its adjacency in turn (`edge` is the next to try), each time
    /// letting the robbed owner recover in a child frame. A failed child
    /// gets its file back.
    fn dfs_feed(&mut self, g: &BipartiteGraph, proc: u32) -> bool {
        if self.mark[proc as usize] == self.epoch {
            return false;
        }
        let mut stack = std::mem::take(&mut self.feed_stack);
        stack.clear();
        let mut entering = Some(proc);
        let found = loop {
            if let Some(p) = entering.take() {
                self.mark[p as usize] = self.epoch;
                let files = g.files_raw(p as usize);
                if let Some(&f) = files.iter().find(|&&f| self.owner[f as usize] == NONE) {
                    self.set_owner(f, p);
                    self.load[p as usize] += 1;
                    break true;
                }
                stack.push(Feed { proc: p, edge: 0 });
            }
            let Some(top) = stack.last_mut() else {
                break false;
            };
            let p = top.proc;
            let files = g.files_raw(p as usize);
            while let Some(&f) = files.get(top.edge as usize) {
                top.edge += 1;
                let q = self.owner[f as usize];
                if self.mark[q as usize] == self.epoch {
                    continue;
                }
                // Tentatively steal f so the search cannot grab it back,
                // then let q recover through its own adjacency.
                self.set_owner(f, p);
                self.load[p as usize] += 1;
                self.load[q as usize] -= 1;
                entering = Some(q);
                break;
            }
            if entering.is_none() {
                // `p` could not recover: undo its parent's steal.
                stack.pop();
                if let Some(parent) = stack.last() {
                    let f = g.files_raw(parent.proc as usize)[parent.edge as usize - 1];
                    self.set_owner(f, p);
                    self.load[p as usize] += 1;
                    self.load[parent.proc as usize] -= 1;
                }
            }
        };
        self.feed_stack = stack;
        found
    }

    /// Repairs after inserting edge `(proc, file)` where `file` is
    /// matched to some other process `q`. Any augmenting path must cross
    /// the new edge, splitting into a *release* half (source capacity
    /// reaches `proc`) and a *feed* half (`q` re-homes onto a different
    /// unmatched file). Both halves are vertex-disjoint from each other
    /// whenever the prior matching was maximum — a shared vertex would
    /// splice into an augmenting path that predates the edge — so they
    /// can be committed independently.
    fn augment_through(&mut self, g: &BipartiteGraph, proc: u32, file: u32) {
        if !self.release_capacity(g, proc) {
            return; // no augmenting path can cross the new edge
        }
        let q = self.owner[file as usize];
        debug_assert!(q != NONE, "caller checked matched");
        // Move `file` across the new edge (cardinality unchanged), then
        // let the freed unit at q hunt for an unmatched file.
        self.set_owner(file, proc);
        self.load[proc as usize] += 1;
        self.load[q as usize] -= 1;
        // If this fails the matching is still valid and still maximum;
        // the move simply stands (deterministic either way).
        self.try_augment_into(g, q);
    }

    /// Ensures `proc` has a spare quota unit, re-homing one of its owned
    /// files along an alternating path if necessary (commits on success).
    /// Failure proves no unit of source capacity can reach `proc`.
    fn release_capacity(&mut self, g: &BipartiteGraph, proc: u32) -> bool {
        if self.load[proc as usize] < self.quota[proc as usize] {
            return true;
        }
        let mut f2 = self.owned.head_of(proc);
        while f2 != NONE {
            let nxt = self.owned.next_of(f2);
            self.epoch += 1;
            self.mark[proc as usize] = self.epoch; // the chain must not re-enter
            self.set_owner(f2, NONE);
            self.load[proc as usize] -= 1;
            if self.dfs_rehome(g, f2) {
                return true;
            }
            self.restore_owner(f2, proc);
            self.load[proc as usize] += 1;
            f2 = nxt;
        }
        false
    }

    /// Restores maximality after staged mutations: Kuhn phases over the
    /// unmatched files with phase-shared visited marks (the DFS stage of
    /// Hopcroft–Karp), repeated until a full phase augments nothing.
    /// Sound as a stopping proof because every augmenting path begins at
    /// an unmatched file; phase-sharing the marks only defers paths
    /// blocked by an earlier search in the same phase to the next phase.
    /// Finishes with the byte-optimality exchange pass.
    ///
    /// The unmatched files are collected once, ascending, and each phase
    /// visits only those still open; a phase that made progress prunes
    /// the list. No file becomes unmatched in here — a successful search
    /// matches every file on its path, a failed one restores them — so
    /// the phases search the same files in the same order as a scan of
    /// every owner would.
    fn repair_core(&mut self, g: &BipartiteGraph, objective: Objective) {
        let mut open = std::mem::take(&mut self.open);
        open.extend((0..self.owner.len() as u32).filter(|&f| self.owner[f as usize] == NONE));
        loop {
            self.epoch += 1;
            let mut progressed = false;
            for &f in &open {
                if self.owner[f as usize] == NONE && self.dfs_rehome(g, f) {
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
            open.retain(|&f| self.owner[f as usize] == NONE);
        }
        open.clear();
        self.open = open;
        self.restore_bytes_optimality(g, objective);
    }

    /// Restores byte-optimality among maximum matchings via improving
    /// alternating-path exchanges; a no-op under `Objective::MatchCount`.
    ///
    /// Every unmatched file tries to enter the matching by evicting a
    /// strictly smaller matched file reachable along an alternating path
    /// (the transversal-matroid exchange). Each successful swap strictly
    /// increases the byte total, so the fixpoint is reached in finitely
    /// many steps; at the fixpoint no single improving exchange exists,
    /// which for a matroid weight objective is global optimality.
    fn restore_bytes_optimality(&mut self, g: &BipartiteGraph, objective: Objective) {
        if objective != Objective::MatchedBytes {
            return;
        }
        loop {
            let mut unmatched: Vec<(u64, u32)> = (0..self.owner.len() as u32)
                .filter(|&f| self.owner[f as usize] == NONE)
                .map(|f| (file_size(g, f), f))
                .collect();
            // Deterministic order: biggest files first, then index.
            unmatched.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut progressed = false;
            for (size, f) in unmatched {
                if self.owner[f as usize] == NONE && self.try_exchange(g, f, size) {
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Attempts to bring unmatched `file` into the matching by evicting a
    /// strictly smaller matched file along an alternating path.
    fn try_exchange(&mut self, g: &BipartiteGraph, file: u32, size: u64) -> bool {
        if size == 0 {
            return false;
        }
        self.epoch += 1;
        self.dfs_exchange(g, file, size)
    }

    /// DFS for an alternating path from unmatched `file` ending at a
    /// victim with size < `limit`; `file` enters, the victim leaves,
    /// cardinality is unchanged and matched bytes strictly increase.
    /// Only mutates state on the committed success path.
    ///
    /// Depth-first with an explicit stack, like [`Self::dfs_rehome`]. A
    /// frame is a detached file: `edge` is the next of its processes to
    /// try, `proc` the full process it is trading into, and that
    /// process's owned files wait smallest-first on `scratch` from
    /// `start`, `next` the one to offer next — evict the cheapest, and
    /// prefer direct eviction over deeper pass-through chains. A child
    /// frame pushes its snapshot past its parent's and truncates back
    /// before the parent resumes, so the top frame's snapshot always ends
    /// at `scratch.len()`. A failed child gets its file back.
    fn dfs_exchange(&mut self, g: &BipartiteGraph, file: u32, limit: u64) -> bool {
        let base = self.scratch.len();
        let mut stack = std::mem::take(&mut self.exchange_stack);
        stack.clear();
        stack.push(Exchange::of(file));
        let found = loop {
            let Some(top) = stack.last_mut() else {
                break false;
            };
            if top.proc != NONE && (top.next as usize) < self.scratch.len() {
                let (w, f2) = self.scratch[top.next as usize];
                top.next += 1;
                self.set_owner(f2, NONE);
                if w < limit {
                    // The victim leaves; each file on the path enters
                    // the process its frame was trading into.
                    while let Some(frame) = stack.pop() {
                        self.set_owner(frame.file, frame.proc);
                    }
                    break true;
                }
                stack.push(Exchange::of(f2));
                continue;
            }
            if top.proc != NONE {
                // `proc`'s snapshot is spent: drop it, try the next.
                self.scratch.truncate(top.start as usize);
                top.proc = NONE;
            }
            let procs = g.procs_raw(top.file as usize);
            while let Some(&p) = procs.get(top.edge as usize) {
                top.edge += 1;
                if self.mark[p as usize] == self.epoch {
                    continue;
                }
                self.mark[p as usize] = self.epoch;
                debug_assert!(
                    self.load[p as usize] >= self.quota[p as usize],
                    "spare quota next to an unmatched file contradicts maximality"
                );
                top.proc = p;
                top.start = self.scratch.len() as u32;
                top.next = top.start;
                let mut f2 = self.owned.head_of(p);
                while f2 != NONE {
                    let w = g.weight(p as usize, f2 as usize).unwrap_or(0);
                    self.scratch.push((w, f2));
                    f2 = self.owned.next_of(f2);
                }
                self.scratch[top.start as usize..].sort_unstable();
                break;
            }
            if top.proc == NONE {
                // Every process of this file failed: the parent's trade
                // fails too, and its file goes back to its process.
                let failed = top.file;
                stack.pop();
                if let Some(parent) = stack.last() {
                    self.restore_owner(failed, parent.proc);
                }
            }
        };
        self.scratch.truncate(base);
        self.exchange_stack = stack;
        found
    }
}

/// The file's chunk size: edge weights are uniform across a file's
/// replicas (a process reads the whole chunk locally or not at all).
fn file_size(g: &BipartiteGraph, file: u32) -> u64 {
    g.procs_raw_wts(file as usize).first().copied().unwrap_or(0)
}

/// A maximum bipartite matching that can be repaired in place as the
/// underlying locality graph mutates.
///
/// The matcher owns its copy of the graph; callers mutate it exclusively
/// through the methods here so the residual state never goes stale.
#[derive(Debug, Clone)]
pub struct IncrementalMatcher {
    graph: BipartiteGraph,
    objective: Objective,
    state: MatchState,
}

/// Semantic equality: same graph, objective, quotas, owners, and loads.
/// Search scratch (visited marks, epoch counter, exchange stack) and the
/// `owned` index — a pure function of `owner` — are excluded, so two
/// matchers that would behave identically compare equal even if they
/// reached the state through different repair schedules.
impl PartialEq for IncrementalMatcher {
    fn eq(&self, other: &Self) -> bool {
        self.graph == other.graph
            && self.objective == other.objective
            && self.state.quota == other.state.quota
            && self.state.owner == other.state.owner
            && self.state.load == other.state.load
    }
}

impl Eq for IncrementalMatcher {}

impl IncrementalMatcher {
    /// Builds the matcher from a graph, solving the initial matching with
    /// augmenting searches (same cardinality as max-flow).
    pub fn new(graph: BipartiteGraph, objective: Objective) -> Self {
        let m = graph.n_procs();
        let n = graph.n_files();
        assert!(m > 0, "need at least one process");
        let state = MatchState::adopt(vec![NONE; n], quotas_u32(n, m));
        let mut s = IncrementalMatcher {
            graph,
            objective,
            state,
        };
        for f in 0..n as u32 {
            s.state.try_augment(&s.graph, f);
        }
        s.state.restore_bytes_optimality(&s.graph, s.objective);
        s.debug_check();
        s
    }

    /// Adopts an existing matching (e.g. the one a from-scratch flow
    /// solve produced) instead of re-solving, so a long-lived session can
    /// start from the scratch planner's exact assignment and still repair
    /// incrementally. The matching is topped up to maximality (a no-op
    /// when the input is already maximum — every augmenting search fails
    /// without mutating anything) and, under
    /// [`Objective::MatchedBytes`], the exchange pass restores byte
    /// optimality (again a no-op for a min-cost-flow input).
    ///
    /// # Panics
    ///
    /// Panics if `owner` has the wrong length, names an edge absent from
    /// the graph, or overfills a process's quota.
    pub fn from_matching(
        graph: BipartiteGraph,
        objective: Objective,
        owner: Vec<Option<usize>>,
    ) -> Self {
        let m = graph.n_procs();
        let n = graph.n_files();
        assert!(m > 0, "need at least one process");
        assert_eq!(owner.len(), n, "one owner slot per file");
        let dense: Vec<u32> = owner
            .iter()
            .enumerate()
            .map(|(f, o)| match *o {
                Some(p) => {
                    assert!(
                        graph.weight(p, f).is_some(),
                        "matched edge ({p},{f}) absent from the graph"
                    );
                    p as u32
                }
                None => NONE,
            })
            .collect();
        let state = MatchState::adopt(dense, quotas_u32(n, m));
        for (p, (&l, &q)) in state.load.iter().zip(&state.quota).enumerate() {
            assert!(l <= q, "process {p} above quota");
        }
        let mut s = IncrementalMatcher {
            graph,
            objective,
            state,
        };
        for f in 0..n as u32 {
            if s.state.owner[f as usize] == NONE {
                s.state.try_augment(&s.graph, f);
            }
        }
        s.state.restore_bytes_optimality(&s.graph, s.objective);
        s.debug_check();
        s
    }

    /// The graph as currently mutated.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// Current matching cardinality.
    pub fn matched_count(&self) -> usize {
        // The load slab is maintained on every owner change, so summing
        // it is O(procs), not O(files).
        self.state.load.iter().map(|&l| l as usize).sum()
    }

    /// Sum of matched-edge weights (locally read bytes).
    pub fn matched_bytes(&self) -> u64 {
        self.state
            .owner
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p != NONE)
            .map(|(f, &p)| {
                self.graph
                    .weight(p as usize, f)
                    .expect("matched edge exists")
            })
            .sum()
    }

    /// Owner of each file, if matched locally, decoded from the dense
    /// slab (a fresh vector — use [`IncrementalMatcher::owner_of`] or
    /// [`IncrementalMatcher::owners_dense`] on hot paths).
    pub fn owners(&self) -> Vec<Option<usize>> {
        self.state
            .owner
            .iter()
            .map(|&p| (p != NONE).then_some(p as usize))
            .collect()
    }

    /// Owner of `file`, if matched locally.
    pub fn owner_of(&self, file: usize) -> Option<usize> {
        let p = self.state.owner[file];
        (p != NONE).then_some(p as usize)
    }

    /// The raw owner slab: one `u32` process handle per file, [`NONE`]
    /// when unmatched. Zero-copy view for render and bench paths.
    pub fn owners_dense(&self) -> &[u32] {
        &self.state.owner
    }

    /// Per-process quotas in force.
    pub fn quota(&self) -> &[u32] {
        &self.state.quota
    }

    /// Per-process matched load.
    pub fn load(&self) -> &[u32] {
        &self.state.load
    }

    /// Adds (or reweights) a locality edge and repairs the matching.
    pub fn add_edge(&mut self, proc: usize, file: usize, bytes: u64) {
        let existed = self.graph.weight(proc, file).is_some();
        self.graph.add_edge(proc, file, bytes);
        if !existed {
            if self.state.owner[file] == NONE {
                self.state.try_augment(&self.graph, file as u32);
            } else {
                self.state
                    .augment_through(&self.graph, proc as u32, file as u32);
            }
        }
        self.state
            .restore_bytes_optimality(&self.graph, self.objective);
        self.debug_check();
    }

    /// Removes a locality edge and repairs the matching.
    pub fn remove_edge(&mut self, proc: usize, file: usize) {
        if !self.graph.remove_edge(proc, file) {
            return;
        }
        if self.state.owner[file] == proc as u32 {
            self.state.set_owner(file as u32, NONE);
            self.state.load[proc] -= 1;
            // Two independent recovery routes, each bounded by the one
            // unit of residual capacity the removal created: rematch the
            // file elsewhere, and refill the freed quota unit of `proc`.
            self.state.try_augment(&self.graph, file as u32);
            self.state.try_augment_into(&self.graph, proc as u32);
        }
        self.state
            .restore_bytes_optimality(&self.graph, self.objective);
        self.debug_check();
    }

    /// Appends a new file with the given locality edges `(proc, bytes)`
    /// and repairs. Quotas grow by one unit at process `n mod m` (the
    /// largest-remainder layout shifts in exactly one slot), so the
    /// max-flow value can rise by at most one on each of the two new
    /// sources of slack: the new file and the grown quota. Returns the
    /// new file index.
    pub fn add_file(&mut self, edges: &[(usize, u64)]) -> usize {
        let f = self.graph.push_file();
        self.state.owner.push(NONE);
        self.state.owned.push_file();
        for &(p, bytes) in edges {
            self.graph.add_edge(p, f, bytes);
        }
        let gainer = (self.graph.n_files() - 1) % self.state.load.len();
        self.state.quota[gainer] += 1;
        let entered = self.state.try_augment(&self.graph, f as u32);
        if entered && self.state.load[gainer] == self.state.quota[gainer] {
            // The new file's path took the grown quota unit. The flow may
            // still rise by one more, along a path from an older
            // unmatched file through the new file to another spare
            // process; no search seeded at the now-full gainer reaches
            // it, so run one phase over every unmatched file.
            self.state.repair_core(&self.graph, self.objective);
        } else {
            self.state.try_augment_into(&self.graph, gainer as u32);
            self.state
                .restore_bytes_optimality(&self.graph, self.objective);
        }
        self.debug_check();
        f
    }

    /// Removes file `file` (files above shift down, mirroring snapshot
    /// compaction) and repairs. The quota unit lost at process
    /// `(n-1) mod m` de-augments a deterministic victim — the smallest
    /// `(bytes, index)` file that process owns — which then gets one
    /// rematch attempt; a failed rematch proves the shrunk network's flow
    /// really is one lower.
    pub fn remove_file(&mut self, file: usize) {
        let freed_proc = self.state.owner[file];
        self.state.owner.remove(file);
        self.graph.remove_file(file);
        // Every file index above `file` shifted down: re-adopt the owner
        // slab through the shared construction path, which re-derives
        // `owned` and `load` (removal is already O(n) in the graph
        // compaction). Quotas are still pre-shrink here.
        let owner = std::mem::take(&mut self.state.owner);
        let quota = std::mem::take(&mut self.state.quota);
        self.state = MatchState::adopt(owner, quota);
        let loser = self.graph.n_files() % self.state.load.len();
        self.state.quota[loser] -= 1;
        let mut victim = NONE;
        if self.state.load[loser] > self.state.quota[loser] {
            let mut best = (u64::MAX, NONE);
            let mut f2 = self.state.owned.head_of(loser as u32);
            while f2 != NONE {
                let w = self.graph.weight(loser, f2 as usize).unwrap_or(0);
                if (w, f2) < best {
                    best = (w, f2);
                }
                f2 = self.state.owned.next_of(f2);
            }
            let v = best.1;
            assert!(v != NONE, "load > quota implies an owned file");
            self.state.set_owner(v, NONE);
            self.state.load[loser] -= 1;
            victim = v;
        }
        if victim != NONE {
            self.state.try_augment(&self.graph, victim);
        }
        if freed_proc != NONE {
            self.state.try_augment_into(&self.graph, freed_proc);
        }
        self.state
            .restore_bytes_optimality(&self.graph, self.objective);
        self.debug_check();
    }

    /// Stages an edge insertion (or reweight) without repairing; pair
    /// with [`IncrementalMatcher::repair_batch`]. Staging a whole delta
    /// and repairing once replaces per-mutation proof searches — each up
    /// to O(edges) — with a few shared phases for the entire batch.
    pub fn stage_add_edge(&mut self, proc: usize, file: usize, bytes: u64) {
        self.graph.add_edge(proc, file, bytes);
    }

    /// Stages an edge removal without repairing: if `file` was matched
    /// across the edge it simply becomes unmatched. Pair with
    /// [`IncrementalMatcher::repair_batch`].
    pub fn stage_remove_edge(&mut self, proc: usize, file: usize) {
        if !self.graph.remove_edge(proc, file) {
            return;
        }
        if self.state.owner[file] == proc as u32 {
            self.state.set_owner(file as u32, NONE);
            self.state.load[proc] -= 1;
        }
    }

    /// Restores maximality after staged mutations; see
    /// `MatchState::repair_core` for the phase discipline and stopping
    /// proof.
    pub fn repair_batch(&mut self) {
        self.state.repair_core(&self.graph, self.objective);
        self.debug_check();
    }

    #[cfg(debug_assertions)]
    fn debug_check(&self) {
        self.graph.check_mirror().expect("graph mirror invariant");
        assert_eq!(
            self.state.quota.iter().map(|&q| q as usize).sum::<usize>(),
            self.graph.n_files(),
            "quotas sum to the file count"
        );
        let mut load = vec![0u32; self.state.load.len()];
        for (f, &p) in self.state.owner.iter().enumerate() {
            if p != NONE {
                assert!(
                    self.graph.weight(p as usize, f).is_some(),
                    "matched pair ({p},{f}) must be an edge"
                );
                load[p as usize] += 1;
            }
        }
        assert_eq!(load, self.state.load, "load vector consistent with owners");
        for (p, (&l, &q)) in load.iter().zip(&self.state.quota).enumerate() {
            assert!(l <= q, "process {p} over quota");
        }
        for p in 0..self.state.load.len() as u32 {
            let mut prev = NONE;
            let mut count = 0u32;
            for f in self.state.owned.iter(p) {
                assert!(prev == NONE || prev < f, "owned chain of {p} must ascend");
                assert_eq!(self.state.owner[f as usize], p, "chain member owned by {p}");
                prev = f;
                count += 1;
            }
            assert_eq!(count, load[p as usize], "chain length equals load");
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_data::{FillPolicy, SingleDataMatcher};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference (cardinality, matched bytes) via the flow matcher.
    fn flow_reference(graph: &BipartiteGraph, objective: Objective) -> (usize, u64) {
        let matcher = SingleDataMatcher {
            fill: FillPolicy::LeastLoaded,
            objective,
            ..Default::default()
        };
        let out = matcher.assign(graph, &mut StdRng::seed_from_u64(0));
        // Matched bytes = weights of owner edges that exist in the graph
        // (fill assignments have no locality edge and contribute nothing).
        let bytes: u64 = out
            .assignment
            .owners()
            .iter()
            .enumerate()
            .filter_map(|(f, &p)| graph.weight(p, f))
            .sum();
        (out.matched_files, bytes)
    }

    fn random_graph(m: usize, n: usize, density_mod: u64, seed: u64) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(m, n);
        let mut state = seed;
        for f in 0..n {
            for p in 0..m {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state % density_mod == 0 {
                    g.add_edge(p, f, 64);
                }
            }
        }
        g
    }

    #[test]
    fn initial_solve_matches_flow_cardinality() {
        for seed in 0..8 {
            let g = random_graph(4, 16, 3, seed);
            let inc = IncrementalMatcher::new(g.clone(), Objective::MatchCount);
            let (card, _) = flow_reference(&g, Objective::MatchCount);
            assert_eq!(inc.matched_count(), card, "seed {seed}");
        }
    }

    #[test]
    fn edge_add_repairs_to_flow_cardinality() {
        let mut inc = IncrementalMatcher::new(random_graph(4, 16, 4, 11), Objective::MatchCount);
        let mut state = 99u64;
        for _ in 0..40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p = (state >> 8) as usize % 4;
            let f = (state >> 24) as usize % 16;
            if inc.graph().weight(p, f).is_none() {
                inc.add_edge(p, f, 64);
                let (card, _) = flow_reference(inc.graph(), Objective::MatchCount);
                assert_eq!(inc.matched_count(), card, "after add ({p},{f})");
            }
        }
    }

    #[test]
    fn edge_remove_repairs_to_flow_cardinality() {
        let mut inc = IncrementalMatcher::new(random_graph(4, 16, 2, 5), Objective::MatchCount);
        let mut state = 7u64;
        for _ in 0..60 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p = (state >> 8) as usize % 4;
            let f = (state >> 24) as usize % 16;
            if inc.graph().weight(p, f).is_some() {
                inc.remove_edge(p, f);
                let (card, _) = flow_reference(inc.graph(), Objective::MatchCount);
                assert_eq!(inc.matched_count(), card, "after remove ({p},{f})");
            }
        }
    }

    #[test]
    fn mixed_churn_repairs_to_flow_cardinality() {
        let mut inc = IncrementalMatcher::new(random_graph(5, 20, 3, 31), Objective::MatchCount);
        let mut state = 13u64;
        for step in 0..80 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p = (state >> 8) as usize % 5;
            let f = (state >> 24) as usize % inc.graph().n_files();
            if inc.graph().weight(p, f).is_some() {
                inc.remove_edge(p, f);
            } else {
                inc.add_edge(p, f, 64);
            }
            let (card, _) = flow_reference(inc.graph(), Objective::MatchCount);
            assert_eq!(inc.matched_count(), card, "step {step}");
        }
    }

    #[test]
    fn staged_batch_repairs_to_flow_cardinality() {
        // The staged path (mutate everything, repair once) must land on
        // the same cardinality as both the flow reference and the
        // per-mutation elementary path, for batches of any mix.
        let mut state = 41u64;
        for round in 0..6 {
            let g = random_graph(5, 24, 3, 100 + round);
            let mut staged = IncrementalMatcher::new(g.clone(), Objective::MatchCount);
            let mut elementary = IncrementalMatcher::new(g, Objective::MatchCount);
            let mut ops = Vec::new();
            for _ in 0..12 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let p = (state >> 8) as usize % 5;
                let f = (state >> 24) as usize % 24;
                ops.push((p, f, staged.graph().weight(p, f).is_some()));
            }
            for &(p, f, present) in &ops {
                if present {
                    staged.stage_remove_edge(p, f);
                    elementary.remove_edge(p, f);
                } else {
                    staged.stage_add_edge(p, f, 64);
                    elementary.add_edge(p, f, 64);
                }
            }
            staged.repair_batch();
            let (card, _) = flow_reference(staged.graph(), Objective::MatchCount);
            assert_eq!(staged.matched_count(), card, "round {round}: vs flow");
            assert_eq!(
                staged.matched_count(),
                elementary.matched_count(),
                "round {round}: staged and elementary paths must agree"
            );
            assert_eq!(
                staged.graph(),
                elementary.graph(),
                "round {round}: both paths apply the same graph mutations"
            );
        }
    }

    #[test]
    fn staged_batch_restores_byte_optimality() {
        let sizes = [120u64, 8, 64, 5, 250, 40, 77, 13];
        let mut g = BipartiteGraph::new(3, 8);
        let mut state = 23u64;
        for (f, &sz) in sizes.iter().enumerate() {
            for p in 0..3 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state % 2 == 0 {
                    g.add_edge(p, f, sz);
                }
            }
        }
        let mut inc = IncrementalMatcher::new(g, Objective::MatchedBytes);
        let mut state = 9u64;
        for step in 0..10 {
            // Stage a small batch, repair once, compare to min-cost flow.
            for _ in 0..4 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let p = (state >> 8) as usize % 3;
                let f = (state >> 24) as usize % 8;
                if inc.graph().weight(p, f).is_some() {
                    inc.stage_remove_edge(p, f);
                } else {
                    inc.stage_add_edge(p, f, sizes[f]);
                }
            }
            inc.repair_batch();
            let (card, bytes) = flow_reference(inc.graph(), Objective::MatchedBytes);
            assert_eq!(inc.matched_count(), card, "cardinality, step {step}");
            assert_eq!(inc.matched_bytes(), bytes, "bytes, step {step}");
        }
    }

    #[test]
    fn file_add_and_remove_repair_to_flow_cardinality() {
        let g = random_graph(4, 12, 3, 21);
        let mut inc = IncrementalMatcher::new(g, Objective::MatchCount);
        let f = inc.add_file(&[(0, 64), (2, 64)]);
        assert_eq!(f, 12);
        inc.add_file(&[]); // isolated file
        inc.add_file(&[(1, 64)]);
        let (card, _) = flow_reference(inc.graph(), Objective::MatchCount);
        assert_eq!(inc.matched_count(), card);
        inc.remove_file(0);
        inc.remove_file(7);
        inc.remove_file(inc.graph().n_files() - 1);
        let (card, _) = flow_reference(inc.graph(), Objective::MatchCount);
        assert_eq!(inc.matched_count(), card);
    }

    #[test]
    fn quota_tracks_file_count() {
        let q32 = |n, m| {
            quotas(n, m)
                .into_iter()
                .map(|q| q as u32)
                .collect::<Vec<u32>>()
        };
        let g = random_graph(3, 10, 2, 2);
        let mut inc = IncrementalMatcher::new(g, Objective::MatchCount);
        assert_eq!(inc.quota(), &q32(10, 3)[..]);
        inc.add_file(&[(0, 64)]);
        assert_eq!(inc.quota(), &q32(11, 3)[..]);
        inc.remove_file(3);
        inc.remove_file(0);
        assert_eq!(inc.quota(), &q32(9, 3)[..]);
    }

    #[test]
    fn bytes_objective_reaches_flow_byte_total() {
        // Mixed chunk sizes; every repair must land on the same matched
        // byte total as min-cost flow from scratch.
        let sizes = [100u64, 10, 64, 7, 200, 33, 50, 91];
        let mut g = BipartiteGraph::new(3, 8);
        let mut state = 17u64;
        for (f, &sz) in sizes.iter().enumerate() {
            for p in 0..3 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state % 2 == 0 {
                    g.add_edge(p, f, sz);
                }
            }
        }
        let mut inc = IncrementalMatcher::new(g.clone(), Objective::MatchedBytes);
        let (card, bytes) = flow_reference(&g, Objective::MatchedBytes);
        assert_eq!(inc.matched_count(), card);
        assert_eq!(inc.matched_bytes(), bytes);
        let mut state = 3u64;
        for step in 0..30 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p = (state >> 8) as usize % 3;
            let f = (state >> 24) as usize % 8;
            if inc.graph().weight(p, f).is_some() {
                inc.remove_edge(p, f);
            } else {
                inc.add_edge(p, f, sizes[f]);
            }
            let (card, bytes) = flow_reference(inc.graph(), Objective::MatchedBytes);
            assert_eq!(inc.matched_count(), card, "cardinality, step {step}");
            assert_eq!(inc.matched_bytes(), bytes, "bytes, step {step}");
        }
    }

    #[test]
    fn repair_is_deterministic() {
        let g = random_graph(4, 20, 3, 77);
        let script = |inc: &mut IncrementalMatcher| {
            inc.add_edge(0, 5, 64);
            inc.remove_edge(1, 2);
            inc.add_file(&[(2, 64), (3, 64)]);
            inc.remove_file(4);
        };
        let mut a = IncrementalMatcher::new(g.clone(), Objective::MatchCount);
        let mut b = IncrementalMatcher::new(g, Objective::MatchCount);
        script(&mut a);
        script(&mut b);
        assert_eq!(a, b, "same delta sequence must be bit-identical");
        assert_eq!(a.owners_dense(), b.owners_dense());
    }

    #[test]
    fn from_matching_adopts_flow_solve_verbatim_and_repairs() {
        for seed in [1u64, 9, 44] {
            let graph = random_graph(6, 40, 3, seed);
            let scratch = SingleDataMatcher {
                fill: FillPolicy::LeastLoaded,
                ..Default::default()
            };
            let (owners, matched) = scratch.flow_owners(&graph);
            let mut inc = IncrementalMatcher::from_matching(
                graph.clone(),
                Objective::MatchCount,
                owners.clone(),
            );
            assert_eq!(
                inc.owners(),
                &owners[..],
                "adopting a maximum matching must not change it"
            );
            assert_eq!(inc.matched_count(), matched);
            // The adopted state repairs like a freshly-solved one.
            inc.remove_file(seed as usize % 40);
            let (want, _) = flow_reference(inc.graph(), Objective::MatchCount);
            assert_eq!(inc.matched_count(), want, "seed {seed}");
        }
    }

    #[test]
    fn an_added_file_that_takes_the_grown_quota_unit_leaves_no_augmenting_path() {
        // Two files that only process 0 holds, so one stays unmatched
        // while process 1 idles. The new file's search lands on process
        // 0's grown quota unit first; the maximum moves it to process 1
        // and lets the unmatched file take process 0.
        for objective in [Objective::MatchCount, Objective::MatchedBytes] {
            let mut g = BipartiteGraph::new(2, 2);
            g.add_edge(0, 0, 8);
            g.add_edge(0, 1, 8);
            let mut m = IncrementalMatcher::new(g, objective);
            assert_eq!(m.matched_count(), 1);
            m.add_file(&[(0, 8), (1, 8)]);
            assert_eq!(m.matched_count(), 3, "{objective:?}");
        }
    }

    #[test]
    fn from_matching_tops_up_a_non_maximum_input() {
        let graph = random_graph(5, 30, 2, 7);
        // Empty matching in: the constructor must reach maximality.
        let inc =
            IncrementalMatcher::from_matching(graph.clone(), Objective::MatchCount, vec![None; 30]);
        let (want, _) = flow_reference(&graph, Objective::MatchCount);
        assert_eq!(inc.matched_count(), want);
    }

    #[test]
    fn from_matching_bytes_input_stays_byte_optimal() {
        let graph = random_graph(4, 24, 2, 123);
        let scratch = SingleDataMatcher {
            fill: FillPolicy::LeastLoaded,
            objective: Objective::MatchedBytes,
            ..Default::default()
        };
        let (owners, _) = scratch.flow_owners(&graph);
        let inc = IncrementalMatcher::from_matching(
            graph.clone(),
            Objective::MatchedBytes,
            owners.clone(),
        );
        assert_eq!(
            inc.owners(),
            &owners[..],
            "a min-cost-flow matching is already byte-optimal"
        );
        let (_, want_bytes) = flow_reference(&graph, Objective::MatchedBytes);
        assert_eq!(inc.matched_bytes(), want_bytes);
    }

    /// `dfs_rehome` as it stood before its search went iterative, one
    /// call per step of the path: the oracle it is held to.
    fn dfs_rehome_recursive(s: &mut MatchState, g: &BipartiteGraph, file: u32) -> bool {
        for &p in g.procs_raw(file as usize) {
            if s.mark[p as usize] == s.epoch {
                continue;
            }
            s.mark[p as usize] = s.epoch;
            if s.load[p as usize] < s.quota[p as usize] {
                s.set_owner(file, p);
                s.load[p as usize] += 1;
                return true;
            }
            let mut f2 = s.owned.head_of(p);
            while f2 != NONE {
                let nxt = s.owned.next_of(f2);
                s.set_owner(f2, NONE);
                if dfs_rehome_recursive(s, g, f2) {
                    s.set_owner(file, p);
                    return true;
                }
                s.set_owner(f2, p);
                f2 = nxt;
            }
        }
        false
    }

    /// `dfs_feed` as it stood before its search went iterative.
    fn dfs_feed_recursive(s: &mut MatchState, g: &BipartiteGraph, proc: u32) -> bool {
        if s.mark[proc as usize] == s.epoch {
            return false;
        }
        s.mark[proc as usize] = s.epoch;
        for &f in g.files_raw(proc as usize) {
            if s.owner[f as usize] == NONE {
                s.set_owner(f, proc);
                s.load[proc as usize] += 1;
                return true;
            }
        }
        for &f in g.files_raw(proc as usize) {
            let q = s.owner[f as usize];
            if s.mark[q as usize] == s.epoch {
                continue;
            }
            s.set_owner(f, proc);
            s.load[proc as usize] += 1;
            s.load[q as usize] -= 1;
            if dfs_feed_recursive(s, g, q) {
                return true;
            }
            s.set_owner(f, q);
            s.load[q as usize] += 1;
            s.load[proc as usize] -= 1;
        }
        false
    }

    /// `dfs_exchange` as it stood before its search went iterative.
    fn dfs_exchange_recursive(
        s: &mut MatchState,
        g: &BipartiteGraph,
        file: u32,
        limit: u64,
    ) -> bool {
        for &p in g.procs_raw(file as usize) {
            if s.mark[p as usize] == s.epoch {
                continue;
            }
            s.mark[p as usize] = s.epoch;
            let frame = s.scratch.len();
            let mut f2 = s.owned.head_of(p);
            while f2 != NONE {
                let w = g.weight(p as usize, f2 as usize).unwrap_or(0);
                s.scratch.push((w, f2));
                f2 = s.owned.next_of(f2);
            }
            s.scratch[frame..].sort_unstable();
            let end = s.scratch.len();
            for i in frame..end {
                let (w, f2) = s.scratch[i];
                if w < limit {
                    s.set_owner(f2, NONE);
                    s.set_owner(file, p);
                    s.scratch.truncate(frame);
                    return true;
                }
                s.set_owner(f2, NONE);
                if dfs_exchange_recursive(s, g, f2, limit) {
                    s.set_owner(file, p);
                    s.scratch.truncate(frame);
                    return true;
                }
                s.set_owner(f2, p);
            }
            s.scratch.truncate(frame);
        }
        false
    }

    /// Everything a search can write: owners, loads, the owned chains in
    /// order, and the visited marks.
    fn search_state(s: &MatchState) -> (Vec<u32>, Vec<u32>, Vec<Vec<u32>>, Vec<u64>) {
        let chains = (0..s.load.len() as u32)
            .map(|p| s.owned.iter(p).collect())
            .collect();
        (s.owner.clone(), s.load.clone(), chains, s.mark.clone())
    }

    /// Runs `search` iteratively and through its recursive oracle on two
    /// copies of `s`, one epoch on, and asserts the same answer and the
    /// same state.
    fn assert_search_matches(
        s: &MatchState,
        what: &str,
        prepare: impl Fn(&mut MatchState),
        iterative: impl Fn(&mut MatchState) -> bool,
        recursive: impl Fn(&mut MatchState) -> bool,
    ) -> bool {
        let (mut a, mut b) = (s.clone(), s.clone());
        for copy in [&mut a, &mut b] {
            copy.epoch += 1;
            prepare(copy);
        }
        let found = iterative(&mut a);
        assert_eq!(found, recursive(&mut b), "{what}");
        assert_eq!(search_state(&a), search_state(&b), "{what}");
        found
    }

    #[test]
    fn iterative_searches_match_their_recursive_oracles_over_seeded_churn() {
        // Every search a state can start, from every state of a seeded
        // churn: rehome each unmatched file, rehome each matched file
        // after detaching it from its full owner (what `release_capacity`
        // does), and feed each process after it gives up one file.
        let mut searches = [0usize; 2];
        for seed in 0..6u64 {
            let mut inc =
                IncrementalMatcher::new(random_graph(6, 30, 3, seed), Objective::MatchCount);
            let mut state = seed ^ 0x5EED;
            for _ in 0..25 {
                let g = inc.graph.clone();
                let s = &inc.state;
                for f in 0..g.n_files() as u32 {
                    let owner = s.owner[f as usize];
                    let detach = move |c: &mut MatchState| {
                        if owner != NONE {
                            c.set_owner(f, NONE);
                            c.load[owner as usize] -= 1;
                            c.mark[owner as usize] = c.epoch;
                        }
                    };
                    let found = assert_search_matches(
                        s,
                        &format!("seed {seed}: rehome file {f}"),
                        detach,
                        |c| c.dfs_rehome(&g, f),
                        |c| dfs_rehome_recursive(c, &g, f),
                    );
                    searches[0] += usize::from(found);
                }
                for p in 0..g.n_procs() as u32 {
                    let first = s.owned.head_of(p);
                    let give_up = move |c: &mut MatchState| {
                        if first != NONE {
                            c.set_owner(first, NONE);
                            c.load[p as usize] -= 1;
                        }
                    };
                    let found = assert_search_matches(
                        s,
                        &format!("seed {seed}: feed process {p}"),
                        give_up,
                        |c| c.dfs_feed(&g, p),
                        |c| dfs_feed_recursive(c, &g, p),
                    );
                    searches[1] += usize::from(found);
                }
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let p = (state >> 8) as usize % 6;
                let f = (state >> 24) as usize % inc.graph().n_files();
                if inc.graph().weight(p, f).is_some() {
                    inc.remove_edge(p, f);
                } else {
                    inc.add_edge(p, f, 64);
                }
            }
        }
        // Both searches succeeded often enough to have walked real paths.
        assert!(searches.iter().all(|&n| n >= 500), "{searches:?}");
    }

    #[test]
    fn iterative_exchange_matches_its_recursive_oracle_over_seeded_churn() {
        // A matched-bytes matcher through seeded churn over mixed chunk
        // sizes, every replica on half the processes so quotas leave
        // files out; from every state, an exchange from each unmatched
        // file at its own size (the repair's limit, which a byte-optimal
        // state always refuses) and at larger limits that let it evict.
        let mut searches = [0usize; 2];
        for seed in 0..6u64 {
            let mut g = BipartiteGraph::new(6, 30);
            let mut state = seed ^ 0xE8C4;
            let size = |f: usize| 8 + (f as u64 * 37 + seed) % 200;
            for f in 0..30 {
                for p in 0..3 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if state % 3 == 0 {
                        g.add_edge(p, f, size(f));
                    }
                }
            }
            let mut inc = IncrementalMatcher::new(g, Objective::MatchedBytes);
            for _ in 0..25 {
                let g = inc.graph.clone();
                let s = &inc.state;
                for f in (0..g.n_files() as u32).filter(|&f| s.owner[f as usize] == NONE) {
                    let own = file_size(&g, f);
                    for limit in [own, 2 * own + 1, u64::MAX] {
                        let found = assert_search_matches(
                            s,
                            &format!("seed {seed}: exchange file {f} under {limit}"),
                            |_| {},
                            |c| c.dfs_exchange(&g, f, limit),
                            |c| dfs_exchange_recursive(c, &g, f, limit),
                        );
                        searches[usize::from(found)] += 1;
                    }
                }
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let p = (state >> 8) as usize % 3;
                let f = (state >> 24) as usize % inc.graph().n_files();
                if inc.graph().weight(p, f).is_some() {
                    inc.remove_edge(p, f);
                } else {
                    inc.add_edge(p, f, size(f));
                }
            }
        }
        // Both outcomes were walked often.
        assert!(searches.iter().all(|&n| n >= 1_000), "{searches:?}");
    }

    /// `repair_core` as it stood before its phases visited only the open
    /// files: every phase scans every owner.
    fn repair_core_full_scan(s: &mut MatchState, g: &BipartiteGraph, objective: Objective) {
        loop {
            s.epoch += 1;
            let mut progressed = false;
            for f in 0..s.owner.len() {
                if s.owner[f] == NONE && s.dfs_rehome(g, f as u32) {
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        s.restore_bytes_optimality(g, objective);
    }

    /// `release_capacity` as it stood before a failed trade relinked its
    /// file: the file goes back through the sorted walk, behind the
    /// recursive search.
    fn release_capacity_recursive(s: &mut MatchState, g: &BipartiteGraph, proc: u32) -> bool {
        if s.load[proc as usize] < s.quota[proc as usize] {
            return true;
        }
        let mut f2 = s.owned.head_of(proc);
        while f2 != NONE {
            let nxt = s.owned.next_of(f2);
            s.epoch += 1;
            s.mark[proc as usize] = s.epoch;
            s.set_owner(f2, NONE);
            s.load[proc as usize] -= 1;
            if dfs_rehome_recursive(s, g, f2) {
                return true;
            }
            s.set_owner(f2, proc);
            s.load[proc as usize] += 1;
            f2 = nxt;
        }
        false
    }

    /// A matcher over `m` processes and `n` files whose replicas sit on
    /// the first half of the processes, so quotas leave files out; sizes
    /// are mixed under the bytes objective.
    fn half_placed(m: usize, n: usize, seed: u64, objective: Objective) -> IncrementalMatcher {
        let mut g = BipartiteGraph::new(m, n);
        let mut state = seed ^ 0x0F11;
        for f in 0..n {
            for p in 0..m / 2 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state % 3 == 0 {
                    g.add_edge(p, f, churn_size(objective, f, seed));
                }
            }
        }
        IncrementalMatcher::new(g, objective)
    }

    fn churn_size(objective: Objective, f: usize, seed: u64) -> u64 {
        match objective {
            Objective::MatchCount => 64,
            Objective::MatchedBytes => 8 + (f as u64 * 37 + seed) % 200,
        }
    }

    #[test]
    fn open_file_phases_and_relinked_releases_repeat_their_old_bodies_over_seeded_churn() {
        // Staged batches of edge churn, both objectives: the repair that
        // visits only the open files must leave owners, loads, chains and
        // marks as the every-owner scan does, and from every state a
        // release of each full process must leave them as the sorted-walk
        // undo behind the recursive search does.
        let (mut multi_phase, mut released) = (0usize, [0usize; 2]);
        for objective in [Objective::MatchCount, Objective::MatchedBytes] {
            for seed in 0..6u64 {
                let mut inc = half_placed(6, 30, seed, objective);
                let mut state = seed ^ 0xBA7C;
                for step in 0..25 {
                    for _ in 0..6 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let p = (state >> 8) as usize % 6;
                        let f = (state >> 24) as usize % 30;
                        if inc.graph().weight(p, f).is_some() {
                            inc.stage_remove_edge(p, f);
                        } else {
                            inc.stage_add_edge(p, f, churn_size(objective, f, seed));
                        }
                    }
                    let g = inc.graph.clone();
                    let (mut a, mut b) = (inc.state.clone(), inc.state.clone());
                    a.repair_core(&g, objective);
                    repair_core_full_scan(&mut b, &g, objective);
                    let what = format!("{objective:?} seed {seed} step {step}");
                    assert_eq!(search_state(&a), search_state(&b), "{what}: repair");
                    // Under the count objective an epoch is a phase: a
                    // third one means the pruned list was searched again.
                    if objective == Objective::MatchCount {
                        multi_phase += usize::from(b.epoch - inc.state.epoch > 2);
                    }
                    inc.repair_batch();
                    let full = (0..6u32).filter(|&p| inc.state.load[p as usize] > 0);
                    for p in
                        full.filter(|&p| inc.state.load[p as usize] == inc.state.quota[p as usize])
                    {
                        let (mut a, mut b) = (inc.state.clone(), inc.state.clone());
                        let found = a.release_capacity(&g, p);
                        assert_eq!(found, release_capacity_recursive(&mut b, &g, p), "{what}");
                        assert_eq!(search_state(&a), search_state(&b), "{what}: release {p}");
                        released[usize::from(found)] += 1;
                    }
                }
            }
        }
        // Repairs ran several phases, and releases both won and failed.
        assert!(multi_phase >= 20, "{multi_phase}");
        assert!(released.iter().all(|&n| n >= 100), "{released:?}");
    }

    #[test]
    fn an_edge_into_an_unmatched_file_repairs_as_staging_it_and_repairing_does() {
        // From every maximum matching of a seeded churn, both objectives:
        // `add_edge(p, f)` for an unmatched `f` — one search seeded at `f`
        // — leaves graph, owners, loads and chains as staging the edge and
        // running the full repair does.
        let mut gained = [0usize; 2];
        for objective in [Objective::MatchCount, Objective::MatchedBytes] {
            for seed in 0..4u64 {
                let mut inc = half_placed(6, 30, seed, objective);
                let mut state = seed ^ 0xADD;
                for step in 0..20 {
                    for f in (0..30).filter(|&f| inc.owner_of(f).is_none()) {
                        let size = churn_size(objective, f, seed);
                        for p in (0..6).filter(|&p| inc.graph().weight(p, f).is_none()) {
                            let (mut a, mut b) = (inc.clone(), inc.clone());
                            a.add_edge(p, f, size);
                            b.stage_add_edge(p, f, size);
                            b.repair_batch();
                            let what = format!("{objective:?} seed {seed} step {step}: ({p},{f})");
                            assert!(a == b, "{what}");
                            assert_eq!(
                                search_state(&a.state).2,
                                search_state(&b.state).2,
                                "{what}"
                            );
                            let spare = inc.state.load[p] < inc.state.quota[p];
                            gained[usize::from(spare)] +=
                                usize::from(a.matched_count() > inc.matched_count());
                        }
                    }
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let p = (state >> 8) as usize % 6;
                    let f = (state >> 24) as usize % 30;
                    if inc.graph().weight(p, f).is_some() {
                        inc.remove_edge(p, f);
                    } else {
                        inc.add_edge(p, f, churn_size(objective, f, seed));
                    }
                }
            }
        }
        // Edges to full processes and to spare ones both let files in.
        assert!(gained.iter().all(|&n| n >= 100), "{gained:?}");
    }

    /// `m` processes and files, one quota unit each: process `p` holds
    /// files `p − 1` and `p` (process 0 only file 0), file `f` is matched
    /// to process `f + 1`, and file `m − 1` and process 0 are free. The
    /// one augmenting path runs through every process.
    fn chain(m: usize) -> (BipartiteGraph, Vec<Option<usize>>) {
        let mut g = BipartiteGraph::new(m, m);
        for p in 0..m {
            if p > 0 {
                g.add_edge(p, p - 1, 64);
            }
            g.add_edge(p, p, 64);
        }
        let owners = (0..m).map(|f| (f + 1 < m).then_some(f + 1)).collect();
        (g, owners)
    }

    /// Runs `job` on a thread with a pool worker's 2 MiB stack.
    fn on_a_worker_stack<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(job)
            .expect("spawn")
            .join()
            .expect("the repair returns")
    }

    #[test]
    fn a_long_repair_path_fits_a_worker_sized_stack() {
        let m = 50_000;
        // Rehome: adopting the chain tops it up from the free file.
        let (g, owners) = chain(m);
        let inc = on_a_worker_stack(move || {
            IncrementalMatcher::from_matching(g, Objective::MatchCount, owners)
        });
        assert_eq!(inc.matched_count(), m);
        assert!((0..m).all(|f| inc.owner_of(f) == Some(f)));

        // Feed: the free process reaches the free file.
        let (g, owners) = chain(m);
        let dense = owners
            .iter()
            .map(|o| o.map_or(NONE, |p| p as u32))
            .collect();
        let state = on_a_worker_stack(move || {
            let mut state = MatchState::adopt(dense, vec![1; m]);
            assert!(state.try_augment_into(&g, 0));
            state
        });
        assert!((0..m).all(|f| state.owner[f] == f as u32));
        assert!(state.load.iter().all(|&l| l == 1));
    }

    #[test]
    fn a_long_exchange_chain_fits_a_worker_sized_stack() {
        // Process `p < m − 1` holds files `p` and `p + 1` and owns `p + 1`;
        // the last process holds nothing, so the matching is maximum and
        // file 0 is out. Every file weighs 100 but the last, which weighs
        // 1: bringing file 0 in passes through every process to evict
        // it, and then the evicted file's own exchange walks all the way
        // back before it fails.
        let m = 50_000;
        let mut g = BipartiteGraph::new(m, m);
        let size = |f: usize| if f == m - 1 { 1 } else { 100 };
        for p in 0..m - 1 {
            g.add_edge(p, p, size(p));
            g.add_edge(p, p + 1, size(p + 1));
        }
        let owners = (0..m).map(|f| f.checked_sub(1)).collect();
        let inc = on_a_worker_stack(move || {
            IncrementalMatcher::from_matching(g, Objective::MatchedBytes, owners)
        });
        assert_eq!(inc.matched_count(), m - 1);
        assert!((0..m - 1).all(|f| inc.owner_of(f) == Some(f)));
        assert_eq!(inc.owner_of(m - 1), None);
        assert_eq!(inc.matched_bytes(), 100 * (m as u64 - 1));
    }
}
