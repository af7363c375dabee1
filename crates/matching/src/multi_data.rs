//! Optimization of Parallel Multi-Data Access (paper Section IV-C,
//! Algorithm 1).
//!
//! Tasks now have *several* inputs (e.g. a genome-comparison task reading a
//! human, a mouse, and a chimpanzee subset), so a task's data can be partly
//! local to one process and partly local to another. The matching value
//! `m_i^j = |d(p_i) ∩ d(t_j)|` is the number of bytes of task `j`'s inputs
//! stored on process `i`'s node.
//!
//! The algorithm is a quota-constrained variant of deferred acceptance
//! (stable marriage): every process below its `n/m` quota repeatedly
//! proposes to its best not-yet-considered task; an unassigned task accepts;
//! an assigned task trades up if the new process has a strictly larger
//! matching value. Like the paper we add a liveness fallback: a process that
//! has considered every task (possible when all its candidates keep losing
//! ties) takes arbitrary unassigned tasks, so the algorithm always
//! terminates with a complete balanced assignment.

use crate::assignment::Assignment;

/// Sparse matching values between processes and tasks.
///
/// `values[p]` holds `(task, bytes)` pairs for tasks with non-zero
/// co-located data on process `p`'s node; everything absent is zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchingValues {
    n_procs: usize,
    n_tasks: usize,
    values: Vec<Vec<(usize, u64)>>,
}

impl MatchingValues {
    /// Creates an all-zero table.
    pub fn new(n_procs: usize, n_tasks: usize) -> Self {
        MatchingValues {
            n_procs,
            n_tasks,
            values: vec![Vec::new(); n_procs],
        }
    }

    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Adds `bytes` of co-located data between `proc` and `task`.
    pub fn add(&mut self, proc: usize, task: usize, bytes: u64) {
        assert!(proc < self.n_procs, "process {proc} out of range");
        assert!(task < self.n_tasks, "task {task} out of range");
        if bytes == 0 {
            return;
        }
        let row = &mut self.values[proc];
        // Builders feed a process its tasks in ascending order: the last
        // key again accumulates, a key above it appends, and neither
        // searches nor shifts.
        match row.last_mut() {
            Some(last) if last.0 == task => last.1 += bytes,
            Some(last) if last.0 > task => match row.binary_search_by_key(&task, |&(t, _)| t) {
                Ok(i) => row[i].1 += bytes,
                Err(i) => row.insert(i, (task, bytes)),
            },
            _ => row.push((task, bytes)),
        }
    }

    /// Subtracts `bytes` of co-located data between `proc` and `task`
    /// (replica dropped or node failed); the entry disappears when it
    /// reaches zero, keeping the table sparse.
    ///
    /// # Panics
    ///
    /// Panics if the subtraction would underflow — the caller is replaying
    /// a layout delta, and removing bytes that were never added means the
    /// delta and the table have diverged.
    pub fn subtract(&mut self, proc: usize, task: usize, bytes: u64) {
        assert!(proc < self.n_procs, "process {proc} out of range");
        assert!(task < self.n_tasks, "task {task} out of range");
        if bytes == 0 {
            return;
        }
        let row = &mut self.values[proc];
        let i = row
            .binary_search_by_key(&task, |&(t, _)| t)
            .expect("subtracting from an absent (proc, task) value");
        assert!(
            row[i].1 >= bytes,
            "subtracting {bytes} from {} at ({proc},{task})",
            row[i].1
        );
        row[i].1 -= bytes;
        if row[i].1 == 0 {
            row.remove(i);
        }
    }

    /// The matching value `m_proc^task` (0 when not co-located).
    pub fn value(&self, proc: usize, task: usize) -> u64 {
        let row = &self.values[proc];
        row.binary_search_by_key(&task, |&(t, _)| t)
            .map(|i| row[i].1)
            .unwrap_or(0)
    }

    /// Non-zero `(task, bytes)` pairs for `proc`, sorted by task index.
    pub fn tasks_of(&self, proc: usize) -> &[(usize, u64)] {
        &self.values[proc]
    }

    /// Total co-located bytes achieved by an assignment under this table.
    fn total_value(&self, assignment: &Assignment) -> u64 {
        (0..assignment.n_tasks())
            .map(|t| self.value(assignment.owner_of(t), t))
            .sum()
    }
}

/// Outcome of the multi-data matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiDataOutcome {
    /// The complete balanced assignment.
    pub assignment: Assignment,
    /// Total co-located bytes `Σ_t m_owner(t)^t`.
    pub matched_bytes: u64,
    /// Number of reassignment (trade-up) events that occurred — the paper's
    /// Figure 6(b) cancellation mechanism.
    pub reassignments: usize,
    /// Number of proposals made: queue turns on which a process below its
    /// quota offered itself to its next candidate. Exact and deterministic
    /// — the matcher's work, as a count instead of a clock.
    pub proposals: usize,
}

/// Owner of a task nobody holds yet.
const OPEN: u32 = u32::MAX;

/// Every process's non-zero candidates among the auctioned tasks, best
/// first: a CSR copy of the value table's rows, each row sorted by
/// `(bytes desc, task asc)`. One flat allocation — a `Vec` per process
/// fragments the allocator's small bins enough to show in peak RSS.
struct Candidates {
    /// Row `p` is `entries[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<usize>,
    entries: Vec<(u32, u64)>,
}

impl Candidates {
    /// Copies the values of the tasks that are open in `owner`.
    fn build(values: &MatchingValues, owner: &[u32]) -> Self {
        let m = values.n_procs();
        let nnz = (0..m).map(|p| values.tasks_of(p).len()).sum();
        let mut offsets = Vec::with_capacity(m + 1);
        let mut entries: Vec<(u32, u64)> = Vec::with_capacity(nnz);
        offsets.push(0);
        for p in 0..m {
            let row_start = entries.len();
            entries.extend(
                values
                    .tasks_of(p)
                    .iter()
                    .filter(|&&(t, _)| owner[t] == OPEN)
                    .map(|&(t, bytes)| (t as u32, bytes)),
            );
            entries[row_start..].sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            offsets.push(entries.len());
        }
        Candidates { offsets, entries }
    }
}

/// The Algorithm 1 proposal loop over the tasks that are open in `owner`;
/// every other task keeps the owner it is seeded with and is never
/// proposed to.
///
/// Process `p` offers itself to the auctioned tasks in the order
/// `(value desc, task asc)`. That order is never stored whole. Every
/// zero-valued task sorts after every non-zero one, and zero-valued tasks
/// sort among themselves by task id, so the order is `p`'s sorted
/// [`Candidates`] row followed by a *tail*: the ascending auctioned tasks
/// minus the ones in `p`'s row, produced on demand by walking the
/// auctioned tasks with a merge pointer over `values.tasks_of(p)`. Each
/// task is still offered exactly once per process. A tail proposal carries
/// value zero and can never win a trade, but it is still one turn of the
/// round-robin queue: jumping a process over its rejected tail proposals
/// would reorder who takes an open task.
fn auction(values: &MatchingValues, mut owner: Vec<u32>) -> MultiDataOutcome {
    let m = values.n_procs();
    let n = values.n_tasks();
    let quota = crate::single_data::quotas(n, m);
    let mut load = vec![0usize; m];
    for &o in owner.iter().filter(|&&o| o != OPEN) {
        load[o as usize] += 1;
    }

    let mut auctioned: Vec<u32> = Vec::with_capacity(n);
    auctioned.extend((0..n as u32).filter(|&t| owner[t as usize] == OPEN));
    let candidates = Candidates::build(values, &owner);
    // Per process: next entry of its candidate row, next auctioned task
    // of its tail, and the tail's merge pointer into `values.tasks_of`.
    let mut head = candidates.offsets[..m].to_vec();
    let mut tail = vec![0usize; m];
    let mut skip = vec![0usize; m];
    // The current owner's matching value, so a trade-up test is one
    // compare; tasks outside the auction are never read.
    let mut owner_value = vec![0u64; n];
    // Tasks never become unassigned, so the lowest open task only moves up.
    let mut first_open = 0usize;
    let mut reassignments = 0usize;
    let mut proposals = 0usize;

    // Work queue of processes below quota. Deterministic order.
    let mut queue = std::collections::VecDeque::with_capacity(m);
    queue.extend((0..m).filter(|&p| load[p] < quota[p]));

    while let Some(p) = queue.pop_front() {
        if load[p] >= quota[p] {
            continue;
        }
        // Propose to the best not-yet-considered task.
        let candidate = if head[p] < candidates.offsets[p + 1] {
            let (task, bytes) = candidates.entries[head[p]];
            head[p] += 1;
            Some((task as usize, bytes))
        } else {
            next_unvalued(&auctioned, values.tasks_of(p), &mut tail[p], &mut skip[p])
                .map(|task| (task, 0))
        };
        let Some((task, bytes)) = candidate else {
            // Fallback: p has considered everything; grab any unassigned
            // tasks (they must exist because quotas sum to n).
            while load[p] < quota[p] {
                while owner.get(first_open).is_some_and(|&o| o != OPEN) {
                    first_open += 1;
                }
                assert!(
                    first_open < n,
                    "quotas sum to n, an unassigned task must exist"
                );
                owner[first_open] = p as u32;
                owner_value[first_open] = values.value(p, first_open);
                load[p] += 1;
            }
            continue;
        };
        proposals += 1;

        // An open task accepts; an assigned one trades up only on a
        // strictly larger value (paper line 11).
        let current = owner[task];
        if current == OPEN || owner_value[task] < bytes {
            owner[task] = p as u32;
            owner_value[task] = bytes;
            load[p] += 1;
            if current != OPEN {
                load[current as usize] -= 1;
                reassignments += 1;
                queue.push_back(current as usize);
            }
        }
        if load[p] < quota[p] {
            queue.push_back(p);
        }
    }

    debug_assert!(owner.iter().all(|&o| o != OPEN));
    let owner: Vec<usize> = owner.into_iter().map(|o| o as usize).collect();
    let assignment = Assignment::from_owners(owner, m);
    let matched_bytes = values.total_value(&assignment);
    MultiDataOutcome {
        assignment,
        matched_bytes,
        reassignments,
        proposals,
    }
}

/// The next task of a process's zero-valued tail: the first of
/// `auctioned[*tail..]` that is absent from the process's `row` (sorted
/// by task, as [`MatchingValues::tasks_of`] returns it).
fn next_unvalued(
    auctioned: &[u32],
    row: &[(usize, u64)],
    tail: &mut usize,
    skip: &mut usize,
) -> Option<usize> {
    while let Some(&task) = auctioned.get(*tail) {
        let task = task as usize;
        *tail += 1;
        while row.get(*skip).is_some_and(|&(t, _)| t < task) {
            *skip += 1;
        }
        if row.get(*skip).map(|&(t, _)| t) != Some(task) {
            return Some(task);
        }
    }
    None
}

/// Checks the table's dimensions fit the `u32` task and owner columns.
fn assert_dimensions(m: usize, n: usize) {
    assert!(m > 0, "need at least one process");
    assert!(
        m < OPEN as usize,
        "{m} processes collide with the open-task sentinel"
    );
    assert!(n <= OPEN as usize, "{n} tasks overflow the task column");
}

/// Runs paper Algorithm 1.
///
/// Every process receives either `⌊n/m⌋` or `⌈n/m⌉` tasks (the paper assumes
/// `m | n`; we generalize). With `nnz` non-zero matching values, set-up is
/// `O(nnz·log nnz)` and memory `O(nnz + m + n)`: a process's candidate
/// order is generated, not stored. A proposal is `O(1)`; there are at most
/// `m·n` of them — a process that loses all its non-zero candidates walks
/// the zero-valued tasks one proposal at a time — but on replica-bounded
/// tables, where a task interests at most `inputs × replicas` processes,
/// their number follows `nnz`.
///
/// # Example
///
/// ```
/// use opass_matching::{assign_multi_data, MatchingValues};
///
/// // Two processes, two tasks; process 1 holds far more of task 0's data.
/// let mut values = MatchingValues::new(2, 2);
/// values.add(0, 0, 10);
/// values.add(1, 0, 50);
/// values.add(0, 1, 30);
///
/// let out = assign_multi_data(&values);
/// assert_eq!(out.assignment.owner_of(0), 1); // trade-up wins task 0
/// assert_eq!(out.assignment.owner_of(1), 0);
/// assert_eq!(out.matched_bytes, 80);
/// ```
pub fn assign_multi_data(values: &MatchingValues) -> MultiDataOutcome {
    assert_dimensions(values.n_procs(), values.n_tasks());
    auction(values, vec![OPEN; values.n_tasks()])
}

/// Repairs a multi-data assignment after layout churn by re-running the
/// Algorithm 1 proposal loop over `affected` tasks only.
///
/// Tasks outside `affected` keep their owners from `prev`; affected tasks
/// are unassigned and re-auctioned under the (possibly updated) `values`
/// table with the same strict trade-up rule, restricted so the repair can
/// never disturb an unaffected task. The result is always complete and
/// balanced, and is a pure function of `(values, prev, affected)` — the
/// cheap mirror of the single-data residual repair, not an exactness
/// guarantee (Algorithm 1 itself is a heuristic).
///
/// # Panics
///
/// Panics if `prev` disagrees with `values` on dimensions, or `affected`
/// contains an out-of-range task.
pub fn repair_multi_data(
    values: &MatchingValues,
    prev: &Assignment,
    affected: &[usize],
) -> MultiDataOutcome {
    let m = values.n_procs();
    let n = values.n_tasks();
    assert_dimensions(m, n);
    assert_eq!(prev.n_procs(), m, "process count changed; re-plan instead");
    assert_eq!(prev.n_tasks(), n, "task count changed; re-plan instead");

    // Seed from the previous assignment with affected tasks evicted.
    let mut owner: Vec<u32> = (0..n).map(|t| prev.owner_of(t) as u32).collect();
    for &t in affected {
        assert!(t < n, "task {t} out of range");
        owner[t] = OPEN;
    }
    auction(values, owner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const MB: u64 = 1 << 20;

    #[test]
    fn empty_table_still_balances() {
        let values = MatchingValues::new(4, 8);
        let out = assign_multi_data(&values);
        assert!(out.assignment.is_balanced());
        assert_eq!(out.matched_bytes, 0);
        assert_eq!(out.assignment.n_tasks(), 8);
    }

    #[test]
    fn value_accumulates_multiple_inputs() {
        let mut v = MatchingValues::new(1, 1);
        v.add(0, 0, 30 * MB);
        v.add(0, 0, 10 * MB);
        assert_eq!(v.value(0, 0), 40 * MB);
    }

    #[test]
    fn paper_figure6_example() {
        // Figure 6(a): 4 processes, 8 tasks, with the table of co-located
        // sizes (MB). Zero entries omitted.
        let table: [[u64; 8]; 4] = [
            // t0  t1  t2  t3  t4  t5  t6  t7
            [30, 10, 20, 20, 40, 40, 10, 0],  // p0
            [30, 30, 20, 20, 0, 0, 10, 10],   // p1
            [10, 30, 30, 20, 20, 10, 10, 10], // p2
            [20, 10, 10, 20, 20, 10, 20, 0],  // p3
        ];
        let mut v = MatchingValues::new(4, 8);
        for (p, row) in table.iter().enumerate() {
            for (t, &mb) in row.iter().enumerate() {
                v.add(p, t, mb * MB);
            }
        }
        let out = assign_multi_data(&v);
        assert!(out.assignment.is_balanced());
        assert_eq!(out.assignment.tasks_of(0).len(), 2);
        // p0's top matches (t4, t5 at 40 MB) must be won by p0: nobody
        // else values them higher.
        assert_eq!(out.assignment.owner_of(4), 0);
        assert_eq!(out.assignment.owner_of(5), 0);
        // The greedy per-process optimum from each process's perspective
        // should reach a large total; the best possible here is bounded by
        // the sum of each task's max column value.
        let upper: u64 = (0..8)
            .map(|t| (0..4).map(|p| v.value(p, t)).max().unwrap())
            .sum();
        assert!(out.matched_bytes <= upper);
        assert!(
            out.matched_bytes >= upper / 2,
            "matched {} of {}",
            out.matched_bytes,
            upper
        );
    }

    #[test]
    fn reassignment_happens_when_later_proc_values_more() {
        // Task 0: p0 values 10, p1 values 50. p0 proposes first (queue
        // order), then p1 must steal it.
        let mut v = MatchingValues::new(2, 2);
        v.add(0, 0, 10);
        v.add(1, 0, 50);
        v.add(0, 1, 5);
        let out = assign_multi_data(&v);
        assert_eq!(out.assignment.owner_of(0), 1);
        assert_eq!(out.assignment.owner_of(1), 0);
        assert!(out.reassignments >= 1);
    }

    #[test]
    fn ties_do_not_cause_churn() {
        // All values equal: no reassignment should ever fire (strict
        // inequality), and the result must still balance.
        let mut v = MatchingValues::new(3, 6);
        for p in 0..3 {
            for t in 0..6 {
                v.add(p, t, 64);
            }
        }
        let out = assign_multi_data(&v);
        assert_eq!(out.reassignments, 0);
        assert!(out.assignment.is_balanced());
        assert_eq!(out.matched_bytes, 6 * 64);
    }

    #[test]
    fn quota_is_exact_when_divisible() {
        let mut v = MatchingValues::new(4, 12);
        // Skew everything toward p0; quota still caps it at 3.
        for t in 0..12 {
            v.add(0, t, 1000);
        }
        let out = assign_multi_data(&v);
        for p in 0..4 {
            assert_eq!(out.assignment.tasks_of(p).len(), 3, "p={p}");
        }
    }

    #[test]
    fn indivisible_task_counts_spread_by_one() {
        let v = MatchingValues::new(4, 10);
        let out = assign_multi_data(&v);
        let loads = out.assignment.load_vector();
        assert_eq!(loads.iter().sum::<usize>(), 10);
        assert!(out.assignment.load_spread() <= 1, "loads={loads:?}");
    }

    #[test]
    fn no_task_duplicated_or_dropped() {
        let mut v = MatchingValues::new(5, 23);
        // Deterministic pseudo-random values.
        let mut state = 12345u64;
        for p in 0..5 {
            for t in 0..23 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state % 3 == 0 {
                    v.add(p, t, state % 100 + 1);
                }
            }
        }
        let out = assign_multi_data(&v);
        let mut seen = [false; 23];
        for p in 0..5 {
            for &t in out.assignment.tasks_of(p) {
                assert!(!seen[t], "task {t} duplicated");
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all tasks assigned");
    }

    fn random_values(m: usize, n: usize, seed: u64) -> MatchingValues {
        let mut v = MatchingValues::new(m, n);
        let mut state = seed;
        for p in 0..m {
            for t in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state % 3 != 0 {
                    v.add(p, t, state % 200 + 1);
                }
            }
        }
        v
    }

    #[test]
    fn repair_with_no_affected_tasks_is_identity() {
        let v = random_values(4, 12, 8);
        let full = assign_multi_data(&v);
        let out = repair_multi_data(&v, &full.assignment, &[]);
        assert_eq!(out.assignment, full.assignment);
        assert_eq!(out.reassignments, 0);
    }

    #[test]
    fn repair_over_all_tasks_equals_full_run() {
        // Auctioning every task restricts nothing, so the repair loop is
        // the full algorithm: proposal order and results must coincide.
        let v = random_values(5, 20, 44);
        let full = assign_multi_data(&v);
        let all: Vec<usize> = (0..20).collect();
        let out = repair_multi_data(&v, &full.assignment, &all);
        assert_eq!(out.assignment, full.assignment);
        assert_eq!(out.matched_bytes, full.matched_bytes);
    }

    #[test]
    fn repair_keeps_unaffected_owners_and_stays_balanced() {
        let v = random_values(4, 16, 3);
        let full = assign_multi_data(&v);
        // Change values for two tasks (replica churn) and repair them.
        let mut v2 = v.clone();
        v2.add(0, 5, 10_000);
        v2.add(3, 11, 10_000);
        let out = repair_multi_data(&v2, &full.assignment, &[5, 11]);
        for t in 0..16 {
            if t != 5 && t != 11 {
                assert_eq!(
                    out.assignment.owner_of(t),
                    full.assignment.owner_of(t),
                    "unaffected task {t} must keep its owner"
                );
            }
        }
        assert!(out.assignment.is_balanced());
        // No task duplicated or dropped across the repair.
        let mut seen = [false; 16];
        for p in 0..4 {
            for &t in out.assignment.tasks_of(p) {
                assert!(!seen[t], "task {t} duplicated");
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn repair_is_deterministic() {
        let v = random_values(3, 9, 17);
        let full = assign_multi_data(&v);
        let a = repair_multi_data(&v, &full.assignment, &[2, 4, 7]);
        let b = repair_multi_data(&v, &full.assignment, &[7, 2, 4, 2]);
        assert_eq!(a, b, "order/duplicates in the affected set are ignored");
    }

    /// The matcher as it was before the candidate order became lazy —
    /// every process holds every task, sorted — kept verbatim (plus the
    /// proposal counter) as the identity oracle for [`auction`].
    fn assign_multi_data_dense(values: &MatchingValues) -> MultiDataOutcome {
        let m = values.n_procs();
        let n = values.n_tasks();
        assert!(m > 0, "need at least one process");
        let quota = crate::single_data::quotas(n, m);

        // Candidate lists: all tasks sorted by (value desc, task asc). Tasks
        // with zero value are included so the proposal loop is complete.
        let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(m);
        for p in 0..m {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| values.value(p, b).cmp(&values.value(p, a)).then(a.cmp(&b)));
            candidates.push(order);
        }
        let mut cursor = vec![0usize; m];

        let mut owner: Vec<Option<usize>> = vec![None; n];
        let mut load = vec![0usize; m];
        let mut reassignments = 0usize;
        let mut proposals = 0usize;

        // Work queue of processes below quota. Deterministic order.
        let mut queue: std::collections::VecDeque<usize> =
            (0..m).filter(|&p| quota[p] > 0).collect();

        while let Some(p) = queue.pop_front() {
            if load[p] >= quota[p] {
                continue;
            }
            // Propose to the best not-yet-considered task.
            if cursor[p] >= n {
                // Fallback: p has considered everything; grab any unassigned
                // tasks (they must exist because quotas sum to n).
                while load[p] < quota[p] {
                    let task = owner
                        .iter()
                        .position(Option::is_none)
                        .expect("quotas sum to n, an unassigned task must exist");
                    owner[task] = Some(p);
                    load[p] += 1;
                }
                continue;
            }
            let task = candidates[p][cursor[p]];
            cursor[p] += 1;
            proposals += 1;

            match owner[task] {
                None => {
                    owner[task] = Some(p);
                    load[p] += 1;
                }
                Some(current) => {
                    // Trade up only on strictly larger value (paper line 11).
                    if values.value(current, task) < values.value(p, task) {
                        owner[task] = Some(p);
                        load[p] += 1;
                        load[current] -= 1;
                        reassignments += 1;
                        queue.push_back(current);
                    }
                }
            }
            if load[p] < quota[p] {
                queue.push_back(p);
            }
        }

        debug_assert!(owner.iter().all(Option::is_some));
        let owner: Vec<usize> = owner.into_iter().map(Option::unwrap).collect();
        let assignment = Assignment::from_owners(owner, m);
        let matched_bytes = values.total_value(&assignment);
        MultiDataOutcome {
            assignment,
            matched_bytes,
            reassignments,
            proposals,
        }
    }

    /// The dense repair, kept verbatim like [`assign_multi_data_dense`].
    fn repair_multi_data_dense(
        values: &MatchingValues,
        prev: &Assignment,
        affected: &[usize],
    ) -> MultiDataOutcome {
        let m = values.n_procs();
        let n = values.n_tasks();
        assert!(m > 0, "need at least one process");
        assert_eq!(prev.n_procs(), m, "process count changed; re-plan instead");
        assert_eq!(prev.n_tasks(), n, "task count changed; re-plan instead");
        let quota = crate::single_data::quotas(n, m);

        let mut affected: Vec<usize> = affected.to_vec();
        affected.sort_unstable();
        affected.dedup();
        if let Some(&t) = affected.last() {
            assert!(t < n, "task {t} out of range");
        }
        let in_scope = |t: usize| affected.binary_search(&t).is_ok();

        // Seed from the previous assignment with affected tasks evicted.
        let mut owner: Vec<Option<usize>> = (0..n)
            .map(|t| (!in_scope(t)).then(|| prev.owner_of(t)))
            .collect();
        let mut load = vec![0usize; m];
        for o in owner.iter().flatten() {
            load[*o] += 1;
        }

        // Candidate lists cover only the auctioned tasks.
        let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(m);
        for p in 0..m {
            let mut order = affected.clone();
            order.sort_by(|&a, &b| values.value(p, b).cmp(&values.value(p, a)).then(a.cmp(&b)));
            candidates.push(order);
        }
        let mut cursor = vec![0usize; m];
        let mut reassignments = 0usize;
        let mut proposals = 0usize;

        let mut queue: std::collections::VecDeque<usize> =
            (0..m).filter(|&p| load[p] < quota[p]).collect();
        while let Some(p) = queue.pop_front() {
            if load[p] >= quota[p] {
                continue;
            }
            if cursor[p] >= candidates[p].len() {
                // Same liveness fallback as the full algorithm, over the
                // auctioned set only (exactly the affected tasks can be open).
                while load[p] < quota[p] {
                    let task = owner
                        .iter()
                        .position(Option::is_none)
                        .expect("quotas sum to n, an unassigned task must exist");
                    owner[task] = Some(p);
                    load[p] += 1;
                }
                continue;
            }
            let task = candidates[p][cursor[p]];
            cursor[p] += 1;
            proposals += 1;
            match owner[task] {
                None => {
                    owner[task] = Some(p);
                    load[p] += 1;
                }
                Some(current) => {
                    if values.value(current, task) < values.value(p, task) {
                        owner[task] = Some(p);
                        load[p] += 1;
                        load[current] -= 1;
                        reassignments += 1;
                        queue.push_back(current);
                    }
                }
            }
            if load[p] < quota[p] {
                queue.push_back(p);
            }
        }

        debug_assert!(owner.iter().all(Option::is_some));
        let owner: Vec<usize> = owner.into_iter().map(Option::unwrap).collect();
        let assignment = Assignment::from_owners(owner, m);
        let matched_bytes = values.total_value(&assignment);
        MultiDataOutcome {
            assignment,
            matched_bytes,
            reassignments,
            proposals,
        }
    }

    /// A table of 1–12 processes and 0–40 tasks (so `n < m`, `n = 0` and
    /// indivisible `n` all occur) at a random density — the all-zero
    /// table included — whose entries take 1–4 distinct values, so ties
    /// dominate.
    fn tied_values(rng: &mut StdRng) -> MatchingValues {
        let m = rng.gen_range(1usize..=12);
        let n = rng.gen_range(0usize..=40);
        let density = [0.0, 0.05, 0.25, 0.6, 1.0][rng.gen_range(0..5)];
        let distinct = rng.gen_range(1u64..=4);
        let mut v = MatchingValues::new(m, n);
        for p in 0..m {
            for t in 0..n {
                if rng.gen_bool(density) {
                    v.add(p, t, 10 * rng.gen_range(1..=distinct));
                }
            }
        }
        v
    }

    #[test]
    fn lazy_proposals_equal_the_dense_candidate_table() {
        let mut rng = StdRng::seed_from_u64(0xA1);
        for case in 0..20_000 {
            let v = tied_values(&mut rng);
            let (m, n) = (v.n_procs(), v.n_tasks());
            let full = assign_multi_data(&v);
            assert_eq!(full, assign_multi_data_dense(&v), "case {case}: {v:?}");

            // Replica churn: move some values, then re-auction a random
            // subset (with repeats, out of order) of the tasks.
            let mut churned = v.clone();
            for _ in 0..rng.gen_range(0..6) {
                if n == 0 {
                    break;
                }
                let (p, t) = (rng.gen_range(0..m), rng.gen_range(0..n));
                match churned.value(p, t) {
                    0 => churned.add(p, t, 10 * rng.gen_range(1u64..=4)),
                    held => churned.subtract(p, t, if rng.gen_bool(0.5) { held } else { 5 }),
                }
            }
            let affected: Vec<usize> = (0..rng.gen_range(0..=n))
                .map(|_| rng.gen_range(0..n))
                .collect();
            assert_eq!(
                repair_multi_data(&churned, &full.assignment, &affected),
                repair_multi_data_dense(&churned, &full.assignment, &affected),
                "case {case}: {churned:?} from {:?} over {affected:?}",
                full.assignment
            );
        }
    }

    /// The table of `crates/bench/benches/multidata.rs`: every task has
    /// up to nine non-zero process affinities (three inputs × three
    /// replicas).
    fn paper_shaped_values(m: usize, n: usize, seed: u64) -> MatchingValues {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values = MatchingValues::new(m, n);
        for t in 0..n {
            for _ in 0..9 {
                let p = rng.gen_range(0..m);
                let size = [30 * MB, 20 * MB, 10 * MB][rng.gen_range(0..3)];
                values.add(p, t, size);
            }
        }
        values
    }

    #[test]
    fn proposals_and_candidates_follow_the_non_zero_values() {
        // Counts, not clocks: a per-process `0..n` squares the candidate
        // copy, a matcher that is no longer Algorithm 1 bends the proposal
        // curve. One table's proposal count wanders ±15 % around the
        // curve (who ends up walking its zero-valued tail is a matter of
        // ties), so the growth law is held over four tables per size.
        let m = 128;
        let mut previous: Option<usize> = None;
        for n in [1_280, 2_560, 5_120, 10_240] {
            let mut proposals = 0;
            for seed in 1..=4 {
                let v = paper_shaped_values(m, n, seed);
                let nnz: usize = (0..m).map(|p| v.tasks_of(p).len()).sum();
                assert!(nnz <= 9 * n);
                let candidates = Candidates::build(&v, &vec![OPEN; n]);
                assert_eq!(candidates.entries.len(), nnz, "n={n} seed={seed}");
                assert_eq!(candidates.offsets.len(), m + 1);

                let out = assign_multi_data(&v);
                assert!(out.assignment.is_balanced());
                proposals += out.proposals;
            }
            if let Some(previous) = previous {
                let growth = proposals as f64 / previous as f64;
                assert!(
                    growth <= 2.3,
                    "n={n}: {proposals} proposals, {growth:.2}x those at n/2"
                );
            }
            previous = Some(proposals);
        }
    }

    #[test]
    fn process_perspective_optimality() {
        // Stable-marriage-style check: no process p and task t exist such
        // that p values t strictly more than one of its own tasks AND t's
        // owner values t strictly less than p does (a blocking pair under
        // quota exchange).
        let mut v = MatchingValues::new(3, 9);
        let mut state = 99u64;
        for p in 0..3 {
            for t in 0..9 {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                v.add(p, t, state % 64 + 1);
            }
        }
        let out = assign_multi_data(&v);
        for p in 0..3 {
            let my_min = out
                .assignment
                .tasks_of(p)
                .iter()
                .map(|&t| v.value(p, t))
                .min()
                .unwrap();
            for t in 0..9 {
                let owner = out.assignment.owner_of(t);
                if owner == p {
                    continue;
                }
                let blocking = v.value(p, t) > my_min && v.value(owner, t) < v.value(p, t);
                assert!(
                    !blocking,
                    "blocking pair: p={p} t={t} (value {} > own min {my_min}, owner {} holds at {})",
                    v.value(p, t),
                    owner,
                    v.value(owner, t)
                );
            }
        }
    }
}
