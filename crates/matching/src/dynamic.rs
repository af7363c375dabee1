//! Opass for Dynamic Parallel Data Access (paper Section IV-D).
//!
//! Irregular workloads (gene comparison, mpiBLAST) use a master process that
//! hands tasks to whichever worker is idle. Opass keeps the dynamic load
//! balancing but *guides* it: a matching computed up front yields one task
//! list `L_i` per worker; an idle worker drains its own list first, and when
//! it runs dry it steals — from the **longest** remaining list — the task
//! with the largest co-located data on the idle worker's node. The paper's
//! baseline (and our [`FifoScheduler`]) ignores locality entirely.

use crate::assignment::Assignment;
use crate::multi_data::MatchingValues;
use std::collections::VecDeque;

/// One steal decision made by a work-stealing scheduler: `thief` went idle
/// and took `task` from `victim`'s list. Plain data so observability layers
/// can consume it without knowing the scheduler type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealRecord {
    /// Worker that went idle and stole.
    pub thief: usize,
    /// Worker whose list the task came from.
    pub victim: usize,
    /// The stolen task.
    pub task: usize,
}

/// A task dispenser driven by the master loop: `next_task(worker)` is called
/// whenever `worker` goes idle; `None` means no work remains anywhere.
pub trait DynamicScheduler {
    /// Picks the next task for an idle worker, or `None` when exhausted.
    fn next_task(&mut self, worker: usize) -> Option<usize>;

    /// Tasks not yet dispensed.
    fn remaining(&self) -> usize;

    /// Drains steal decisions made since the last call. Schedulers without
    /// a stealing phase keep the default (always empty); consumers poll
    /// this after `next_task` to attribute steals to a point in time.
    fn drain_steals(&mut self) -> Vec<StealRecord> {
        Vec::new()
    }
}

/// Baseline: a single FIFO queue, no locality awareness — the "default
/// dynamic data assignment" of Section V-A3.
#[derive(Debug, Clone)]
pub struct FifoScheduler {
    queue: VecDeque<usize>,
}

impl FifoScheduler {
    /// Builds a queue over tasks `0..n_tasks` in index order.
    pub fn new(n_tasks: usize) -> Self {
        FifoScheduler {
            queue: (0..n_tasks).collect(),
        }
    }
}

impl DynamicScheduler for FifoScheduler {
    fn next_task(&mut self, _worker: usize) -> Option<usize> {
        self.queue.pop_front()
    }

    fn remaining(&self) -> usize {
        self.queue.len()
    }
}

/// Delay scheduling (Zaharia et al., EuroSys'10) adapted to the
/// opportunity-count formulation: when a worker asks for work, scan up to
/// `max_skips` tasks from the head of the shared queue for one with
/// co-located data; if none of them is local, concede and hand out the
/// head task. The paper cites this as the closest scheduler-side
/// alternative to Opass — it discovers locality greedily at dispatch time
/// instead of planning it with a matching.
#[derive(Debug, Clone)]
pub struct DelayScheduler {
    queue: VecDeque<usize>,
    values: MatchingValues,
    max_skips: usize,
}

impl DelayScheduler {
    /// Builds the scheduler over tasks `0..n_tasks` in index order.
    ///
    /// `values` provides the locality signal; `max_skips` is the number of
    /// queue positions an idle worker may look ahead for a local task
    /// (0 degrades to FIFO).
    pub fn new(n_tasks: usize, values: MatchingValues, max_skips: usize) -> Self {
        assert_eq!(values.n_tasks(), n_tasks, "value table size mismatch");
        DelayScheduler {
            queue: (0..n_tasks).collect(),
            values,
            max_skips,
        }
    }
}

impl DynamicScheduler for DelayScheduler {
    fn next_task(&mut self, worker: usize) -> Option<usize> {
        if self.queue.is_empty() {
            return None;
        }
        let horizon = self.queue.len().min(self.max_skips + 1);
        let local_pos = (0..horizon).find(|&i| self.values.value(worker, self.queue[i]) > 0);
        let pos = local_pos.unwrap_or(0);
        self.queue.remove(pos)
    }

    fn remaining(&self) -> usize {
        self.queue.len()
    }
}

/// How an idle worker picks a task from another worker's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealPolicy {
    /// The paper's rule: from the longest list, the task with the largest
    /// co-located data on the stealing worker's node.
    #[default]
    MostColocated,
    /// Ablation variant: from the longest list, simply the head task
    /// (locality-oblivious stealing).
    Head,
}

/// # Example
///
/// ```
/// use opass_matching::{Assignment, DynamicScheduler, GuidedScheduler, MatchingValues};
///
/// // Worker 0 owns tasks {0,1}; worker 1 owns nothing and is strongly
/// // co-located with task 1 — when idle it steals that one.
/// let assignment = Assignment::from_owners(vec![0, 0], 2);
/// let mut values = MatchingValues::new(2, 2);
/// values.add(1, 1, 64);
/// let mut sched = GuidedScheduler::new(&assignment, values);
/// assert_eq!(sched.next_task(1), Some(1)); // stolen by co-location
/// assert_eq!(sched.next_task(0), Some(0));
/// assert_eq!(sched.next_task(0), None);
/// ```
///
/// The Opass guided scheduler: per-worker lists with locality-aware
/// stealing (paper Section IV-D steps 1–3).
#[derive(Debug, Clone)]
pub struct GuidedScheduler {
    /// `lists[w]` = remaining tasks of worker `w` (front = next).
    lists: Vec<VecDeque<usize>>,
    /// Matching values used to rank steal candidates.
    values: MatchingValues,
    steal_policy: StealPolicy,
    remaining: usize,
    /// Steal decisions not yet drained (see [`DynamicScheduler::drain_steals`]).
    steal_log: Vec<StealRecord>,
}

impl GuidedScheduler {
    /// Builds the per-worker lists from a matching-based [`Assignment`]
    /// (step 1 of the paper's protocol).
    ///
    /// # Panics
    ///
    /// Panics if the assignment and value table disagree on dimensions.
    pub fn new(assignment: &Assignment, values: MatchingValues) -> Self {
        Self::with_steal_policy(assignment, values, StealPolicy::MostColocated)
    }

    /// Like [`Self::new`] but with an explicit steal policy (for the
    /// ablation study).
    pub fn with_steal_policy(
        assignment: &Assignment,
        values: MatchingValues,
        steal_policy: StealPolicy,
    ) -> Self {
        assert_eq!(
            assignment.n_procs(),
            values.n_procs(),
            "proc count mismatch"
        );
        assert_eq!(
            assignment.n_tasks(),
            values.n_tasks(),
            "task count mismatch"
        );
        let lists: Vec<VecDeque<usize>> = (0..assignment.n_procs())
            .map(|p| assignment.tasks_of(p).iter().copied().collect())
            .collect();
        let remaining = lists.iter().map(VecDeque::len).sum();
        GuidedScheduler {
            lists,
            values,
            steal_policy,
            remaining,
            steal_log: Vec::new(),
        }
    }

    fn steal(&mut self, worker: usize) -> Option<usize> {
        // Step 3: pick from the longest remaining list. Ties between lists:
        // lowest index (deterministic).
        let longest = (0..self.lists.len())
            .filter(|&w| !self.lists[w].is_empty())
            .max_by_key(|&w| (self.lists[w].len(), usize::MAX - w))?;
        let best_pos = match self.steal_policy {
            StealPolicy::MostColocated => {
                // The task with the largest co-located size for `worker`;
                // ties go to the earliest position in the list.
                self.lists[longest]
                    .iter()
                    .enumerate()
                    .max_by_key(|&(pos, &t)| (self.values.value(worker, t), usize::MAX - pos))
                    .map(|(pos, _)| pos)
                    .expect("longest list is non-empty")
            }
            StealPolicy::Head => 0,
        };
        let stolen = self.lists[longest].remove(best_pos);
        if let Some(task) = stolen {
            self.steal_log.push(StealRecord {
                thief: worker,
                victim: longest,
                task,
            });
        }
        stolen
    }
}

impl DynamicScheduler for GuidedScheduler {
    fn next_task(&mut self, worker: usize) -> Option<usize> {
        assert!(worker < self.lists.len(), "worker {worker} out of range");
        let task = match self.lists[worker].pop_front() {
            Some(t) => Some(t),
            None => self.steal(worker),
        };
        if task.is_some() {
            self.remaining -= 1;
        }
        task
    }

    fn remaining(&self) -> usize {
        self.remaining
    }

    fn drain_steals(&mut self) -> Vec<StealRecord> {
        std::mem::take(&mut self.steal_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values_with(
        n_procs: usize,
        n_tasks: usize,
        entries: &[(usize, usize, u64)],
    ) -> MatchingValues {
        let mut v = MatchingValues::new(n_procs, n_tasks);
        for &(p, t, b) in entries {
            v.add(p, t, b);
        }
        v
    }

    #[test]
    fn fifo_dispenses_in_order_and_counts() {
        let mut s = FifoScheduler::new(3);
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.next_task(1), Some(0));
        assert_eq!(s.next_task(0), Some(1));
        assert_eq!(s.next_task(2), Some(2));
        assert_eq!(s.next_task(0), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn guided_drains_own_list_first() {
        let assignment = Assignment::from_owners(vec![0, 0, 1, 1], 2);
        let values = MatchingValues::new(2, 4);
        let mut s = GuidedScheduler::new(&assignment, values);
        assert_eq!(s.next_task(0), Some(0));
        assert_eq!(s.next_task(0), Some(1));
        assert_eq!(s.next_task(1), Some(2));
        assert_eq!(s.remaining(), 1);
    }

    #[test]
    fn guided_steals_from_longest_list() {
        // Worker 0 has nothing; workers 1 (3 tasks) and 2 (1 task).
        let assignment = Assignment::from_owners(vec![1, 1, 1, 2], 3);
        let values = MatchingValues::new(3, 4);
        let mut s = GuidedScheduler::new(&assignment, values);
        let stolen = s.next_task(0).unwrap();
        assert!(
            [0, 1, 2].contains(&stolen),
            "must steal from worker 1's list, got {stolen}"
        );
    }

    #[test]
    fn guided_steals_best_colocated_task() {
        // Worker 0 idle; worker 1 holds tasks 0..3. Worker 0 is strongly
        // co-located with task 2.
        let assignment = Assignment::from_owners(vec![1, 1, 1], 2);
        let values = values_with(2, 3, &[(0, 2, 100), (0, 0, 10)]);
        let mut s = GuidedScheduler::new(&assignment, values);
        assert_eq!(s.next_task(0), Some(2));
    }

    #[test]
    fn guided_exhausts_completely() {
        let assignment = Assignment::from_owners(vec![0, 1, 0, 1, 0], 2);
        let values = MatchingValues::new(2, 5);
        let mut s = GuidedScheduler::new(&assignment, values);
        let mut seen = [false; 5];
        // Worker 1 consumes aggressively, worker 0 slowly.
        for turn in 0..5 {
            let w = if turn % 3 == 0 { 0 } else { 1 };
            let t = s.next_task(w).unwrap();
            assert!(!seen[t], "task {t} dispensed twice");
            seen[t] = true;
        }
        assert_eq!(s.next_task(0), None);
        assert_eq!(s.next_task(1), None);
        assert!(seen.iter().all(|&x| x));
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn delay_scheduler_skips_to_local_task() {
        // Worker 0 is local to task 2 only; with 3 skips it gets task 2
        // first, then falls back to FIFO order.
        let values = values_with(1, 4, &[(0, 2, 64)]);
        let mut s = DelayScheduler::new(4, values, 3);
        assert_eq!(s.next_task(0), Some(2));
        assert_eq!(s.next_task(0), Some(0));
        assert_eq!(s.next_task(0), Some(1));
        assert_eq!(s.next_task(0), Some(3));
        assert_eq!(s.next_task(0), None);
    }

    #[test]
    fn delay_scheduler_with_zero_skips_is_fifo() {
        let values = values_with(1, 3, &[(0, 2, 64)]);
        let mut s = DelayScheduler::new(3, values, 0);
        assert_eq!(s.next_task(0), Some(0));
        assert_eq!(s.next_task(0), Some(1));
        assert_eq!(s.next_task(0), Some(2));
    }

    #[test]
    fn delay_scheduler_bounded_lookahead_concedes() {
        // Local task sits beyond the skip horizon: worker takes the head.
        let values = values_with(1, 5, &[(0, 4, 64)]);
        let mut s = DelayScheduler::new(5, values, 2);
        assert_eq!(s.next_task(0), Some(0), "task 4 is out of the horizon");
    }

    #[test]
    fn delay_scheduler_counts_remaining() {
        let values = MatchingValues::new(2, 4);
        let mut s = DelayScheduler::new(4, values, 1);
        assert_eq!(s.remaining(), 4);
        s.next_task(0);
        assert_eq!(s.remaining(), 3);
    }

    #[test]
    fn head_steal_policy_ignores_locality() {
        let assignment = Assignment::from_owners(vec![1, 1, 1], 2);
        let values = values_with(2, 3, &[(0, 2, 100)]);
        let mut s = GuidedScheduler::with_steal_policy(&assignment, values, StealPolicy::Head);
        // Head policy takes the front of worker 1's list even though task 2
        // is the better-colocated choice.
        assert_eq!(s.next_task(0), Some(0));
    }

    #[test]
    fn steals_are_logged_and_drained() {
        let assignment = Assignment::from_owners(vec![1, 1, 1], 2);
        let values = values_with(2, 3, &[(0, 2, 100)]);
        let mut s = GuidedScheduler::new(&assignment, values);
        // Worker 1 draining its own list is not a steal.
        assert_eq!(s.next_task(1), Some(0));
        assert!(s.drain_steals().is_empty());
        // Worker 0 has no list: its task comes from worker 1's.
        assert_eq!(s.next_task(0), Some(2));
        let steals = s.drain_steals();
        assert_eq!(
            steals,
            vec![StealRecord {
                thief: 0,
                victim: 1,
                task: 2
            }]
        );
        // Draining is destructive.
        assert!(s.drain_steals().is_empty());
        // FIFO never steals.
        let mut fifo = FifoScheduler::new(2);
        fifo.next_task(0);
        assert!(fifo.drain_steals().is_empty());
    }

    #[test]
    #[should_panic(expected = "proc count mismatch")]
    fn rejects_dimension_mismatch() {
        let assignment = Assignment::from_owners(vec![0], 1);
        let values = MatchingValues::new(2, 1);
        let _ = GuidedScheduler::new(&assignment, values);
    }
}
