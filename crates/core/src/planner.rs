//! The Opass planner — the paper's contribution as a library facade.
//!
//! Given the file-system layout, a workload, and where the parallel
//! processes run, the planner produces assignments that maximize local,
//! balanced reads. All modes go through one front door: build a
//! [`crate::PlanRequest`] and call [`OpassPlanner::plan`] (one-shot) or
//! [`OpassPlanner::session`] (incremental re-planning):
//!
//! * `PlanRequest::single(...)` — max-flow matching (Section IV-B), with
//!   `.rack_aware(...)` / `.weighted(...)` refinements;
//! * `PlanRequest::multi(...)` — Algorithm 1 (Section IV-C);
//! * `PlanRequest::dynamic(...)` — guided per-worker lists with
//!   locality-aware stealing (Section IV-D).
//!
//! The pre-redesign per-mode methods (`plan_single_data` and friends)
//! are gone; [`OpassPlanner::plan`] and [`OpassPlanner::session`] are
//! the only entry points.

use opass_matching::{Assignment, FillPolicy, FlowAlgo, LocalityReport, Objective};

/// Planner configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpassPlanner {
    /// Max-flow implementation for the single-data matcher. [`FlowAlgo`]
    /// has one variant and no plan reads this; the field stays only
    /// because the frozen benchmark package reads it (ROADMAP item 4(c)).
    pub algo: FlowAlgo,
    /// Fill policy for files the matching cannot place locally.
    pub fill: FillPolicy,
    /// Matching objective: file count (paper) or locally-kept bytes
    /// (min-cost max-flow; preferable with mixed chunk sizes).
    pub objective: Objective,
}

/// A single-data plan: assignment plus quality metrics.
#[derive(Debug, Clone)]
pub struct SingleDataPlan {
    /// The balanced assignment to execute.
    pub assignment: Assignment,
    /// Files matched to co-located processes by max-flow.
    pub matched_files: usize,
    /// Files placed by the fill policy (will read remotely).
    pub filled_files: usize,
    /// Locality metrics under the produced assignment.
    pub locality: LocalityReport,
}

/// A multi-data plan.
#[derive(Debug, Clone)]
pub struct MultiDataPlan {
    /// The balanced assignment to execute.
    pub assignment: Assignment,
    /// Total bytes of task input co-located with the owning process.
    pub matched_bytes: u64,
    /// Total bytes demanded by the workload.
    pub total_bytes: u64,
    /// Trade-up events during Algorithm 1.
    pub reassignments: usize,
}

impl MultiDataPlan {
    /// Fraction of input bytes readable locally.
    pub fn local_byte_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            return 1.0;
        }
        self.matched_bytes as f64 / self.total_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::capture_workload_layout;
    use crate::request::PlanRequest;
    use opass_dfs::{DatasetSpec, DfsConfig, Namenode, Placement};
    use opass_matching::{locality_report, DynamicScheduler};
    use opass_runtime::ProcessPlacement;
    use opass_workloads::{Task, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fs(n_nodes: usize, n_chunks: usize) -> (Namenode, Workload) {
        let mut nn = Namenode::new(n_nodes, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(17);
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("d", n_chunks, 64 << 20),
            &Placement::Random,
            &mut rng,
        );
        let tasks = nn
            .dataset(ds)
            .unwrap()
            .chunks
            .iter()
            .map(|&c| Task::single(c))
            .collect();
        (nn, Workload::new("w", tasks))
    }

    fn single_plan(nn: &Namenode, w: &Workload, p: &ProcessPlacement, seed: u64) -> SingleDataPlan {
        OpassPlanner::default()
            .plan(&PlanRequest::single(nn, w, p).seed(seed))
            .into_single()
            .expect("single plan")
    }

    #[test]
    fn single_data_plan_is_balanced_and_mostly_local() {
        let (nn, w) = fs(8, 80);
        let placement = ProcessPlacement::one_per_node(8);
        let plan = single_plan(&nn, &w, &placement, 3);
        assert!(plan.assignment.is_balanced());
        assert_eq!(plan.matched_files + plan.filled_files, 80);
        // With r=3 on 8 nodes, nearly everything should match locally.
        assert!(
            plan.locality.task_fraction() > 0.9,
            "local fraction {}",
            plan.locality.task_fraction()
        );
    }

    #[test]
    fn multi_data_plan_counts_bytes() {
        let mut nn = Namenode::new(6, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let a = nn.create_dataset(
            &DatasetSpec::uniform("a", 12, 30 << 20),
            &Placement::Random,
            &mut rng,
        );
        let b = nn.create_dataset(
            &DatasetSpec::uniform("b", 12, 20 << 20),
            &Placement::Random,
            &mut rng,
        );
        let ca = nn.dataset(a).unwrap().chunks.clone();
        let cb = nn.dataset(b).unwrap().chunks.clone();
        let w = Workload::new(
            "multi",
            (0..12).map(|i| Task::multi(vec![ca[i], cb[i]])).collect(),
        );
        let placement = ProcessPlacement::one_per_node(6);
        let plan = OpassPlanner::default()
            .plan(&PlanRequest::multi(&nn, &w, &placement))
            .into_multi()
            .expect("multi plan");
        assert!(plan.assignment.is_balanced());
        assert_eq!(plan.total_bytes, 12 * (50 << 20));
        assert!(plan.matched_bytes <= plan.total_bytes);
        assert!(
            plan.local_byte_fraction() > 0.3,
            "{}",
            plan.local_byte_fraction()
        );
    }

    #[test]
    fn dynamic_plan_dispenses_all_tasks() {
        let (nn, w) = fs(6, 30);
        let placement = ProcessPlacement::one_per_node(6);
        let mut sched = OpassPlanner::default()
            .plan(&PlanRequest::dynamic(&nn, &w, &placement).seed(1))
            .into_dynamic()
            .expect("guided scheduler");
        let mut count = 0;
        while sched.next_task(count % 6).is_some() {
            count += 1;
        }
        assert_eq!(count, 30);
    }

    #[test]
    fn layout_first_plan_matches_namenode_plan() {
        // The cached-layout path must be bit-identical to the direct path:
        // a planning service that re-plans from a snapshot returns exactly
        // what an in-process planner would.
        let (nn, w) = fs(8, 80);
        let placement = ProcessPlacement::one_per_node(8);
        let direct = single_plan(&nn, &w, &placement, 42);
        let snapshot = capture_workload_layout(&nn, &w);
        let cached = OpassPlanner::default()
            .plan(&PlanRequest::single_from_layout(&snapshot, &placement).seed(42))
            .into_single()
            .expect("single plan");
        assert_eq!(direct.assignment.owners(), cached.assignment.owners());
        assert_eq!(direct.matched_files, cached.matched_files);
        assert_eq!(direct.filled_files, cached.filled_files);
        assert_eq!(direct.locality, cached.locality);
    }

    #[test]
    fn bytes_objective_plan_keeps_more_bytes_on_mixed_sizes() {
        // Two datasets with very different chunk sizes merged into one
        // single-input workload: the bytes objective must keep at least as
        // many bytes local as the unit objective.
        let mut nn = Namenode::new(6, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(77);
        let big = nn.create_dataset(
            &DatasetSpec::uniform("big", 12, 64 << 20),
            &Placement::Random,
            &mut rng,
        );
        let small = nn.create_dataset(
            &DatasetSpec::uniform("small", 12, 4 << 20),
            &Placement::Random,
            &mut rng,
        );
        let mut chunks = nn.dataset(big).unwrap().chunks.clone();
        chunks.extend(nn.dataset(small).unwrap().chunks.clone());
        let w = Workload::new("mixed", chunks.iter().map(|&c| Task::single(c)).collect());
        let placement = ProcessPlacement::one_per_node(6);
        let unit = single_plan(&nn, &w, &placement, 1);
        let bytes_planner = OpassPlanner {
            objective: opass_matching::Objective::MatchedBytes,
            ..Default::default()
        };
        let bytes = bytes_planner
            .plan(&PlanRequest::single(&nn, &w, &placement).seed(1))
            .into_single()
            .expect("single plan");
        assert_eq!(unit.matched_files, bytes.matched_files, "same cardinality");
        assert!(
            bytes.locality.local_bytes >= unit.locality.local_bytes,
            "bytes {} < unit {}",
            bytes.locality.local_bytes,
            unit.locality.local_bytes
        );
    }

    #[test]
    fn planner_beats_rank_interval_locality() {
        let (nn, w) = fs(16, 160);
        let placement = ProcessPlacement::one_per_node(16);
        let plan = single_plan(&nn, &w, &placement, 9);
        // Rank-interval baseline locality for comparison.
        let graph = crate::builder::build_locality_graph_from_layout(
            &capture_workload_layout(&nn, &w),
            &placement,
        );
        let baseline = opass_runtime::baseline::rank_interval(160, 16);
        let sizes = vec![64u64 << 20; 160];
        let base_report = locality_report(&baseline, &graph, &sizes);
        assert!(
            plan.locality.task_fraction() > base_report.task_fraction() + 0.3,
            "opass {} vs baseline {}",
            plan.locality.task_fraction(),
            base_report.task_fraction()
        );
    }
}
