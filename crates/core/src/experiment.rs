//! End-to-end experiment drivers for the paper's evaluation scenarios.
//!
//! Every evaluation scenario is a type implementing the [`Experiment`]
//! trait: it builds a deterministic cluster + dataset from a shared
//! [`ClusterSpec`], applies a [`Strategy`] (a baseline or Opass), executes
//! on the simulator, and returns an [`ExperimentRun`]. Baseline and Opass
//! runs of the same experiment see the *same* data layout, so comparisons
//! isolate the assignment policy — the paper's methodology.
//!
//! The six experiments:
//!
//! * [`SingleData`] — Section V-A1, equal single-data assignment;
//! * [`MultiData`] — Section V-A2, tasks with 30/20/10 MB inputs;
//! * [`Dynamic`] — Section V-A3, master/worker with irregular compute;
//! * [`ParaView`] — Section V-B, multi-block rendering;
//! * [`Racked`] — rack-locality extension (two-tier matching);
//! * [`Heterogeneous`] — heterogeneous-cluster extension (weighted quotas).
//!
//! Each accepts a subset of the unified [`Strategy`] enum; passing an
//! unsupported strategy returns [`UnsupportedStrategy`] listing what the
//! experiment does accept. [`Experiment::run_instrumented`] additionally
//! records the structured event trace on `run.result.events` and derives
//! [`RunMetrics`] (utilization time-series, counters, histograms) from it,
//! exposed as `run.metrics`.

use crate::planner::OpassPlanner;
use crate::request::PlanRequest;
use opass_dfs::{DfsConfig, Namenode, Placement, RackMap, ReplicaChoice};
use opass_json::{Field, FieldError, Json};
use opass_runtime::{
    baseline, execute, execute_instrumented, ExecConfig, ProcessPlacement, RunMetrics, RunResult,
    TaskSource,
};
use opass_simio::{IoParams, Topology};
use opass_workloads::{
    dynamic as dyn_wl, multi as multi_wl, paraview as pv_wl, single as single_wl, DynamicConfig,
    MultiDataConfig, ParaViewConfig, SingleDataConfig, Workload,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Cluster parameters shared by every experiment: how many nodes, how big
/// a chunk is, how often it is replicated, how the hardware is calibrated,
/// and the master seed that drives placement, replica choice, and random
/// fills.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Cluster size `m` (one process per node).
    pub n_nodes: usize,
    /// Chunk size, bytes (paper: 64 MB). Experiments whose workload fixes
    /// its own sizes ([`MultiData::input_sizes`], [`ParaView::workload`])
    /// ignore this field.
    pub chunk_size: u64,
    /// Replication factor (paper: 3).
    pub replication: u32,
    /// Hardware calibration.
    pub io: IoParams,
    /// Master seed: drives placement, replica choice, and random fills.
    pub seed: u64,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            n_nodes: 64,
            chunk_size: 64 << 20,
            replication: 3,
            io: IoParams::marmot(),
            seed: 0x0A55,
        }
    }
}

impl ClusterSpec {
    /// Returns the spec with a different seed (builder-style convenience).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A fresh namenode for this spec.
    fn namenode(&self) -> Namenode {
        Namenode::new(
            self.n_nodes,
            DfsConfig {
                replication: self.replication,
            },
        )
    }
}

/// The unified assignment/scheduling strategy vocabulary.
///
/// Each experiment validates the subset it supports (see
/// [`Experiment::strategies`]); [`Strategy::Opass`] always means "the
/// paper's method at node level" and is accepted by every experiment —
/// [`Dynamic`] normalizes it to [`Strategy::OpassGuided`], [`Racked`] runs
/// node-level matching only, [`Heterogeneous`] runs uniform quotas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// ParaView's rank-interval static assignment — the paper's baseline
    /// (scenario-file aliases: `baseline`, `default`).
    RankInterval,
    /// Uniformly random balanced assignment (Section III's model).
    RandomAssign,
    /// The Opass matching at node level (max-flow for single-input tasks,
    /// Algorithm 1 for multi-input ones).
    Opass,
    /// Two-tier Opass: node-local matching, then rack-local matching
    /// ([`Racked`] only).
    OpassRackAware,
    /// Opass with quotas proportional to disk speed ([`Heterogeneous`]
    /// only).
    OpassWeighted,
    /// Central FIFO queue — the default master/worker dispatcher
    /// ([`Dynamic`] only).
    Fifo,
    /// Delay scheduling (Zaharia et al.): bounded lookahead in the shared
    /// queue for a local task ([`Dynamic`] only).
    DelayScheduling {
        /// Queue positions an idle worker may look ahead.
        max_skips: usize,
    },
    /// Opass guided lists with locality-aware stealing ([`Dynamic`] only).
    OpassGuided,
}

impl Strategy {
    /// Parses a scenario-file strategy string. Accepts the canonical
    /// labels (`rank_interval`, `random`, `opass`, `rack_aware`,
    /// `weighted`, `fifo`, `delay:<skips>`, `opass_guided`) plus the
    /// legacy per-experiment aliases (`baseline`, `default`, `node_only`,
    /// `uniform`, `guided`, `random_assign`).
    pub fn parse(s: &str) -> Option<Strategy> {
        Some(match s {
            "rank_interval" | "baseline" | "default" => Strategy::RankInterval,
            "random" | "random_assign" => Strategy::RandomAssign,
            "opass" | "node_only" | "uniform" => Strategy::Opass,
            "rack_aware" | "opass_rack_aware" => Strategy::OpassRackAware,
            "weighted" | "opass_weighted" => Strategy::OpassWeighted,
            "fifo" => Strategy::Fifo,
            "guided" | "opass_guided" => Strategy::OpassGuided,
            other => {
                let skips = other.strip_prefix("delay:")?;
                Strategy::DelayScheduling {
                    max_skips: skips.parse().ok()?,
                }
            }
        })
    }

    /// The canonical label, inverse of [`Strategy::parse`].
    pub fn label(&self) -> String {
        match self {
            Strategy::RankInterval => "rank_interval".into(),
            Strategy::RandomAssign => "random".into(),
            Strategy::Opass => "opass".into(),
            Strategy::OpassRackAware => "rack_aware".into(),
            Strategy::OpassWeighted => "weighted".into(),
            Strategy::Fifo => "fifo".into(),
            Strategy::DelayScheduling { max_skips } => format!("delay:{max_skips}"),
            Strategy::OpassGuided => "opass_guided".into(),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A strategy reads and writes as its label.
impl Field for Strategy {
    fn put(&self) -> Json {
        Json::from(self.label())
    }
    fn take(v: &Json, key: &str) -> Result<Strategy, FieldError> {
        let label = v
            .as_str()
            .ok_or_else(|| FieldError::must_be(key, "a string"))?;
        Strategy::parse(label).ok_or_else(|| FieldError(format!("unknown strategy {label:?}")))
    }
}

/// Error returned when an experiment is asked to run a strategy it does
/// not model.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsupportedStrategy {
    /// Experiment label (`single_data`, `racked`, …).
    pub experiment: &'static str,
    /// The rejected strategy.
    pub strategy: Strategy,
    /// What the experiment does accept.
    pub supported: Vec<Strategy>,
}

impl std::fmt::Display for UnsupportedStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let supported: Vec<String> = self.supported.iter().map(Strategy::label).collect();
        write!(
            f,
            "experiment {:?} does not support strategy {:?} (supported: {})",
            self.experiment,
            self.strategy.label(),
            supported.join(", ")
        )
    }
}

impl std::error::Error for UnsupportedStrategy {}

/// A run result annotated with how long planning took (host wall clock).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRun {
    /// The simulated execution trace (with its events when recorded).
    pub result: RunResult,
    /// Host seconds spent computing the assignment (0 for trivial
    /// baselines) — the Section V-C overhead discussion.
    pub planning_seconds: f64,
    /// Makespan of every phase for multi-phase experiments ([`ParaView`]
    /// rendering steps); empty for single-phase runs.
    pub step_makespans: Vec<f64>,
    /// The observability metrics derived from the recorded events;
    /// present after [`Experiment::run_instrumented`], absent after
    /// [`Experiment::run`].
    pub metrics: Option<RunMetrics>,
}

/// Runs `plan` and measures it on the host clock: its output and the
/// seconds it took. Every experiment's `planning_seconds` is read here.
pub fn time_planning<T>(plan: impl FnOnce() -> T) -> (T, f64) {
    // lint:allow(no-wallclock): observability only — planning_seconds reports real solver cost and never feeds simulated state
    let started = Instant::now();
    let planned = plan();
    (planned, started.elapsed().as_secs_f64())
}

/// Executes one planned phase on the simulator, recorded when
/// `instrument` is set.
fn run_phase(
    nn: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
    source: TaskSource,
    config: &ExecConfig,
    instrument: bool,
) -> RunResult {
    if instrument {
        execute_instrumented(nn, workload, placement, source, config)
    } else {
        execute(nn, workload, placement, source, config)
    }
}

/// Wraps a finished (or chained) run of `config`: when it recorded its
/// events, derives its [`RunMetrics`] once and stamps the planning time
/// in.
fn finish(
    result: RunResult,
    planning_seconds: f64,
    step_makespans: Vec<f64>,
    config: &ExecConfig,
) -> ExperimentRun {
    let metrics = result.events.is_some().then(|| RunMetrics {
        planning_seconds,
        ..RunMetrics::from_run(&result, config)
    });
    ExperimentRun {
        result,
        planning_seconds,
        step_makespans,
        metrics,
    }
}

/// Runs a single-phase plan: executes `source` on the simulator,
/// recorded when `instrument` is set, and wraps the result with its
/// planning time and, when recorded, its metrics. Every single-phase
/// experiment ends here.
pub fn run_planned(
    nn: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
    source: TaskSource,
    config: &ExecConfig,
    instrument: bool,
    planning_seconds: f64,
) -> ExperimentRun {
    let result = run_phase(nn, workload, placement, source, config, instrument);
    finish(result, planning_seconds, Vec::new(), config)
}

/// Builds the rejection error for an experiment.
fn unsupported(
    experiment: &'static str,
    strategy: Strategy,
    supported: Vec<Strategy>,
) -> UnsupportedStrategy {
    UnsupportedStrategy {
        experiment,
        strategy,
        supported,
    }
}

/// One of the paper's evaluation scenarios, behind a uniform interface.
///
/// [`run`](Experiment::run) executes the scenario under one [`Strategy`];
/// [`compare`](Experiment::compare) runs every supported strategy on the
/// *same* layout — the side-by-side view all of Section V's figures are
/// built from. [`run_instrumented`](Experiment::run_instrumented) is `run`
/// plus the observability pipeline: the structured event trace is recorded
/// on `result.events` and distilled into [`RunMetrics`] on
/// [`ExperimentRun::metrics`].
pub trait Experiment {
    /// Snake-case scenario label (`single_data`, `racked`, …).
    fn name(&self) -> &'static str;

    /// The strategies this experiment accepts, in presentation order.
    /// Parameterized strategies appear with a representative parameter.
    fn strategies(&self) -> Vec<Strategy>;

    /// Runs the experiment under `strategy`, optionally recording the
    /// event trace and deriving metrics. This is the one method impls
    /// provide; prefer calling [`Experiment::run`] or
    /// [`Experiment::run_instrumented`].
    fn run_with(
        &self,
        strategy: Strategy,
        instrument: bool,
    ) -> Result<ExperimentRun, UnsupportedStrategy>;

    /// Runs the experiment under `strategy`.
    fn run(&self, strategy: Strategy) -> Result<ExperimentRun, UnsupportedStrategy> {
        self.run_with(strategy, false)
    }

    /// Runs the experiment under `strategy` with event recording; the
    /// returned run carries its events in `result.events` and
    /// [`RunMetrics`] in [`ExperimentRun::metrics`].
    fn run_instrumented(&self, strategy: Strategy) -> Result<ExperimentRun, UnsupportedStrategy> {
        self.run_with(strategy, true)
    }

    /// Runs every supported strategy and returns the comparison.
    fn compare(&self) -> Vec<(Strategy, ExperimentRun)> {
        self.strategies()
            .into_iter()
            .map(|s| {
                let run = self.run(s).expect("strategies() entries are supported");
                (s, run)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Single-data access (Section V-A1)
// ---------------------------------------------------------------------------

/// The Section V-A1 experiment: equal single-data assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleData {
    /// Shared cluster parameters.
    pub cluster: ClusterSpec,
    /// Chunks per process (paper: ~10).
    pub chunks_per_process: usize,
}

impl Default for SingleData {
    fn default() -> Self {
        SingleData {
            cluster: ClusterSpec::default(),
            chunks_per_process: 10,
        }
    }
}

impl SingleData {
    /// The cluster, workload and process placement every strategy of this
    /// experiment runs on.
    pub fn build(&self) -> (Namenode, Workload, ProcessPlacement) {
        let mut nn = self.cluster.namenode();
        let mut rng = StdRng::seed_from_u64(self.cluster.seed);
        let cfg = SingleDataConfig {
            n_procs: self.cluster.n_nodes,
            chunks_per_process: self.chunks_per_process,
            chunk_size: self.cluster.chunk_size,
        };
        let (_, workload) = single_wl::generate(&mut nn, &cfg, &Placement::Random, &mut rng);
        let placement = ProcessPlacement::one_per_node(self.cluster.n_nodes);
        (nn, workload, placement)
    }
}

impl Experiment for SingleData {
    fn name(&self) -> &'static str {
        "single_data"
    }

    fn strategies(&self) -> Vec<Strategy> {
        vec![
            Strategy::RankInterval,
            Strategy::RandomAssign,
            Strategy::Opass,
        ]
    }

    fn run_with(
        &self,
        strategy: Strategy,
        instrument: bool,
    ) -> Result<ExperimentRun, UnsupportedStrategy> {
        let (nn, workload, placement) = self.build();
        let n = workload.len();
        let seed = self.cluster.seed;
        let (assignment, planning_seconds) = time_planning(|| {
            Ok(match strategy {
                Strategy::RankInterval => baseline::rank_interval(n, self.cluster.n_nodes),
                Strategy::RandomAssign => {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
                    baseline::random_assignment(n, self.cluster.n_nodes, &mut rng)
                }
                Strategy::Opass => {
                    OpassPlanner::default()
                        .plan(&PlanRequest::single(&nn, &workload, &placement).seed(seed ^ 0x51))
                        .into_single()
                        .expect("single plan")
                        .assignment
                }
                other => return Err(unsupported(self.name(), other, self.strategies())),
            })
        });
        Ok(run_planned(
            &nn,
            &workload,
            &placement,
            TaskSource::Static(assignment?),
            &ExecConfig {
                io: self.cluster.io,
                replica_choice: ReplicaChoice::PreferLocalRandom,
                seed: seed ^ 0xE0,
                ..Default::default()
            },
            instrument,
            planning_seconds,
        ))
    }
}

// ---------------------------------------------------------------------------
// Multi-data access (Section V-A2)
// ---------------------------------------------------------------------------

/// The Section V-A2 experiment: tasks with 30/20/10 MB inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiData {
    /// Shared cluster parameters (`chunk_size` is unused — the inputs fix
    /// their own sizes).
    pub cluster: ClusterSpec,
    /// Tasks per process.
    pub tasks_per_process: usize,
    /// Per-input chunk sizes (paper: 30/20/10 MB).
    pub input_sizes: Vec<u64>,
}

impl Default for MultiData {
    fn default() -> Self {
        let mb = 1u64 << 20;
        MultiData {
            cluster: ClusterSpec::default().with_seed(0x3017),
            tasks_per_process: 10,
            input_sizes: vec![30 * mb, 20 * mb, 10 * mb],
        }
    }
}

impl MultiData {
    fn build(&self) -> (Namenode, Workload, ProcessPlacement) {
        let mut nn = self.cluster.namenode();
        let mut rng = StdRng::seed_from_u64(self.cluster.seed);
        let cfg = MultiDataConfig {
            n_tasks: self.cluster.n_nodes * self.tasks_per_process,
            input_sizes: self.input_sizes.clone(),
        };
        let (_, workload) = multi_wl::generate(&mut nn, &cfg, &Placement::Random, &mut rng);
        let placement = ProcessPlacement::one_per_node(self.cluster.n_nodes);
        (nn, workload, placement)
    }
}

impl Experiment for MultiData {
    fn name(&self) -> &'static str {
        "multi_data"
    }

    fn strategies(&self) -> Vec<Strategy> {
        vec![Strategy::RankInterval, Strategy::Opass]
    }

    fn run_with(
        &self,
        strategy: Strategy,
        instrument: bool,
    ) -> Result<ExperimentRun, UnsupportedStrategy> {
        let (nn, workload, placement) = self.build();
        let (assignment, planning_seconds) = time_planning(|| {
            Ok(match strategy {
                Strategy::RankInterval => {
                    baseline::rank_interval(workload.len(), self.cluster.n_nodes)
                }
                Strategy::Opass => {
                    OpassPlanner::default()
                        .plan(&PlanRequest::multi(&nn, &workload, &placement))
                        .into_multi()
                        .expect("multi plan")
                        .assignment
                }
                other => return Err(unsupported(self.name(), other, self.strategies())),
            })
        });
        Ok(run_planned(
            &nn,
            &workload,
            &placement,
            TaskSource::Static(assignment?),
            &ExecConfig {
                io: self.cluster.io,
                replica_choice: ReplicaChoice::PreferLocalRandom,
                seed: self.cluster.seed ^ 0xE1,
                ..Default::default()
            },
            instrument,
            planning_seconds,
        ))
    }
}

// ---------------------------------------------------------------------------
// Dynamic access (Section V-A3)
// ---------------------------------------------------------------------------

/// The Section V-A3 experiment: master/worker with irregular compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dynamic {
    /// Shared cluster parameters.
    pub cluster: ClusterSpec,
    /// Tasks per process.
    pub tasks_per_process: usize,
    /// Median per-task compute seconds.
    pub compute_median: f64,
    /// Log-normal sigma of compute times.
    pub compute_sigma: f64,
}

impl Default for Dynamic {
    fn default() -> Self {
        Dynamic {
            cluster: ClusterSpec::default().with_seed(0xD1A),
            tasks_per_process: 10,
            compute_median: 0.5,
            compute_sigma: 1.0,
        }
    }
}

impl Dynamic {
    /// The cluster, workload and process placement every strategy of this
    /// experiment runs on.
    pub fn build(&self) -> (Namenode, Workload, ProcessPlacement) {
        let mut nn = self.cluster.namenode();
        let mut rng = StdRng::seed_from_u64(self.cluster.seed);
        let cfg = DynamicConfig {
            n_tasks: self.cluster.n_nodes * self.tasks_per_process,
            chunk_size: self.cluster.chunk_size,
            compute_median: self.compute_median,
            compute_sigma: self.compute_sigma,
        };
        let (_, workload) = dyn_wl::generate(&mut nn, &cfg, &Placement::Random, &mut rng);
        let placement = ProcessPlacement::one_per_node(self.cluster.n_nodes);
        (nn, workload, placement)
    }
}

impl Experiment for Dynamic {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn strategies(&self) -> Vec<Strategy> {
        vec![
            Strategy::Fifo,
            Strategy::DelayScheduling { max_skips: 16 },
            Strategy::OpassGuided,
        ]
    }

    fn run_with(
        &self,
        strategy: Strategy,
        instrument: bool,
    ) -> Result<ExperimentRun, UnsupportedStrategy> {
        let (nn, workload, placement) = self.build();
        let seed = self.cluster.seed;
        let (source, planning_seconds) = time_planning(|| {
            Ok(match strategy {
                Strategy::Fifo => TaskSource::Dynamic(Box::new(
                    opass_matching::FifoScheduler::new(workload.len()),
                )),
                Strategy::DelayScheduling { max_skips } => {
                    let values = crate::builder::build_matching_values(&nn, &workload, &placement);
                    TaskSource::Dynamic(Box::new(opass_matching::DelayScheduler::new(
                        workload.len(),
                        values,
                        max_skips,
                    )))
                }
                // `opass` means "the paper's method" everywhere; here that is
                // the guided scheduler.
                Strategy::OpassGuided | Strategy::Opass => {
                    let sched = OpassPlanner::default()
                        .plan(&PlanRequest::dynamic(&nn, &workload, &placement).seed(seed ^ 0x6D))
                        .into_dynamic()
                        .expect("guided scheduler");
                    TaskSource::Dynamic(Box::new(sched))
                }
                other => return Err(unsupported(self.name(), other, self.strategies())),
            })
        });
        Ok(run_planned(
            &nn,
            &workload,
            &placement,
            source?,
            &ExecConfig {
                io: self.cluster.io,
                replica_choice: ReplicaChoice::PreferLocalRandom,
                seed: seed ^ 0xE2,
                ..Default::default()
            },
            instrument,
            planning_seconds,
        ))
    }
}

// ---------------------------------------------------------------------------
// ParaView (Section V-B)
// ---------------------------------------------------------------------------

/// The Section V-B experiment: multi-block rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParaView {
    /// Shared cluster parameters (`chunk_size` is unused — the workload's
    /// `block_size` governs).
    pub cluster: ClusterSpec,
    /// Workload shape (library size, blocks per step, steps, block size,
    /// render delay).
    pub workload: ParaViewConfig,
}

impl Default for ParaView {
    fn default() -> Self {
        ParaView {
            cluster: ClusterSpec::default().with_seed(0x9A7A),
            workload: ParaViewConfig::default(),
        }
    }
}

impl Experiment for ParaView {
    fn name(&self) -> &'static str {
        "paraview"
    }

    fn strategies(&self) -> Vec<Strategy> {
        vec![Strategy::RankInterval, Strategy::Opass]
    }

    fn run_with(
        &self,
        strategy: Strategy,
        instrument: bool,
    ) -> Result<ExperimentRun, UnsupportedStrategy> {
        if !matches!(strategy, Strategy::RankInterval | Strategy::Opass) {
            return Err(unsupported(self.name(), strategy, self.strategies()));
        }
        let seed = self.cluster.seed;
        let mut nn = self.cluster.namenode();
        let mut rng = StdRng::seed_from_u64(seed);
        let run = pv_wl::generate(&mut nn, &self.workload, &Placement::Random, &mut rng);
        let placement = ProcessPlacement::one_per_node(self.cluster.n_nodes);

        let mut combined: Option<RunResult> = None;
        let mut step_makespans = Vec::with_capacity(run.steps.len());
        let mut planning_seconds = 0.0;
        // The vtk reader overhead rides on the per-read latency: it delays
        // every block read without consuming disk or network bandwidth.
        let mut io = self.cluster.io;
        io.local_latency += self.workload.reader_overhead_seconds;
        io.remote_latency += self.workload.reader_overhead_seconds;
        let mut config = ExecConfig {
            io,
            replica_choice: ReplicaChoice::PreferLocalRandom,
            ..Default::default()
        };
        for (i, step) in run.steps.iter().enumerate() {
            let (assignment, seconds) = time_planning(|| match strategy {
                Strategy::RankInterval => baseline::rank_interval(step.len(), self.cluster.n_nodes),
                _ => {
                    OpassPlanner::default()
                        .plan(&PlanRequest::single(&nn, step, &placement).seed(seed ^ (i as u64)))
                        .into_single()
                        .expect("single plan")
                        .assignment
                }
            });
            planning_seconds += seconds;
            config.seed = seed ^ 0xE3 ^ (i as u64) << 8;
            let source = TaskSource::Static(assignment);
            let result = run_phase(&nn, step, &placement, source, &config, instrument);
            step_makespans.push(result.makespan);
            match combined.as_mut() {
                None => combined = Some(result),
                Some(acc) => acc.chain(result),
            }
        }
        let combined = combined.expect("at least one step");
        Ok(finish(combined, planning_seconds, step_makespans, &config))
    }
}

// ---------------------------------------------------------------------------
// Racked clusters (extension)
// ---------------------------------------------------------------------------

/// The rack-locality extension experiment: a racked cluster with
/// oversubscribed uplinks, HDFS rack-aware placement, and rack-preferring
/// clients. Not in the paper (Marmot is single-switch); demonstrates that
/// the matching framework extends to hierarchical locality. To make the
/// second tier load-bearing, the last `late_per_rack` nodes of every rack
/// join *after* the dataset is written — they hold no data, so their quota
/// must be placed rack-locally (or shipped cross-rack by the baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Racked {
    /// Shared cluster parameters.
    pub cluster: ClusterSpec,
    /// Nodes per rack.
    pub nodes_per_rack: usize,
    /// Empty late-joining nodes per rack (hold no data).
    pub late_per_rack: usize,
    /// Rack uplink bandwidth per direction, bytes/second.
    pub uplink_bandwidth: f64,
    /// Chunks per process.
    pub chunks_per_process: usize,
}

impl Default for Racked {
    fn default() -> Self {
        Racked {
            cluster: ClusterSpec::default().with_seed(0x4ACC),
            nodes_per_rack: 8,
            late_per_rack: 2,
            // 8 nodes x 117 MB/s behind a ~468 MB/s uplink: 2:1
            // oversubscription.
            uplink_bandwidth: 4.0 * 117.0 * 1024.0 * 1024.0,
            chunks_per_process: 10,
        }
    }
}

impl Racked {
    /// Nodes that held data at write time (the first
    /// `nodes_per_rack - late_per_rack` of every rack).
    fn storage_nodes(&self) -> Vec<opass_dfs::NodeId> {
        (0..self.cluster.n_nodes)
            .filter(|i| i % self.nodes_per_rack < self.nodes_per_rack - self.late_per_rack)
            .map(|i| opass_dfs::NodeId(i as u32))
            .collect()
    }

    /// How many nodes hold data at write time: the dataset's replicas
    /// must fit on that many distinct nodes. Needs `late_per_rack` below
    /// `nodes_per_rack`, as every run does.
    pub fn storage_node_count(&self) -> usize {
        let storage_per_rack = self.nodes_per_rack - self.late_per_rack;
        let (full_racks, last_rack) = (
            self.cluster.n_nodes / self.nodes_per_rack,
            self.cluster.n_nodes % self.nodes_per_rack,
        );
        full_racks * storage_per_rack + last_rack.min(storage_per_rack)
    }

    /// Fraction of reads in `result` that crossed a rack boundary.
    pub fn cross_rack_fraction(&self, result: &RunResult) -> f64 {
        if result.records.is_empty() {
            return 0.0;
        }
        let racks = RackMap::uniform(self.cluster.n_nodes, self.nodes_per_rack);
        let crossing = result
            .records
            .iter()
            .filter(|r| !racks.same_rack(r.source, r.reader))
            .count();
        crossing as f64 / result.records.len() as f64
    }
}

impl Experiment for Racked {
    fn name(&self) -> &'static str {
        "racked"
    }

    fn strategies(&self) -> Vec<Strategy> {
        vec![
            Strategy::RankInterval,
            Strategy::Opass,
            Strategy::OpassRackAware,
        ]
    }

    fn run_with(
        &self,
        strategy: Strategy,
        instrument: bool,
    ) -> Result<ExperimentRun, UnsupportedStrategy> {
        assert!(
            self.late_per_rack < self.nodes_per_rack,
            "a rack must keep at least one storage node"
        );
        let seed = self.cluster.seed;
        let racks = RackMap::uniform(self.cluster.n_nodes, self.nodes_per_rack);
        let mut nn = self.cluster.namenode();
        let mut rng = StdRng::seed_from_u64(seed);
        let n_chunks = self.cluster.n_nodes * self.chunks_per_process;
        // Rack-aware placement restricted to the storage nodes (the late
        // nodes join empty).
        let placement_policy = Placement::RackAware {
            racks: racks.clone(),
        };
        let storage = self.storage_nodes();
        let spec = opass_dfs::DatasetSpec::uniform("racked", n_chunks, self.cluster.chunk_size);
        let mut pool = Vec::new();
        let locations: Vec<opass_dfs::Replicas> = (0..n_chunks)
            .map(|i| {
                placement_policy.place(
                    i,
                    self.cluster.replication as usize,
                    &storage,
                    &mut rng,
                    &mut pool,
                )
            })
            .collect();
        let ds = nn.create_dataset_placed(&spec, locations);
        let workload = Workload::new(
            "racked",
            nn.dataset(ds)
                .expect("created")
                .chunks
                .iter()
                .map(|&c| opass_workloads::Task::single(c))
                .collect(),
        );
        let placement = ProcessPlacement::one_per_node(self.cluster.n_nodes);

        let (assignment, planning_seconds) = time_planning(|| {
            Ok(match strategy {
                Strategy::RankInterval => {
                    baseline::rank_interval(workload.len(), self.cluster.n_nodes)
                }
                // Node-level matching only (reads still prefer local, then
                // rack).
                Strategy::Opass => {
                    OpassPlanner::default()
                        .plan(&PlanRequest::single(&nn, &workload, &placement).seed(seed ^ 0x11))
                        .into_single()
                        .expect("single plan")
                        .assignment
                }
                Strategy::OpassRackAware => {
                    OpassPlanner::default()
                        .plan(
                            &PlanRequest::single(&nn, &workload, &placement)
                                .rack_aware(&racks)
                                .seed(seed ^ 0x12),
                        )
                        .into_two_tier()
                        .expect("two-tier outcome")
                        .assignment
                }
                other => return Err(unsupported(self.name(), other, self.strategies())),
            })
        });
        Ok(run_planned(
            &nn,
            &workload,
            &placement,
            TaskSource::Static(assignment?),
            &ExecConfig {
                io: self.cluster.io,
                topology: Topology::Racked {
                    nodes_per_rack: self.nodes_per_rack,
                    uplink_bandwidth: self.uplink_bandwidth,
                },
                replica_choice: ReplicaChoice::PreferLocalThenRack(racks),
                seed: seed ^ 0xE4,
                ..Default::default()
            },
            instrument,
            planning_seconds,
        ))
    }
}

// ---------------------------------------------------------------------------
// Heterogeneous clusters (extension)
// ---------------------------------------------------------------------------

/// The heterogeneous-cluster extension: a fraction of the nodes has slower
/// disks; weighted quotas give fast nodes proportionally more tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heterogeneous {
    /// Shared cluster parameters (`io` is the fast-node baseline).
    pub cluster: ClusterSpec,
    /// Every `slow_every`-th node runs its disk at `slow_factor` speed.
    pub slow_every: usize,
    /// Disk speed multiplier of slow nodes (e.g. 0.5).
    pub slow_factor: f64,
    /// Chunks per process.
    pub chunks_per_process: usize,
}

impl Default for Heterogeneous {
    fn default() -> Self {
        Heterogeneous {
            cluster: ClusterSpec {
                n_nodes: 32,
                seed: 0x4E7,
                ..Default::default()
            },
            slow_every: 2,
            slow_factor: 0.5,
            chunks_per_process: 10,
        }
    }
}

impl Heterogeneous {
    /// Per-node disk speed factors.
    pub fn disk_factors(&self) -> Vec<f64> {
        (0..self.cluster.n_nodes)
            .map(|i| {
                if self.slow_every > 0 && i % self.slow_every == 0 {
                    self.slow_factor
                } else {
                    1.0
                }
            })
            .collect()
    }
}

impl Experiment for Heterogeneous {
    fn name(&self) -> &'static str {
        "heterogeneous"
    }

    fn strategies(&self) -> Vec<Strategy> {
        vec![Strategy::Opass, Strategy::OpassWeighted]
    }

    fn run_with(
        &self,
        strategy: Strategy,
        instrument: bool,
    ) -> Result<ExperimentRun, UnsupportedStrategy> {
        let seed = self.cluster.seed;
        let mut nn = self.cluster.namenode();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SingleDataConfig {
            n_procs: self.cluster.n_nodes,
            chunks_per_process: self.chunks_per_process,
            chunk_size: self.cluster.chunk_size,
        };
        let (_, workload) = single_wl::generate(&mut nn, &cfg, &Placement::Random, &mut rng);
        let placement = ProcessPlacement::one_per_node(self.cluster.n_nodes);
        let factors = self.disk_factors();

        let (assignment, planning_seconds) = time_planning(|| {
            Ok(match strategy {
                // Uniform quotas — the paper's homogeneity assumption.
                Strategy::Opass => {
                    OpassPlanner::default()
                        .plan(&PlanRequest::single(&nn, &workload, &placement).seed(seed ^ 0x21))
                        .into_single()
                        .expect("single plan")
                        .assignment
                }
                Strategy::OpassWeighted => {
                    OpassPlanner::default()
                        .plan(
                            &PlanRequest::single(&nn, &workload, &placement)
                                .weighted(&factors)
                                .seed(seed ^ 0x22),
                        )
                        .into_single()
                        .expect("single plan")
                        .assignment
                }
                other => return Err(unsupported(self.name(), other, self.strategies())),
            })
        });
        Ok(run_planned(
            &nn,
            &workload,
            &placement,
            TaskSource::Static(assignment?),
            &ExecConfig {
                io: self.cluster.io,
                disk_factors: Some(factors),
                replica_choice: ReplicaChoice::PreferLocalRandom,
                seed: seed ^ 0xE5,
                ..Default::default()
            },
            instrument,
            planning_seconds,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(n_nodes: usize, chunks_per_process: usize) -> SingleData {
        SingleData {
            cluster: ClusterSpec {
                n_nodes,
                ..Default::default()
            },
            chunks_per_process,
        }
    }

    #[test]
    fn single_data_opass_beats_baseline() {
        let exp = single(16, 4);
        let base = exp.run(Strategy::RankInterval).unwrap();
        let opass = exp.run(Strategy::Opass).unwrap();
        assert_eq!(base.result.records.len(), 64);
        assert_eq!(opass.result.records.len(), 64);
        assert!(
            opass.result.local_fraction() > 0.9,
            "opass locality {}",
            opass.result.local_fraction()
        );
        assert!(base.result.local_fraction() < 0.5);
        assert!(opass.result.io_summary().mean < base.result.io_summary().mean);
        assert!(opass.result.makespan < base.result.makespan);
    }

    #[test]
    fn same_seed_same_layout_across_strategies() {
        let exp = single(8, 2);
        // Identical served-bytes *totals* (same data volume) even though
        // distribution differs.
        let a = exp.run(Strategy::RankInterval).unwrap();
        let b = exp.run(Strategy::Opass).unwrap();
        let ta: u64 = a.result.served_bytes.iter().sum();
        let tb: u64 = b.result.served_bytes.iter().sum();
        assert_eq!(ta, tb);
    }

    #[test]
    fn unsupported_strategy_is_rejected_with_the_supported_list() {
        let exp = single(8, 2);
        let err = exp.run(Strategy::Fifo).unwrap_err();
        assert_eq!(err.experiment, "single_data");
        assert_eq!(err.strategy, Strategy::Fifo);
        assert_eq!(err.supported, exp.strategies());
        assert!(err.to_string().contains("fifo"));
        assert!(err.to_string().contains("rank_interval"));
    }

    #[test]
    fn compare_runs_every_supported_strategy() {
        let exp = single(8, 2);
        let runs = exp.compare();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].0, Strategy::RankInterval);
        assert_eq!(runs[2].0, Strategy::Opass);
        for (_, run) in &runs {
            assert_eq!(run.result.records.len(), 16);
        }
    }

    #[test]
    fn instrumented_run_attaches_metrics_and_plain_run_does_not() {
        let exp = single(8, 2);
        let plain = exp.run(Strategy::Opass).unwrap();
        let inst = exp.run_instrumented(Strategy::Opass).unwrap();
        assert!(plain.metrics.is_none() && plain.result.events.is_none());
        let metrics = inst
            .metrics
            .as_ref()
            .expect("instrumented run carries metrics");
        assert_eq!(metrics.counters.reads, 16);
        assert_eq!(
            Some(metrics.events),
            inst.result.events.as_ref().map(Vec::len)
        );
        assert_eq!(metrics.planning_seconds, inst.planning_seconds);
        // Instrumentation is observational: the trace is identical.
        assert_eq!(plain.result.records, inst.result.records);
        assert_eq!(plain.result.makespan, inst.result.makespan);
    }

    #[test]
    fn multi_data_opass_improves_but_less_than_single() {
        let exp = MultiData {
            cluster: ClusterSpec {
                n_nodes: 16,
                ..MultiData::default().cluster
            },
            tasks_per_process: 4,
            ..Default::default()
        };
        let base = exp.run(Strategy::RankInterval).unwrap();
        let opass = exp.run(Strategy::Opass).unwrap();
        assert!(opass.result.local_byte_fraction() > base.result.local_byte_fraction());
        // Multi-input locality is partial by nature (paper Section V-A2).
        assert!(opass.result.local_byte_fraction() < 1.0);
    }

    #[test]
    fn dynamic_guided_beats_fifo_and_opass_normalizes_to_guided() {
        let exp = Dynamic {
            cluster: ClusterSpec {
                n_nodes: 16,
                ..Dynamic::default().cluster
            },
            tasks_per_process: 4,
            compute_median: 0.2,
            ..Default::default()
        };
        let fifo = exp.run(Strategy::Fifo).unwrap();
        let guided = exp.run(Strategy::OpassGuided).unwrap();
        assert_eq!(fifo.result.records.len(), 64);
        assert_eq!(guided.result.records.len(), 64);
        assert!(guided.result.local_fraction() > fifo.result.local_fraction());
        assert!(guided.result.io_summary().mean < fifo.result.io_summary().mean);
        // `opass` is accepted as an alias for the guided scheduler.
        let aliased = exp.run(Strategy::Opass).unwrap();
        assert_eq!(aliased.result.records, guided.result.records);
    }

    #[test]
    fn delay_scheduling_sits_between_fifo_and_guided() {
        let exp = Dynamic {
            cluster: ClusterSpec {
                n_nodes: 16,
                ..Dynamic::default().cluster
            },
            tasks_per_process: 4,
            compute_median: 0.2,
            ..Default::default()
        };
        let fifo = exp.run(Strategy::Fifo).unwrap();
        let delay = exp
            .run(Strategy::DelayScheduling { max_skips: 16 })
            .unwrap();
        let guided = exp.run(Strategy::OpassGuided).unwrap();
        assert!(delay.result.local_fraction() > fifo.result.local_fraction());
        assert!(guided.result.local_fraction() >= delay.result.local_fraction() - 0.05);
    }

    #[test]
    fn racked_rack_aware_reduces_cross_rack_traffic() {
        let exp = Racked {
            cluster: ClusterSpec {
                n_nodes: 16,
                ..Racked::default().cluster
            },
            nodes_per_rack: 4,
            chunks_per_process: 4,
            ..Default::default()
        };
        let base = exp.run(Strategy::RankInterval).unwrap();
        let node_only = exp.run(Strategy::Opass).unwrap();
        let rack_aware = exp.run(Strategy::OpassRackAware).unwrap();
        let xb = exp.cross_rack_fraction(&base.result);
        let xn = exp.cross_rack_fraction(&node_only.result);
        let xr = exp.cross_rack_fraction(&rack_aware.result);
        assert!(xr <= xn + 1e-9, "rack-aware {xr} vs node-only {xn}");
        assert!(xr < xb, "rack-aware {xr} vs baseline {xb}");
        assert!(rack_aware.result.io_summary().mean <= base.result.io_summary().mean);
    }

    #[test]
    fn hetero_weighted_quotas_shift_load_to_fast_nodes() {
        let exp = Heterogeneous {
            cluster: ClusterSpec {
                n_nodes: 16,
                ..Heterogeneous::default().cluster
            },
            chunks_per_process: 6,
            ..Default::default()
        };
        let uniform = exp.run(Strategy::Opass).unwrap();
        let weighted = exp.run(Strategy::OpassWeighted).unwrap();
        // Weighted quotas should cut the makespan: slow disks hold fewer
        // chunks to stream.
        assert!(
            weighted.result.makespan < uniform.result.makespan,
            "weighted {} vs uniform {}",
            weighted.result.makespan,
            uniform.result.makespan
        );
    }

    #[test]
    fn paraview_runs_all_steps() {
        let exp = ParaView {
            cluster: ClusterSpec {
                n_nodes: 8,
                ..ParaView::default().cluster
            },
            workload: ParaViewConfig {
                library_size: 32,
                blocks_per_step: 8,
                n_steps: 3,
                block_size: 56 << 20,
                render_seconds_per_block: 0.1,
                reader_overhead_seconds: 0.0,
            },
        };
        let base = exp.run(Strategy::RankInterval).unwrap();
        let opass = exp.run(Strategy::Opass).unwrap();
        assert_eq!(base.step_makespans.len(), 3);
        assert_eq!(base.result.records.len(), 24);
        assert!(opass.result.makespan < base.result.makespan);
        assert!((base.result.makespan - base.step_makespans.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn paraview_instrumented_covers_every_step() {
        let exp = ParaView {
            cluster: ClusterSpec {
                n_nodes: 8,
                ..ParaView::default().cluster
            },
            workload: ParaViewConfig {
                library_size: 32,
                blocks_per_step: 8,
                n_steps: 3,
                block_size: 56 << 20,
                render_seconds_per_block: 0.1,
                reader_overhead_seconds: 0.0,
            },
        };
        let plain = exp.run(Strategy::Opass).unwrap();
        let inst = exp.run_instrumented(Strategy::Opass).unwrap();
        assert_eq!(plain.result.records, inst.result.records);
        let metrics = inst.metrics.as_ref().expect("metrics attached");
        // All three steps' reads are counted, on the chained timeline.
        assert_eq!(metrics.counters.reads, 24);
        let events = inst.result.events.as_ref().expect("events recorded");
        let last_event_at = events.iter().map(|e| e.at()).fold(0.0f64, f64::max);
        assert!(last_event_at > inst.step_makespans[0]);
        assert!(last_event_at <= inst.result.makespan + 1e-9);
    }

    #[test]
    fn strategy_parse_round_trips_and_accepts_aliases() {
        for s in [
            Strategy::RankInterval,
            Strategy::RandomAssign,
            Strategy::Opass,
            Strategy::OpassRackAware,
            Strategy::OpassWeighted,
            Strategy::Fifo,
            Strategy::DelayScheduling { max_skips: 9 },
            Strategy::OpassGuided,
        ] {
            assert_eq!(Strategy::parse(&s.label()), Some(s), "{}", s.label());
        }
        assert_eq!(Strategy::parse("baseline"), Some(Strategy::RankInterval));
        assert_eq!(Strategy::parse("default"), Some(Strategy::RankInterval));
        assert_eq!(Strategy::parse("node_only"), Some(Strategy::Opass));
        assert_eq!(Strategy::parse("uniform"), Some(Strategy::Opass));
        assert_eq!(Strategy::parse("guided"), Some(Strategy::OpassGuided));
        assert_eq!(Strategy::parse("delay:nope"), None);
        assert_eq!(Strategy::parse("nonsense"), None);
    }

    #[test]
    fn racked_storage_count_is_the_storage_nodes_a_run_places_on() {
        for n_nodes in 0..40 {
            for nodes_per_rack in 1..10 {
                for late_per_rack in 0..nodes_per_rack {
                    let exp = Racked {
                        cluster: ClusterSpec {
                            n_nodes,
                            ..Racked::default().cluster
                        },
                        nodes_per_rack,
                        late_per_rack,
                        ..Racked::default()
                    };
                    assert_eq!(
                        exp.storage_node_count(),
                        exp.storage_nodes().len(),
                        "{n_nodes} nodes, racks of {nodes_per_rack}, {late_per_rack} late"
                    );
                }
            }
        }
    }
}
