//! The parallel execution engine.
//!
//! Drives a [`Workload`] through the simulated cluster: every process is a
//! little state machine (fetch task → read inputs sequentially → compute →
//! repeat), and the whole ensemble advances on the I/O simulator's event
//! loop. Both of the paper's execution styles run through the same engine:
//!
//! * **static** (SPMD / ParaView): each process owns a pre-computed task
//!   list — either the rank-interval baseline or an Opass matching;
//! * **dynamic** (master/worker / mpiBLAST): an idle process asks a
//!   [`DynamicScheduler`] for its next task.

use crate::metrics::RunMetrics;
use crate::placement::ProcessPlacement;
use crate::trace::{IoRecord, RunResult};
use opass_dfs::{Namenode, ReplicaChoice};
use opass_matching::{Assignment, DynamicScheduler, StealRecord};
use opass_simio::record::Recorder;
use opass_simio::{ClusterIo, EngineStats, Event, IoParams, MemoryRecorder, Topology, TraceEvent};
use opass_workloads::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Execution parameters.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Hardware calibration for the simulated cluster.
    pub io: IoParams,
    /// Network topology (flat single switch by default, as on Marmot).
    pub topology: Topology,
    /// Optional per-node disk speed factors (heterogeneous clusters). One
    /// entry per node; `None` means a uniform cluster.
    pub disk_factors: Option<Vec<f64>>,
    /// Read-time replica selection policy.
    pub replica_choice: ReplicaChoice,
    /// Seed for replica selection (and nothing else).
    pub seed: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            io: IoParams::marmot(),
            topology: Topology::Flat,
            disk_factors: None,
            replica_choice: ReplicaChoice::PreferLocalRandom,
            seed: 0,
        }
    }
}

/// Where processes get their tasks.
pub enum TaskSource {
    /// Pre-computed per-process lists (SPMD execution).
    Static(Assignment),
    /// A central scheduler consulted on idleness (master/worker).
    Dynamic(Box<dyn DynamicScheduler>),
}

enum SourceState {
    Static(Vec<VecDeque<usize>>),
    Dynamic(Box<dyn DynamicScheduler>),
}

impl SourceState {
    fn next_task(&mut self, proc: usize) -> Option<usize> {
        match self {
            SourceState::Static(queues) => queues[proc].pop_front(),
            SourceState::Dynamic(sched) => sched.next_task(proc),
        }
    }

    fn drain_steals(&mut self) -> Vec<StealRecord> {
        match self {
            SourceState::Static(_) => Vec::new(),
            SourceState::Dynamic(sched) => sched.drain_steals(),
        }
    }
}

/// Per-process execution cursor.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    task: usize,
    next_input: usize,
}

/// Metadata of the read a process is currently waiting on.
#[derive(Debug, Clone, Copy)]
struct Pending {
    task: usize,
    chunk: opass_dfs::ChunkId,
    source: opass_dfs::NodeId,
    bytes: u64,
    /// No replica on the reader's node: the read is forced remote (only
    /// computed when a recorder is installed).
    degraded: bool,
}

/// Executes `workload` on the simulated cluster and returns the full trace.
///
/// # Panics
///
/// Panics if a static assignment disagrees with the workload size, if the
/// placement references nodes outside the namenode, or if a task references
/// an unknown chunk — all programming errors upstream.
pub fn execute(
    namenode: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
    source: TaskSource,
    config: &ExecConfig,
) -> RunResult {
    execute_inner(namenode, workload, placement, source, config, None)
}

/// Like [`execute`] with a structured-event [`Recorder`] installed on the
/// simulator: the recorder sees the full interleaved stream (task
/// dispatch, read issue/finish with locality context, rate recomputes,
/// steal decisions). The returned result itself carries no derived
/// metrics — use [`execute_instrumented`] for that.
pub fn execute_with_recorder(
    namenode: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
    source: TaskSource,
    config: &ExecConfig,
    recorder: Box<dyn Recorder>,
) -> RunResult {
    execute_inner(
        namenode,
        workload,
        placement,
        source,
        config,
        Some(recorder),
    )
}

/// Like [`execute`], but records the run and attaches derived
/// [`RunMetrics`] (counters, per-node utilization time-series, served
/// histograms, and the raw event log) to [`RunResult::metrics`].
///
/// The simulated outcome (records, makespan, served bytes) is identical
/// to an uninstrumented [`execute`]: recording observes, never perturbs.
pub fn execute_instrumented(
    namenode: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
    source: TaskSource,
    config: &ExecConfig,
) -> RunResult {
    let log = MemoryRecorder::new();
    let mut result = execute_inner(
        namenode,
        workload,
        placement,
        source,
        config,
        Some(Box::new(log.clone())),
    );
    result.metrics = Some(Box::new(RunMetrics::from_run(
        &result,
        log.take_events(),
        namenode.node_count(),
        &config.io,
    )));
    result
}

fn execute_inner(
    namenode: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
    source: TaskSource,
    config: &ExecConfig,
    recorder: Option<Box<dyn Recorder>>,
) -> RunResult {
    let n_procs = placement.n_procs();
    assert!(n_procs > 0, "need at least one process");
    let n_nodes = namenode.node_count();
    for rank in 0..n_procs {
        assert!(
            placement.node_of(rank).index() < n_nodes,
            "rank {rank} placed on unknown node"
        );
    }

    let src = match source {
        TaskSource::Static(assignment) => {
            assert_eq!(
                assignment.n_tasks(),
                workload.len(),
                "assignment covers {} tasks, workload has {}",
                assignment.n_tasks(),
                workload.len()
            );
            assert_eq!(
                assignment.n_procs(),
                n_procs,
                "assignment process count mismatch"
            );
            SourceState::Static(
                (0..n_procs)
                    .map(|p| assignment.tasks_of(p).iter().copied().collect())
                    .collect(),
            )
        }
        TaskSource::Dynamic(sched) => SourceState::Dynamic(sched),
    };

    let mut cluster = match &config.disk_factors {
        None => ClusterIo::with_topology(n_nodes, config.io, config.topology),
        Some(factors) => {
            assert_eq!(factors.len(), n_nodes, "one disk factor per node");
            ClusterIo::with_disk_factors(config.io, config.topology, factors)
        }
    };
    if let Some(recorder) = recorder {
        cluster.set_recorder(recorder);
    }

    let mut engine = ExecEngine {
        cluster,
        src,
        rng: StdRng::seed_from_u64(config.seed),
        cursors: vec![None; n_procs],
        pending: vec![None; n_procs],
        records: Vec::with_capacity(workload.len()),
        served_bytes: vec![0u64; n_nodes],
        dispensed: 0,
        makespan: 0.0,
    };
    for proc in 0..n_procs {
        engine.advance(proc, workload, namenode, placement, &config.replica_choice);
    }
    engine.run(workload, namenode, placement, &config.replica_choice);

    assert_eq!(
        engine.dispensed,
        workload.len(),
        "executor must run every task exactly once"
    );
    RunResult {
        records: engine.records,
        makespan: engine.makespan,
        served_bytes: engine.served_bytes,
        metrics: None,
        engine: engine.cluster.engine_stats(),
    }
}

/// The executor's mutable state, bundled so the per-process step is a
/// method instead of a many-argument function.
struct ExecEngine {
    cluster: ClusterIo,
    src: SourceState,
    rng: StdRng,
    cursors: Vec<Option<Cursor>>,
    pending: Vec<Option<Pending>>,
    records: Vec<IoRecord>,
    served_bytes: Vec<u64>,
    dispensed: usize,
    makespan: f64,
}

impl ExecEngine {
    /// Issues the next read or compute phase for `proc`, pulling new tasks
    /// until one produces work or the source is exhausted.
    fn advance(
        &mut self,
        proc: usize,
        workload: &Workload,
        namenode: &Namenode,
        placement: &ProcessPlacement,
        replica_choice: &ReplicaChoice,
    ) {
        loop {
            let cursor = match self.cursors[proc] {
                Some(c) => c,
                None => {
                    let fetched = self.src.next_task(proc);
                    if self.cluster.recording() {
                        let at = self.cluster.now().as_secs();
                        for s in self.src.drain_steals() {
                            self.cluster.emit(TraceEvent::TaskStolen {
                                at,
                                thief: s.thief,
                                victim: s.victim,
                                task: s.task,
                            });
                        }
                        match fetched {
                            Some(task) => {
                                self.cluster
                                    .emit(TraceEvent::TaskStarted { at, proc, task })
                            }
                            None => self.cluster.emit(TraceEvent::ProcFinished { at, proc }),
                        }
                    }
                    match fetched {
                        Some(task) => {
                            self.dispensed += 1;
                            let c = Cursor {
                                task,
                                next_input: 0,
                            };
                            self.cursors[proc] = Some(c);
                            c
                        }
                        None => return, // no work anywhere: proc is done
                    }
                }
            };
            let task = &workload.tasks[cursor.task];
            if cursor.next_input < task.inputs.len() {
                let chunk = task.inputs[cursor.next_input];
                let reader = placement.node_of(proc);
                let locations = namenode
                    .locate(chunk)
                    .expect("workload references unknown chunk");
                let source = replica_choice.select(chunk, reader, locations, &mut self.rng);
                let bytes = namenode.chunk(chunk).expect("chunk exists").size;
                let degraded =
                    self.cluster.recording() && source != reader && !locations.contains(&reader);
                self.pending[proc] = Some(Pending {
                    task: cursor.task,
                    chunk,
                    source,
                    bytes,
                    degraded,
                });
                self.cluster
                    .start_read(reader.index(), source.index(), bytes, proc as u64);
                return;
            }
            // All inputs read: run the compute phase, then fetch new work.
            self.cursors[proc] = None;
            if task.compute_seconds > 0.0 {
                if self.cluster.recording() {
                    self.cluster.emit(TraceEvent::ComputeStarted {
                        at: self.cluster.now().as_secs(),
                        proc,
                        seconds: task.compute_seconds,
                    });
                }
                self.cluster
                    .start_compute(task.compute_seconds, proc as u64);
                return;
            }
        }
    }

    /// Drains the event loop to completion.
    fn run(
        &mut self,
        workload: &Workload,
        namenode: &Namenode,
        placement: &ProcessPlacement,
        replica_choice: &ReplicaChoice,
    ) {
        while let Some(event) = self.cluster.next_event() {
            match event {
                Event::FlowCompleted(c) => {
                    let proc = c.token as usize;
                    let p = self.pending[proc]
                        .take()
                        .expect("completion without pending read");
                    let reader = placement.node_of(proc);
                    self.records.push(IoRecord {
                        proc,
                        task: p.task,
                        chunk: p.chunk,
                        source: p.source,
                        reader,
                        bytes: p.bytes,
                        issued_at: c.issued_at.as_secs(),
                        completed_at: c.completed_at.as_secs(),
                    });
                    self.served_bytes[p.source.index()] += p.bytes;
                    self.makespan = self.makespan.max(c.completed_at.as_secs());
                    if self.cluster.recording() {
                        self.cluster.emit(TraceEvent::ReadFinished {
                            at: c.completed_at.as_secs(),
                            proc,
                            task: p.task,
                            chunk: p.chunk.0,
                            source: p.source.index(),
                            reader: reader.index(),
                            bytes: p.bytes,
                            local: p.source == reader,
                            degraded: p.degraded,
                        });
                    }
                    let cursor = self.cursors[proc]
                        .as_mut()
                        .expect("cursor present mid-task");
                    cursor.next_input += 1;
                    self.advance(proc, workload, namenode, placement, replica_choice);
                }
                Event::TimerFired { token, at } => {
                    let proc = token as usize;
                    self.makespan = self.makespan.max(at.as_secs());
                    self.advance(proc, workload, namenode, placement, replica_choice);
                }
            }
        }
    }
}

/// Executes `workload` bulk-synchronously: processes run their assigned
/// tasks in rounds with a global barrier after every round — the
/// strictest form of the synchronization the paper's Section II describes
/// ("processes can simultaneously issue a large number of data read
/// requests due to the synchronization requirement"). Round `k` runs the
/// `k`-th task of every process's list concurrently; nobody starts round
/// `k+1` until the slowest finishes.
///
/// Only meaningful for static assignments (a dynamic scheduler has no
/// notion of rounds).
///
/// # Panics
///
/// Same conditions as [`execute`].
pub fn execute_bulk_synchronous(
    namenode: &Namenode,
    workload: &Workload,
    placement: &ProcessPlacement,
    assignment: &Assignment,
    config: &ExecConfig,
) -> RunResult {
    assert_eq!(
        assignment.n_tasks(),
        workload.len(),
        "assignment size mismatch"
    );
    assert_eq!(
        assignment.n_procs(),
        placement.n_procs(),
        "proc count mismatch"
    );
    let rounds = (0..placement.n_procs())
        .map(|p| assignment.tasks_of(p).len())
        .max()
        .unwrap_or(0);

    let mut combined: Option<RunResult> = None;
    for round in 0..rounds {
        // The round's sub-workload: the k-th task of every process that
        // still has one. Owners are re-expressed against the sub-workload.
        let mut tasks = Vec::new();
        let mut owners = Vec::new();
        let mut original_ids = Vec::new();
        for p in 0..placement.n_procs() {
            if let Some(&t) = assignment.tasks_of(p).get(round) {
                original_ids.push(t);
                owners.push(p);
                tasks.push(workload.tasks[t].clone());
            }
        }
        let sub = Workload::new(format!("{}-round{round}", workload.name), tasks);
        let sub_assignment = Assignment::from_owners(owners, placement.n_procs());
        let round_config = ExecConfig {
            seed: config.seed ^ ((round as u64) << 16),
            ..config.clone()
        };
        let mut result = execute_inner(
            namenode,
            &sub,
            placement,
            TaskSource::Static(sub_assignment),
            &round_config,
            None,
        );
        // Restore global task ids in the trace.
        for r in &mut result.records {
            r.task = original_ids[r.task];
        }
        match combined.as_mut() {
            None => combined = Some(result),
            Some(acc) => acc.chain(result),
        }
    }
    combined.unwrap_or(RunResult {
        records: Vec::new(),
        makespan: 0.0,
        served_bytes: vec![0; namenode.node_count()],
        metrics: None,
        engine: EngineStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_dfs::{DatasetSpec, DfsConfig, Placement};
    use opass_matching::FifoScheduler;
    use opass_workloads::Task;

    fn setup(n_nodes: usize, n_chunks: usize) -> (Namenode, Workload) {
        let mut nn = Namenode::new(n_nodes, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(0xEC);
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("t", n_chunks, 64 << 20),
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
        (nn, Workload::new("test", tasks))
    }

    fn rank_interval_assignment(n_tasks: usize, n_procs: usize) -> Assignment {
        let owners = (0..n_tasks)
            .map(|t| t * n_procs / n_tasks.max(1))
            .map(|p| p.min(n_procs - 1))
            .collect();
        Assignment::from_owners(owners, n_procs)
    }

    #[test]
    fn static_run_reads_every_chunk_once() {
        let (nn, w) = setup(4, 8);
        let placement = ProcessPlacement::one_per_node(4);
        let assignment = rank_interval_assignment(8, 4);
        let result = execute(
            &nn,
            &w,
            &placement,
            TaskSource::Static(assignment),
            &ExecConfig::default(),
        );
        assert_eq!(result.records.len(), 8);
        let mut chunks: Vec<u64> = result.records.iter().map(|r| r.chunk.0).collect();
        chunks.sort_unstable();
        assert_eq!(chunks, (0..8).collect::<Vec<_>>());
        assert!(result.makespan > 0.0);
        // Served bytes must sum to the data volume.
        let total: u64 = result.served_bytes.iter().sum();
        assert_eq!(total, 8 * (64 << 20));
    }

    #[test]
    fn dynamic_run_completes_all_tasks() {
        let (nn, w) = setup(4, 12);
        let placement = ProcessPlacement::one_per_node(4);
        let result = execute(
            &nn,
            &w,
            &placement,
            TaskSource::Dynamic(Box::new(FifoScheduler::new(12))),
            &ExecConfig::default(),
        );
        assert_eq!(result.records.len(), 12);
    }

    #[test]
    fn compute_phases_extend_makespan() {
        let (nn, mut w) = setup(4, 4);
        let io_only = execute(
            &nn,
            &w,
            &ProcessPlacement::one_per_node(4),
            TaskSource::Static(rank_interval_assignment(4, 4)),
            &ExecConfig::default(),
        );
        for t in &mut w.tasks {
            t.compute_seconds = 5.0;
        }
        let with_compute = execute(
            &nn,
            &w,
            &ProcessPlacement::one_per_node(4),
            TaskSource::Static(rank_interval_assignment(4, 4)),
            &ExecConfig::default(),
        );
        assert!(with_compute.makespan >= io_only.makespan + 5.0 - 1e-9);
    }

    #[test]
    fn local_reads_are_marked_local() {
        // Place every chunk on node 0 (writer-local, r = 1 for clarity).
        let mut nn = Namenode::new(4, DfsConfig { replication: 1 });
        let mut rng = StdRng::seed_from_u64(1);
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("local", 3, 1 << 20),
            &Placement::WriterLocal {
                writer: opass_dfs::NodeId(0),
            },
            &mut rng,
        );
        let tasks = nn
            .dataset(ds)
            .unwrap()
            .chunks
            .iter()
            .map(|&c| Task::single(c))
            .collect();
        let w = Workload::new("local", tasks);
        // All tasks on proc 0 (which runs on node 0): fully local.
        let assignment = Assignment::from_owners(vec![0, 0, 0], 4);
        let result = execute(
            &nn,
            &w,
            &ProcessPlacement::one_per_node(4),
            TaskSource::Static(assignment),
            &ExecConfig::default(),
        );
        assert_eq!(result.local_fraction(), 1.0);
        assert_eq!(result.served_bytes[0], 3 << 20);
    }

    #[test]
    fn deterministic_replay() {
        let (nn, w) = setup(6, 18);
        let run = || {
            execute(
                &nn,
                &w,
                &ProcessPlacement::one_per_node(6),
                TaskSource::Static(rank_interval_assignment(18, 6)),
                &ExecConfig {
                    seed: 99,
                    ..Default::default()
                },
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multi_input_tasks_read_sequentially_per_process() {
        let mut nn = Namenode::new(4, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let a = nn.create_dataset(
            &DatasetSpec::uniform("a", 2, 1 << 20),
            &Placement::Random,
            &mut rng,
        );
        let b = nn.create_dataset(
            &DatasetSpec::uniform("b", 2, 2 << 20),
            &Placement::Random,
            &mut rng,
        );
        let ca = nn.dataset(a).unwrap().chunks.clone();
        let cb = nn.dataset(b).unwrap().chunks.clone();
        let w = Workload::new(
            "multi",
            vec![
                Task::multi(vec![ca[0], cb[0]]),
                Task::multi(vec![ca[1], cb[1]]),
            ],
        );
        let assignment = Assignment::from_owners(vec![0, 1], 4);
        let result = execute(
            &nn,
            &w,
            &ProcessPlacement::one_per_node(4),
            TaskSource::Static(assignment),
            &ExecConfig::default(),
        );
        assert_eq!(result.records.len(), 4);
        // Within a process, the second input must start after the first
        // finishes.
        for proc in 0..2 {
            let mine: Vec<&IoRecord> = result.records.iter().filter(|r| r.proc == proc).collect();
            assert_eq!(mine.len(), 2);
            assert!(mine[1].issued_at >= mine[0].completed_at - 1e-9);
        }
    }

    #[test]
    fn bulk_synchronous_runs_every_task_in_rounds() {
        let (nn, w) = setup(4, 12);
        let placement = ProcessPlacement::one_per_node(4);
        let assignment = rank_interval_assignment(12, 4);
        let result =
            execute_bulk_synchronous(&nn, &w, &placement, &assignment, &ExecConfig::default());
        assert_eq!(result.records.len(), 12);
        // Global task ids preserved.
        let mut tasks: Vec<usize> = result.records.iter().map(|r| r.task).collect();
        tasks.sort_unstable();
        assert_eq!(tasks, (0..12).collect::<Vec<_>>());
        // Served bytes conserved across the rounds.
        let total: u64 = result.served_bytes.iter().sum();
        assert_eq!(total, 12 * (64 << 20));
    }

    #[test]
    fn bulk_synchronous_barrier_ordering() {
        let (nn, w) = setup(3, 6);
        let placement = ProcessPlacement::one_per_node(3);
        let assignment = rank_interval_assignment(6, 3);
        let result =
            execute_bulk_synchronous(&nn, &w, &placement, &assignment, &ExecConfig::default());
        // The first 3 completions (round 0) all end before any round-1
        // read begins.
        let round0_end = result.records[..3]
            .iter()
            .map(|r| r.completed_at)
            .fold(0.0f64, f64::max);
        for r in &result.records[3..] {
            assert!(r.issued_at >= round0_end - 1e-9);
        }
    }

    #[test]
    fn bulk_synchronous_empty_workload() {
        let (nn, _) = setup(3, 3);
        let w = Workload::new("empty", vec![]);
        let assignment = Assignment::from_owners(vec![], 3);
        let result = execute_bulk_synchronous(
            &nn,
            &w,
            &ProcessPlacement::one_per_node(3),
            &assignment,
            &ExecConfig::default(),
        );
        assert!(result.records.is_empty());
        assert_eq!(result.makespan, 0.0);
    }

    #[test]
    #[should_panic(expected = "assignment covers")]
    fn rejects_mismatched_assignment() {
        let (nn, w) = setup(4, 8);
        let assignment = rank_interval_assignment(4, 4); // wrong size
        execute(
            &nn,
            &w,
            &ProcessPlacement::one_per_node(4),
            TaskSource::Static(assignment),
            &ExecConfig::default(),
        );
    }
}
