//! `sim_sweep` — the simulator: `runtime::exec::execute` driving the
//! `simio` engine over the paper's single-data, multi-data and dynamic
//! scenarios at 128 nodes (Marmot scale) and 1024 nodes, under every
//! strategy.
//!
//! Planning is this workload's *set-up*, on purpose: the timed op is one
//! simulated execution of an already planned run, so the numbers guard
//! the engine and executor alone. Simulated results must not move at
//! all: every run's makespan and served bytes are compared bit for bit
//! with the first run of the same tuple.

use crate::harness::{Fnv, RoundOut, Tracer, Workload};
use opass_core::dfs::{DfsConfig, Namenode, Placement, ReplicaChoice};
use opass_core::matching::{
    Assignment, DelayScheduler, FifoScheduler, GuidedScheduler, MatchingValues,
};
use opass_core::runtime::baseline::{random_assignment, rank_interval};
use opass_core::runtime::{execute, ExecConfig, ProcessPlacement, RunResult, TaskSource};
use opass_core::workloads::{
    dynamic as dyn_wl, multi as multi_wl, single as single_wl, DynamicConfig, MultiDataConfig,
    SingleDataConfig, Workload as TaskSet,
};
use opass_core::{build_matching_values, OpassPlanner, PlanRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The two cluster sizes and how often a round runs each size's tuples,
/// so that the median op is a Marmot-scale run and the 90th percentile a
/// 1024-node run.
const SCALES: [(usize, usize); 2] = [(MARMOT_NODES, 3), (1024, 1)];
/// The paper's testbed size.
pub const MARMOT_NODES: usize = 128;
/// Chunks (tasks) per process, as in the paper's evaluation.
pub const PER_PROCESS: usize = 10;
/// Multi-data tasks per process at 1024 nodes. Algorithm 1 plans in time
/// quadratic in the task count (2.3 s at 10 240 tasks on the reference
/// host); that is set-up here, not timed work, so the large scale runs
/// fewer, equally shaped tasks.
const MULTI_PER_PROCESS_LARGE: usize = 2;
const CHUNK: u64 = 64 << 20;
const DELAY_SKIPS: usize = 16;

/// Where a tuple's tasks come from; rebuilt for every execution because
/// `execute` consumes its source.
enum Source {
    Static(Assignment),
    Fifo,
    Delay(MatchingValues),
    Guided(GuidedScheduler),
}

/// One `(Namenode, Workload, ProcessPlacement, TaskSource)` tuple.
struct Tuple {
    label: String,
    /// Index into [`SimSweep::scenes`].
    scene: usize,
    source: Source,
    /// Whether the source is an Opass plan (counts toward `local_frac`).
    opass: bool,
    config: ExecConfig,
    /// Fingerprint and locality of the tuple's first execution.
    first: Option<(u64, u64, u64)>,
}

/// One scenario at one scale.
struct Scene {
    namenode: Namenode,
    tasks: TaskSet,
    placement: ProcessPlacement,
}

/// The prepared workload.
pub struct SimSweep {
    scenes: Vec<Scene>,
    tuples: Vec<Tuple>,
    /// The round: tuple indices in execution order.
    order: Vec<usize>,
}

fn fingerprint(result: &RunResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(result.makespan.to_bits());
    for &b in &result.served_bytes {
        h.u64(b);
    }
    h.u64(result.records.len() as u64);
    h.0
}

impl SimSweep {
    /// Set-up: generate every scenario's dataset and task set from
    /// `seed` and plan it under every strategy — `dfs`, `workloads` and
    /// planner work.
    pub fn prepare(seed: u64) -> SimSweep {
        let planner = OpassPlanner::default();
        let mut scenes = Vec::new();
        let mut tuples = Vec::new();
        let mut order = Vec::new();
        for (n_nodes, repeats) in SCALES {
            let first_tuple = tuples.len();
            let mut rng = StdRng::seed_from_u64(seed ^ n_nodes as u64);
            let placement = ProcessPlacement::one_per_node(n_nodes);
            let n_tasks = n_nodes * PER_PROCESS;
            let exec = |salt: u64| ExecConfig {
                replica_choice: ReplicaChoice::PreferLocalRandom,
                seed: seed ^ salt,
                ..ExecConfig::default()
            };
            let mut tuple = |scene: usize, name: &str, source: Source, opass: bool, salt: u64| {
                tuples.push(Tuple {
                    label: format!("{name}@{n_nodes}"),
                    scene,
                    source,
                    opass,
                    config: exec(salt),
                    first: None,
                });
            };

            // Single-data: rank-interval and random baselines, Opass.
            let mut nn = Namenode::new(n_nodes, DfsConfig::default());
            let (_, tasks) = single_wl::generate(
                &mut nn,
                &SingleDataConfig {
                    n_procs: n_nodes,
                    chunks_per_process: PER_PROCESS,
                    chunk_size: CHUNK,
                },
                &Placement::Random,
                &mut rng,
            );
            let scene = scenes.len();
            tuple(
                scene,
                "single/rank",
                Source::Static(rank_interval(n_tasks, n_nodes)),
                false,
                0xE0,
            );
            tuple(
                scene,
                "single/random",
                Source::Static(random_assignment(n_tasks, n_nodes, &mut rng)),
                false,
                0xE0,
            );
            let plan = planner
                .plan(&PlanRequest::single(&nn, &tasks, &placement).seed(seed))
                .into_single()
                .expect("single request yields a single plan");
            tuple(
                scene,
                "single/opass",
                Source::Static(plan.assignment),
                true,
                0xE0,
            );
            scenes.push(Scene {
                namenode: nn,
                tasks,
                placement: placement.clone(),
            });

            // Multi-data: rank-interval baseline, Opass (Algorithm 1).
            let mut nn = Namenode::new(n_nodes, DfsConfig::default());
            let n_multi = if n_nodes == MARMOT_NODES {
                n_tasks
            } else {
                n_nodes * MULTI_PER_PROCESS_LARGE
            };
            let (_, tasks) = multi_wl::generate(
                &mut nn,
                &MultiDataConfig {
                    n_tasks: n_multi,
                    input_sizes: vec![30 << 20, 20 << 20, 10 << 20],
                },
                &Placement::Random,
                &mut rng,
            );
            let scene = scenes.len();
            tuple(
                scene,
                "multi/rank",
                Source::Static(rank_interval(n_multi, n_nodes)),
                false,
                0xE1,
            );
            let plan = planner
                .plan(&PlanRequest::multi(&nn, &tasks, &placement))
                .into_multi()
                .expect("multi request yields a multi plan");
            tuple(
                scene,
                "multi/opass",
                Source::Static(plan.assignment),
                true,
                0xE1,
            );
            scenes.push(Scene {
                namenode: nn,
                tasks,
                placement: placement.clone(),
            });

            // Dynamic: FIFO and delay-scheduling baselines, guided lists.
            let mut nn = Namenode::new(n_nodes, DfsConfig::default());
            let (_, tasks) = dyn_wl::generate(
                &mut nn,
                &DynamicConfig {
                    n_tasks,
                    chunk_size: CHUNK,
                    ..DynamicConfig::default()
                },
                &Placement::Random,
                &mut rng,
            );
            let scene = scenes.len();
            tuple(scene, "dynamic/fifo", Source::Fifo, false, 0xE2);
            let values = build_matching_values(&nn, &tasks, &placement);
            tuple(scene, "dynamic/delay", Source::Delay(values), false, 0xE2);
            let guided = planner
                .plan(&PlanRequest::dynamic(&nn, &tasks, &placement).seed(seed))
                .into_dynamic()
                .expect("dynamic request yields guided lists");
            tuple(scene, "dynamic/guided", Source::Guided(guided), true, 0xE2);
            scenes.push(Scene {
                namenode: nn,
                tasks,
                placement,
            });

            for _ in 0..repeats {
                order.extend(first_tuple..tuples.len());
            }
        }
        SimSweep {
            scenes,
            tuples,
            order,
        }
    }

    /// Hash of everything `prepare` generated and planned from the seed.
    pub fn input_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for scene in &self.scenes {
            for chunk in scene.namenode.chunks() {
                for n in &chunk.locations {
                    h.u64(u64::from(n.0));
                }
            }
        }
        for t in &self.tuples {
            if let Source::Static(a) = &t.source {
                for &o in a.owners() {
                    h.u64(o as u64);
                }
            }
        }
        h.0
    }
}

impl Workload for SimSweep {
    fn warm_up(&mut self, _tr: &mut Tracer) {}

    fn round(&mut self, tr: &mut Tracer, out: &mut RoundOut) {
        for &i in &self.order {
            let tuple = &mut self.tuples[i];
            let scene = &self.scenes[tuple.scene];
            let source = match &tuple.source {
                Source::Static(a) => TaskSource::Static(a.clone()),
                Source::Fifo => {
                    TaskSource::Dynamic(Box::new(FifoScheduler::new(scene.tasks.len())))
                }
                Source::Delay(values) => TaskSource::Dynamic(Box::new(DelayScheduler::new(
                    scene.tasks.len(),
                    values.clone(),
                    DELAY_SKIPS,
                ))),
                Source::Guided(g) => TaskSource::Dynamic(Box::new(g.clone())),
            };
            tr.next_request();
            let t0 = out.start();
            let result = tr.span("runtime.execute", || {
                black_box(execute(
                    &scene.namenode,
                    &scene.tasks,
                    &scene.placement,
                    source,
                    &tuple.config,
                ))
            });
            out.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let got = fingerprint(&result);
            let ok = match tuple.first {
                Some((first, _, _)) => first == got,
                None => {
                    let total: u64 = result.records.iter().map(|r| r.bytes).sum();
                    let local: u64 = result
                        .records
                        .iter()
                        .filter(|r| r.is_local())
                        .map(|r| r.bytes)
                        .sum();
                    tuple.first = Some((got, local, total));
                    true
                }
            };
            if !ok {
                eprintln!("{}: simulated result moved between rounds", tuple.label);
            }
            out.done(result.records.len() as u64, ok);
        }
    }

    fn locality(&self) -> (u64, u64) {
        // Bytes the simulated readers got locally under the Opass
        // sources, once per round entry.
        self.order
            .iter()
            .map(|&i| &self.tuples[i])
            .filter(|t| t.opass)
            .fold((0, 0), |(l, t), tuple| {
                let (_, local, total) = tuple.first.expect("every tuple ran in warm-up");
                (l + local, t + total)
            })
    }

    fn finish(self: Box<Self>, _tr: &mut Tracer) {}
}
