//! `plan_mix` — the in-process planner: the paper's three planners plus
//! incremental repair and the placement loop, on one 128-node cluster.
//!
//! No sockets, JSON, trace or simulator: `matching`, `core` and
//! `dfs::delta` do all the work, so this is the bypass workload for any
//! serve/trace/simio change. The round's counts (16 cold plans, 48
//! replans, one each of the rest) put the median op well inside the
//! `Session::replan` class and the 90th-percentile op inside the cold
//! single-data max-flow plans, three slower ops above it.

use crate::harness::{Fnv, RoundOut, Tracer, Workload};
use opass_core::dfs::{
    ChunkId, DatasetSpec, DfsConfig, LayoutDelta, LayoutSnapshot, Namenode, NodeId, Placement,
};
use opass_core::matching::GuidedScheduler;
use opass_core::matching::MatchingValues;
use opass_core::runtime::ProcessPlacement;
use opass_core::workloads::{
    dynamic as dyn_wl, multi as multi_wl, DynamicConfig, MultiDataConfig, Task, Workload as TaskSet,
};
use opass_core::{
    build_matching_values, capture_workload_layout, MultiDataPlan, OpassPlanner, PlacementConfig,
    PlacementSession, PlanRequest, Session, SingleDataPlan,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Cluster size (Marmot scale) and replication factor.
pub const NODES: usize = 128;
const REPLICATION: u32 = 3;
const CHUNK: u64 = 64 << 20;
/// Cold single-data plans per round, each with its own seed.
pub const COLD_PLANS: usize = 16;
/// Chunks of the dataset the cold plans run on.
pub const COLD_CHUNKS: usize = 8192;
/// Chunks of the dataset the session repairs.
pub const SESSION_CHUNKS: usize = 32_768;
/// `Session::replan` calls per round.
pub const REPLANS: usize = 48;
/// Share of the session's chunks each delta migrates a replica of.
const CHURN: f64 = 0.005;
/// Tasks of the multi-data and dynamic task sets (10 per process).
const TASKS: usize = 1280;
/// Chunks of the hot-spotted dataset, all replicas on [`HOT_NODES`] nodes.
const HOT_CHUNKS: usize = 1280;
const HOT_NODES: usize = 16;

/// The op classes of the round; the `core.*` per-layer metrics time one
/// each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// `plan(single_from_layout)`, cold.
    Single,
    /// `session()` start.
    SessionStart,
    /// `Session::replan`.
    Replan,
    /// `plan(multi)` — Algorithm 1.
    Multi,
    /// `plan(dynamic)` — guided lists.
    Dynamic,
    /// `placement_session` + `PlacementSession::run`.
    Place,
}

/// What the oracle recorded for one op of the round: the result's
/// fingerprint and the locality it achieved.
#[derive(Debug, Clone, Copy)]
struct Reference {
    class: Class,
    fingerprint: u64,
    local_bytes: u64,
    total_bytes: u64,
}

/// The prepared workload.
pub struct PlanMix {
    planner: OpassPlanner,
    placement: ProcessPlacement,
    pub namenode: Namenode,
    pub cold_layout: LayoutSnapshot,
    pub cold_seeds: [u64; COLD_PLANS],
    pub session_layout: LayoutSnapshot,
    session_seed: u64,
    pub deltas: Vec<LayoutDelta>,
    pub multi_tasks: TaskSet,
    pub dynamic_tasks: TaskSet,
    pub dynamic_values: MatchingValues,
    pub hot_layout: LayoutSnapshot,
    /// One entry per op of the round, in round order.
    reference: Vec<Reference>,
}

fn single_fingerprint(plan: &SingleDataPlan) -> u64 {
    let mut h = Fnv::default();
    for &o in plan.assignment.owners() {
        h.u64(o as u64);
    }
    h.u64(plan.matched_files as u64);
    h.u64(plan.filled_files as u64);
    h.0
}

fn multi_fingerprint(plan: &MultiDataPlan) -> u64 {
    let mut h = Fnv::default();
    for &o in plan.assignment.owners() {
        h.u64(o as u64);
    }
    h.u64(plan.matched_bytes);
    h.0
}

/// `count` seeded replica moves on distinct chunks of `layout`: each
/// picked chunk moves one replica to one of `n_nodes` nodes that holds
/// none.
pub fn replica_moves(
    layout: &LayoutSnapshot,
    count: usize,
    n_nodes: usize,
    rng: &mut StdRng,
) -> Vec<(ChunkId, NodeId, NodeId)> {
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count {
        picked.insert(rng.gen_range(0..layout.len()));
    }
    picked
        .into_iter()
        .map(|i| {
            let entry = &layout.entries()[i];
            let from = entry.locations[rng.gen_range(0..entry.locations.len())];
            let to = loop {
                let node = NodeId(rng.gen_range(0..n_nodes as u32));
                if !entry.locations.contains(&node) {
                    break node;
                }
            };
            (entry.chunk, from, to)
        })
        .collect()
}

/// One `CHURN`-sized migration delta against `shadow`, which is advanced
/// past it.
fn churn_delta(shadow: &mut LayoutSnapshot, rng: &mut StdRng) -> LayoutDelta {
    let touched = ((shadow.len() as f64 * CHURN) as usize).max(1);
    let delta = LayoutDelta::migrations(&replica_moves(shadow, touched, NODES, rng));
    shadow.apply_delta(&delta);
    delta
}

impl PlanMix {
    /// Builds the cluster, the task sets, the churn stream and the
    /// oracle's reference results from `seed`.
    pub fn prepare(seed: u64) -> PlanMix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut namenode = Namenode::new(
            NODES,
            DfsConfig {
                replication: REPLICATION,
            },
        );
        let layout_of = |nn: &mut Namenode, name: &str, chunks: usize, rng: &mut StdRng| {
            let ds = nn.create_dataset(
                &DatasetSpec::uniform(name, chunks, CHUNK),
                &Placement::Random,
                rng,
            );
            let ids = nn.dataset(ds).expect("dataset just created").chunks.clone();
            LayoutSnapshot::capture(nn, &ids)
        };
        let cold_layout = layout_of(&mut namenode, "cold", COLD_CHUNKS, &mut rng);
        let session_layout = layout_of(&mut namenode, "session", SESSION_CHUNKS, &mut rng);

        let (_, multi_tasks) = multi_wl::generate(
            &mut namenode,
            &MultiDataConfig {
                n_tasks: TASKS,
                input_sizes: vec![30 << 20, 20 << 20, 10 << 20],
            },
            &Placement::Random,
            &mut rng,
        );
        let (_, dynamic_tasks) = dyn_wl::generate(
            &mut namenode,
            &DynamicConfig {
                n_tasks: TASKS,
                chunk_size: CHUNK,
                ..DynamicConfig::default()
            },
            &Placement::Random,
            &mut rng,
        );

        // The hot spot: every replica on the first HOT_NODES nodes, so the
        // placement loop has real work to migrate toward idle processes.
        let hot_offset = rng.gen_range(0..HOT_NODES);
        let hot_locations: Vec<Vec<NodeId>> = (0..HOT_CHUNKS)
            .map(|i| {
                (0..REPLICATION as usize)
                    .map(|r| NodeId(((i + hot_offset + r) % HOT_NODES) as u32))
                    .collect()
            })
            .collect();
        let hot = namenode.create_dataset_placed(
            &DatasetSpec::uniform("hot", HOT_CHUNKS, CHUNK),
            hot_locations,
        );
        let hot_tasks = TaskSet::new(
            "hot",
            namenode
                .dataset(hot)
                .expect("dataset just created")
                .chunks
                .iter()
                .map(|&c| Task::single(c))
                .collect(),
        );
        let hot_layout = capture_workload_layout(&namenode, &hot_tasks);

        let mut shadow = session_layout.clone();
        let deltas = (0..REPLANS)
            .map(|_| churn_delta(&mut shadow, &mut rng))
            .collect();

        let placement = ProcessPlacement::one_per_node(NODES);
        let dynamic_values = build_matching_values(&namenode, &dynamic_tasks, &placement);
        let mut mix = PlanMix {
            planner: OpassPlanner::default(),
            placement,
            namenode,
            cold_layout,
            cold_seeds: std::array::from_fn(|_| rng.gen_range(0..u64::MAX)),
            session_layout,
            session_seed: rng.gen_range(0..u64::MAX),
            deltas,
            multi_tasks,
            dynamic_tasks,
            dynamic_values,
            hot_layout,
            reference: Vec::new(),
        };
        // The oracle: one untimed execution of the round, results kept.
        let mut reference = Vec::new();
        mix.run_round(&mut Tracer::new(), &mut RoundOut::default(), |r| {
            reference.push(r);
            true
        });
        mix.reference = reference;
        mix
    }

    /// Hash of everything `prepare` generated from the seed.
    pub fn input_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for layout in [&self.cold_layout, &self.session_layout, &self.hot_layout] {
            for e in layout.entries() {
                h.u64(e.chunk.0);
                for n in &e.locations {
                    h.u64(u64::from(n.0));
                }
            }
        }
        for d in &self.deltas {
            for &(c, n) in d.replicas_added.iter().chain(&d.replicas_dropped) {
                h.u64(c.0);
                h.u64(u64::from(n.0));
            }
        }
        for s in self.cold_seeds {
            h.u64(s);
        }
        h.0
    }

    /// Local bytes the guided lists realise when every worker drains its
    /// own list in turn (the dispatch order a balanced run produces).
    fn guided_local_bytes(&self, sched: &GuidedScheduler) -> (u64, u64) {
        use opass_core::matching::DynamicScheduler;
        let mut sched = sched.clone();
        let mut fp = Fnv::default();
        let mut local = 0u64;
        let mut remaining = self.dynamic_tasks.len();
        while remaining > 0 {
            for w in 0..NODES {
                if let Some(task) = sched.next_task(w) {
                    local += self.dynamic_values.value(w, task);
                    fp.u64(task as u64);
                    remaining -= 1;
                }
            }
        }
        (local, fp.0)
    }

    /// The planner calls the round is made of, each inside its span.
    /// [`PlanMix::run_round`] times and verifies them in round order; the
    /// `core.*` probes time each class on its own.
    pub fn cold_plan(&self, tr: &mut Tracer, seed: u64) -> SingleDataPlan {
        let request =
            PlanRequest::single_from_layout(&self.cold_layout, &self.placement).seed(seed);
        tr.span("core.plan", || black_box(self.planner.plan(&request)))
            .into_single()
            .expect("single request yields a single plan")
    }

    /// `session()` on the session dataset.
    pub fn start_session(&self, tr: &mut Tracer) -> Session {
        let request = PlanRequest::single_from_layout(&self.session_layout, &self.placement)
            .seed(self.session_seed);
        tr.span("core.session", || black_box(self.planner.session(&request)))
    }

    /// `Session::replan` with the next delta of the churn stream.
    pub fn replan(session: &mut Session, tr: &mut Tracer, delta: &LayoutDelta) -> SingleDataPlan {
        tr.span("core.session.replan", || black_box(session.replan(delta)))
            .into_single()
            .expect("single session replans to a single plan")
    }

    /// `plan(multi)` — Algorithm 1.
    pub fn multi_plan(&self, tr: &mut Tracer) -> MultiDataPlan {
        let request = PlanRequest::multi(&self.namenode, &self.multi_tasks, &self.placement);
        tr.span("core.plan", || black_box(self.planner.plan(&request)))
            .into_multi()
            .expect("multi request yields a multi plan")
    }

    /// `plan(dynamic)` — guided lists.
    pub fn dynamic_plan(&self, tr: &mut Tracer) -> GuidedScheduler {
        let request = PlanRequest::dynamic(&self.namenode, &self.dynamic_tasks, &self.placement)
            .seed(self.session_seed);
        tr.span("core.plan", || black_box(self.planner.plan(&request)))
            .into_dynamic()
            .expect("dynamic request yields guided lists")
    }

    /// `placement_session` + `PlacementSession::run` on the hot spot.
    pub fn place(&self, tr: &mut Tracer) -> PlacementSession {
        let request = PlanRequest::single_from_layout(&self.hot_layout, &self.placement)
            .seed(self.session_seed);
        let mut placed = tr.span("core.place.session", || {
            self.planner
                .placement_session(&request, PlacementConfig::default())
        });
        tr.span("core.place.run", || black_box(placed.run()));
        placed
    }

    /// The round. `verify` sees each op's outcome after its timer
    /// stopped and says whether it matches the oracle.
    fn run_round(
        &self,
        tr: &mut Tracer,
        out: &mut RoundOut,
        mut verify: impl FnMut(Reference) -> bool,
    ) {
        let single_ref = |class, plan: &SingleDataPlan| Reference {
            class,
            fingerprint: single_fingerprint(plan),
            local_bytes: plan.locality.local_bytes,
            total_bytes: plan.locality.total_bytes,
        };
        // Times `call` as one op and hands its result back.
        fn op<T>(out: &mut RoundOut, tr: &mut Tracer, call: impl FnOnce(&mut Tracer) -> T) -> T {
            tr.next_request();
            let mut result = None;
            out.op(1, || {
                result = Some(call(tr));
                true
            });
            result.expect("set by the op")
        }

        for seed in self.cold_seeds {
            let plan = op(out, tr, |tr| self.cold_plan(tr, seed));
            out.failed += u64::from(!verify(single_ref(Class::Single, &plan)));
        }

        let mut session = op(out, tr, |tr| self.start_session(tr));
        let first = session.as_single().expect("single session").plan();
        out.failed += u64::from(!verify(single_ref(Class::SessionStart, first)));

        for delta in &self.deltas {
            let plan = op(out, tr, |tr| Self::replan(&mut session, tr, delta));
            out.failed += u64::from(!verify(single_ref(Class::Replan, &plan)));
        }

        let multi = op(out, tr, |tr| self.multi_plan(tr));
        out.failed += u64::from(!verify(Reference {
            class: Class::Multi,
            fingerprint: multi_fingerprint(&multi),
            local_bytes: multi.matched_bytes,
            total_bytes: multi.total_bytes,
        }));

        let guided = op(out, tr, |tr| self.dynamic_plan(tr));
        let (local_bytes, fingerprint) = self.guided_local_bytes(&guided);
        out.failed += u64::from(!verify(Reference {
            class: Class::Dynamic,
            fingerprint,
            local_bytes,
            total_bytes: self.dynamic_tasks.len() as u64 * CHUNK,
        }));

        let placed = op(out, tr, |tr| self.place(tr));
        let mut reference = single_ref(Class::Place, placed.plan());
        let mut h = Fnv(reference.fingerprint);
        h.u64(placed.migrated_bytes());
        reference.fingerprint = h.0;
        out.failed += u64::from(!verify(reference));
    }
}

impl Workload for PlanMix {
    fn warm_up(&mut self, tr: &mut Tracer) {
        self.round(tr, &mut RoundOut::default());
    }

    fn round(&mut self, tr: &mut Tracer, out: &mut RoundOut) {
        let mut next = self.reference.iter();
        self.run_round(tr, out, |got| {
            let want = next.next().expect("round has a fixed op count");
            got.class == want.class
                && got.fingerprint == want.fingerprint
                && got.local_bytes == want.local_bytes
        });
    }

    fn locality(&self) -> (u64, u64) {
        // Every timed plan equals its reference, so the round's locality
        // is the reference's.
        self.reference
            .iter()
            .fold((0, 0), |(l, t), r| (l + r.local_bytes, t + r.total_bytes))
    }

    fn finish(self: Box<Self>, _tr: &mut Tracer) {}
}
