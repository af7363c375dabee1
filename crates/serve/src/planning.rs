//! Pure planning helpers behind the sharded reactor.
//!
//! Everything here is a function of its inputs — layout snapshot,
//! placement, strategy, seed — so the server produces byte-identical
//! replies for equal `(spec, generation, strategy, seed)` tuples. The
//! reactor owns caching, coalescing, and metrics; this module owns the
//! answers.
//!
//! A cold plan is the one-shot planner's, and what it keeps for repair
//! is that plan's layout handle and owners ([`Repairable::Owners`]). A
//! session starts only at the plan's first delta, resumed from those
//! owners: they fix the plan's maximum matching, so the resume is a
//! graph build with no max-flow, and a plan that is never repaired never
//! holds a locality graph.

use crate::protocol::{LayoutEntry, LayoutReply, PlaceReply, PlaceRoundReply, PlanReply, Response};
use opass_core::dfs::{LayoutDelta, LayoutSnapshot};
use opass_core::matching::locality_report;
use opass_core::runtime::baseline::{random_assignment, rank_interval};
use opass_core::runtime::ProcessPlacement;
use opass_core::{
    build_locality_graph_from_layout, OpassPlanner, PlacementConfig, PlanRequest, SingleDataPlan,
    SingleDataSession, Strategy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Plan cache / coalescing key: `(dataset, strategy label, seed)` — with
/// the generation, everything in a plan reply that is not the plan.
pub(crate) type PlanKey = (usize, String, u64);

/// What a cached planner-strategy plan keeps so that a later delta
/// invalidation can repair it in place.
pub(crate) enum Repairable {
    /// A cold plan's inputs and answer: the layout it planned against
    /// (a shared handle) and its owners, 4 B per chunk. The first repair
    /// resumes a session from them with one graph build and no solve
    /// ([`OpassPlanner::resume_session`]).
    Owners {
        /// The layout snapshot the plan was computed against.
        snapshot: Arc<LayoutSnapshot>,
        /// The plan's owner process per task.
        owners: Box<[u32]>,
    },
    /// The live session of a plan repaired at least once; later repairs
    /// advance it.
    Session(Box<SingleDataSession>),
}

/// A freshly computed (or repaired) plan: the wire reply plus — for
/// planner-backed strategies — what a later delta invalidation needs to
/// repair it in place. A cold plan carries its layout and owners, a
/// repaired one the session that repaired it. Baselines carry neither
/// and always recompute.
pub(crate) struct ComputedPlan {
    /// The canonical reply: `cached`/`coalesced` false, `repaired` set
    /// only by [`repair_plan`]. The reactor adjusts the flags per request.
    pub reply: PlanReply,
    /// How the plan is repaired, when it is repairable.
    pub repair: Option<Repairable>,
}

/// The cold planning path: graph + matching (or baseline) from a layout
/// snapshot. Pure — byte-identical for equal inputs. Planner strategies
/// run the one-shot planner and keep the snapshot handle and the owners
/// beside the reply; no session is started until a delta needs one.
pub(crate) fn compute_plan(
    planner: &OpassPlanner,
    placement: &ProcessPlacement,
    snapshot: &Arc<LayoutSnapshot>,
    dataset: usize,
    strategy: &Strategy,
    seed: u64,
    generation: u64,
) -> ComputedPlan {
    let n_tasks = snapshot.len();
    let n_procs = placement.n_procs();
    match strategy {
        Strategy::RankInterval | Strategy::RandomAssign => {
            let assignment = if matches!(strategy, Strategy::RankInterval) {
                rank_interval(n_tasks, n_procs)
            } else {
                let mut rng = StdRng::seed_from_u64(seed);
                random_assignment(n_tasks, n_procs, &mut rng)
            };
            let graph = build_locality_graph_from_layout(snapshot, placement);
            let locality = locality_report(&assignment, &graph, &snapshot.sizes());
            ComputedPlan {
                reply: PlanReply {
                    dataset,
                    generation,
                    strategy: strategy.label(),
                    seed,
                    owners: assignment.owners().to_vec(),
                    matched_files: 0,
                    filled_files: 0,
                    local_task_fraction: locality.task_fraction(),
                    local_byte_fraction: locality.byte_fraction(),
                    cached: false,
                    coalesced: false,
                    repaired: false,
                },
                repair: None,
            }
        }
        _ => {
            let plan = planner
                .plan(&PlanRequest::single_from_layout(snapshot, placement).seed(seed))
                .into_single()
                .expect("single-data requests always yield single-data plans");
            let owners = plan.assignment.owners().iter().map(|&p| p as u32).collect();
            let key = (dataset, strategy.label(), seed);
            ComputedPlan {
                reply: plan_reply(key, generation, &plan, false),
                repair: Some(Repairable::Owners {
                    snapshot: Arc::clone(snapshot),
                    owners,
                }),
            }
        }
    }
}

/// Renders the reply for `key` around a single-data plan, with fresh
/// flags. The key, the generation and the plan are everything a reply
/// holds.
fn plan_reply(
    (dataset, strategy, seed): PlanKey,
    generation: u64,
    plan: &SingleDataPlan,
    repaired: bool,
) -> PlanReply {
    PlanReply {
        dataset,
        generation,
        strategy,
        seed,
        owners: plan.assignment.owners().to_vec(),
        matched_files: plan.matched_files,
        filled_files: plan.filled_files,
        local_task_fraction: plan.locality.task_fraction(),
        local_byte_fraction: plan.locality.byte_fraction(),
        cached: false,
        coalesced: false,
        repaired,
    }
}

/// Brings a superseded plan up to `generation` by replaying journalled
/// layout deltas through its planning session — resumed from the cold
/// plan's layout and owners when it has none yet — and renders the reply
/// for `key` around the repaired assignment (`repaired` set, fresh flags
/// otherwise). The session stays with the result.
pub(crate) fn repair_plan(
    planner: &OpassPlanner,
    placement: &ProcessPlacement,
    repair: Repairable,
    deltas: &[LayoutDelta],
    key: &PlanKey,
    generation: u64,
) -> ComputedPlan {
    let mut session = match repair {
        Repairable::Session(session) => session,
        Repairable::Owners { snapshot, owners } => Box::new(planner.resume_session(
            &PlanRequest::single_from_layout(&snapshot, placement).seed(key.2),
            &owners,
        )),
    };
    for delta in deltas {
        session.replan(delta);
    }
    ComputedPlan {
        reply: plan_reply(key.clone(), generation, session.plan(), true),
        repair: Some(Repairable::Session(session)),
    }
}

/// Builds the wire layout reply from a snapshot.
pub(crate) fn layout_reply(
    dataset: usize,
    generation: u64,
    cached: bool,
    snapshot: &LayoutSnapshot,
) -> LayoutReply {
    let entries = snapshot
        .entries()
        .iter()
        .map(|e| LayoutEntry {
            chunk: e.chunk.0,
            size: e.size,
            locations: e.locations.iter().map(|n| u64::from(n.0)).collect(),
        })
        .collect();
    LayoutReply {
        dataset,
        generation,
        cached,
        entries,
    }
}

/// Runs the closed-loop placement engine against a layout snapshot and
/// returns the recommended migration rounds. Pure recommendation: the
/// served world is not mutated — the client applies the deltas to the
/// real namenode and replays them here through delta invalidations.
#[allow(clippy::too_many_arguments)] // one call site; a params struct would just rename the fields
pub(crate) fn place_reply(
    planner: &OpassPlanner,
    placement: &ProcessPlacement,
    snapshot: &LayoutSnapshot,
    dataset: usize,
    generation: u64,
    rounds: usize,
    budget: Option<u64>,
    seed: u64,
) -> PlaceReply {
    let config = PlacementConfig {
        max_rounds: rounds,
        total_byte_budget: budget.unwrap_or(u64::MAX),
        ..PlacementConfig::default()
    };
    let mut session = planner.placement_session(
        &PlanRequest::single_from_layout(snapshot, placement).seed(seed),
        config,
    );
    let before = session.local_bytes();
    let executed = session.run();
    // `run` stops for one of three reasons; it converged only if neither
    // cap was the binding constraint.
    let under_budget = match budget {
        Some(b) => session.migrated_bytes() < b,
        None => true,
    };
    let converged = session.rounds() < rounds && under_budget;
    PlaceReply {
        dataset,
        generation,
        seed,
        local_bytes_before: before,
        local_bytes_after: session.local_bytes(),
        migrated_bytes: session.migrated_bytes(),
        converged,
        rounds: executed
            .into_iter()
            .map(|r| PlaceRoundReply {
                round: r.round,
                moves: r.moves.len(),
                migrated_bytes: r.migrated_bytes,
                local_bytes_before: r.local_bytes_before,
                local_bytes_after: r.local_bytes_after,
                delta: r.delta,
            })
            .collect(),
    }
}

/// The typed refusal for a dataset index outside the served world.
pub(crate) fn unknown_dataset(dataset: usize, n_datasets: usize) -> Response {
    Response::Error {
        message: format!("unknown dataset {dataset} (world has {n_datasets})"),
    }
}

/// Whether `delta` adds a file of no bytes. A locality edge carries its
/// chunk's bytes, so such a file could never be planned: the world must
/// not take it in.
pub(crate) fn adds_an_empty_file(delta: &LayoutDelta) -> bool {
    delta.files_added.iter().any(|entry| entry.size == 0)
}

/// The typed refusal for a delta that adds a file of no bytes.
pub(crate) fn empty_file_refusal() -> Response {
    Response::Error {
        message: "field \"size\" must be a positive integer".into(),
    }
}
