//! Property: component-parallel repair is **bit-identical** to the
//! sequential reference kernel — not merely an equally-good matching.
//!
//! Three layers, each randomized over seeds and churn schedules and run
//! at 1, 2, and 8 threads:
//!
//! 1. matcher level — staged churn on an [`IncrementalMatcher`], then
//!    `repair_batch_threads(t)` vs `repair_batch()` on clones: the dense
//!    owner vectors must be byte-equal;
//! 2. session level — [`SingleDataSession`]s at different thread counts
//!    absorb the same delta stream (replica churn plus file adds and
//!    removals), on a small layout and on a 64-island one of ~12 800
//!    chunks: every step's rendered plan must be identical down to its
//!    `Debug` bytes, and the evolved snapshots must agree;
//! 3. fanout level — [`replan_sessions_parallel`] over a mixed-thread
//!    session fleet must leave every session exactly where sequential
//!    replans leave its reference twin.

use opass_core::dfs::{
    ChunkLayout, DatasetSpec, DfsConfig, LayoutDelta, LayoutSnapshot, Namenode, NodeId,
};
use opass_core::{replan_sessions_parallel, OpassPlanner, PlanRequest, SingleDataSession};
use opass_matching::{BipartiteGraph, IncrementalMatcher, Objective, NONE};
use opass_runtime::ProcessPlacement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CHUNK: u64 = 64 << 20;
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// An island-partitioned locality graph: `islands` blocks of `per`
/// procs, each file wired to `r` procs of its own island — many
/// connected components, the shape the parallel engine splits on.
fn island_graph(
    islands: usize,
    per: usize,
    n_files: usize,
    r: usize,
    rng: &mut StdRng,
) -> BipartiteGraph {
    let mut g = BipartiteGraph::new(islands * per, n_files);
    for f in 0..n_files {
        let base = (f % islands) * per;
        let mut placed = 0;
        while placed < r {
            let p = base + rng.gen_range(0..per);
            if g.weight(p, f).is_none() {
                g.add_edge(p, f, CHUNK);
                placed += 1;
            }
        }
    }
    g
}

/// Stages one churn batch: `touched` files each lose their first edge
/// and gain a fresh one inside their island.
fn stage_churn(
    inc: &mut IncrementalMatcher,
    islands: usize,
    per: usize,
    touched: usize,
    rng: &mut StdRng,
) {
    let n = inc.graph().n_files();
    for _ in 0..touched {
        let f = rng.gen_range(0..n);
        let base = (f % islands) * per;
        let first = inc.graph().procs_of(f).next();
        if let Some((p, _)) = first {
            inc.stage_remove_edge(p, f);
        }
        for _ in 0..8 {
            let p = base + rng.gen_range(0..per);
            if inc.graph().weight(p, f).is_none() {
                inc.stage_add_edge(p, f, CHUNK);
                break;
            }
        }
    }
}

#[test]
fn matcher_parallel_repair_is_bit_identical_across_thread_counts() {
    for seed in 0..4u64 {
        for &(touched, objective) in &[
            (2usize, Objective::MatchCount),
            (40, Objective::MatchCount),
            (40, Objective::MatchedBytes),
            (400, Objective::MatchedBytes),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = IncrementalMatcher::new(island_graph(8, 4, 2000, 2, &mut rng), objective);
            let mut reference: Option<Vec<u32>> = None;
            for &threads in &THREAD_COUNTS {
                let mut inc = base.clone();
                let mut churn_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                stage_churn(&mut inc, 8, 4, touched, &mut churn_rng);
                inc.repair_batch_threads(threads);
                let owners = inc.owners_dense().to_vec();
                assert!(
                    owners.iter().any(|&o| o != NONE),
                    "matching must be non-trivial"
                );
                match &reference {
                    None => reference = Some(owners),
                    Some(want) => assert_eq!(
                        want, &owners,
                        "seed {seed}, touched {touched}, {objective:?}: \
                         {threads}-thread repair diverged from sequential"
                    ),
                }
            }
        }
    }
}

/// An island-placed snapshot over `islands * per` nodes.
fn island_snapshot(islands: usize, per: usize, chunks: usize, rng: &mut StdRng) -> LayoutSnapshot {
    let mut nn = Namenode::new(islands * per, DfsConfig { replication: 2 });
    let locations: Vec<Vec<NodeId>> = (0..chunks)
        .map(|i| {
            let base = (i % islands) * per;
            let a = base + rng.gen_range(0..per);
            let mut b = base + rng.gen_range(0..per);
            while b == a {
                b = base + rng.gen_range(0..per);
            }
            vec![NodeId(a as u32), NodeId(b as u32)]
        })
        .collect();
    let spec = DatasetSpec::uniform("islands", chunks, CHUNK);
    let ds = nn.create_dataset_placed(&spec, locations);
    let chunk_ids = nn.dataset(ds).expect("dataset exists").chunks.clone();
    LayoutSnapshot::capture(&nn, &chunk_ids)
}

/// A randomized delta against `snapshot`: replica churn on ~`churn`
/// chunks, plus (schedule permitting) a file removal and a brand-new
/// file with island-local replicas.
fn random_delta(
    snapshot: &LayoutSnapshot,
    islands: usize,
    per: usize,
    churn: usize,
    with_file_churn: bool,
    next_chunk_id: &mut u64,
    rng: &mut StdRng,
) -> LayoutDelta {
    let n = snapshot.entries().len();
    let mut delta = LayoutDelta::default();
    for _ in 0..churn.max(1) {
        let ci = rng.gen_range(0..n);
        let entry = &snapshot.entries()[ci];
        let base = (ci % islands) * per;
        if entry.locations.len() > 1 {
            delta
                .replicas_dropped
                .push((entry.chunk, entry.locations[0]));
        }
        for _ in 0..8 {
            let node = NodeId((base + rng.gen_range(0..per)) as u32);
            if !entry.locations.contains(&node) {
                delta.replicas_added.push((entry.chunk, node));
                break;
            }
        }
    }
    if with_file_churn {
        let victim = &snapshot.entries()[rng.gen_range(0..n)];
        delta.files_removed.push(victim.chunk);
        let base = rng.gen_range(0..islands) * per;
        delta.files_added.push(ChunkLayout {
            chunk: opass_core::dfs::ChunkId(*next_chunk_id),
            size: CHUNK,
            locations: vec![NodeId(base as u32), NodeId((base + 1) as u32)].into(),
        });
        *next_chunk_id += 1;
    }
    delta.normalize();
    delta
}

#[test]
fn session_replans_are_bit_identical_across_thread_counts() {
    // (islands, nodes per island, chunks, seeds): a small layout over
    // several seeds, and a 64-island one whose locality graph splits into
    // many components, at one seed.
    let shapes = [(8usize, 4usize, 1500usize, 0..3u64), (64, 4, 12_800, 0..1)];
    for (islands, per, chunks, seeds) in shapes {
        for (seed, with_file_churn) in seeds.flat_map(|seed| [(seed, false), (seed, true)]) {
            let mut rng = StdRng::seed_from_u64(seed);
            let snapshot = island_snapshot(islands, per, chunks, &mut rng);
            let placement = ProcessPlacement::one_per_node(islands * per);
            let planner = OpassPlanner::default();
            let mut sessions: Vec<SingleDataSession> = THREAD_COUNTS
                .iter()
                .map(|&t| {
                    let mut session = planner
                        .session(&PlanRequest::single_from_layout(&snapshot, &placement).seed(seed))
                        .into_single()
                        .expect("single session");
                    session.set_threads(t);
                    session
                })
                .collect();

            let mut shadow = snapshot.clone();
            let mut next_chunk_id = 10_000_000u64;
            let mut delta_rng = StdRng::seed_from_u64(seed ^ 0xD417A);
            for step in 0..10 {
                let delta = random_delta(
                    &shadow,
                    islands,
                    per,
                    chunks / 100,
                    with_file_churn,
                    &mut next_chunk_id,
                    &mut delta_rng,
                );
                shadow.apply_delta(&delta);
                let reference = format!("{:?}", sessions[0].replan(&delta));
                for (i, session) in sessions.iter_mut().enumerate().skip(1) {
                    let plan = session.replan(&delta);
                    assert_eq!(
                        reference,
                        format!("{plan:?}"),
                        "{islands} islands, seed {seed}, file_churn {with_file_churn}, \
                         step {step}: {}-thread plan bytes diverged from sequential",
                        THREAD_COUNTS[i]
                    );
                }
            }
            // The evolved snapshots (and the shadow they were checked
            // against) must all be the same world.
            for session in &sessions {
                assert_eq!(session.snapshot(), &shadow, "snapshots must converge");
                assert_eq!(session.replans(), 10);
            }
        }
    }
}

#[test]
fn parallel_fanout_leaves_sessions_where_sequential_replans_do() {
    let (islands, per, chunks) = (4usize, 4usize, 600usize);
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let snapshot = island_snapshot(islands, per, chunks, &mut rng);
        let placement = ProcessPlacement::one_per_node(islands * per);
        let planner = OpassPlanner::default();
        let start = |s: u64, threads: usize| {
            let mut session = planner
                .session(&PlanRequest::single_from_layout(&snapshot, &placement).seed(s))
                .into_single()
                .expect("single session");
            session.set_threads(threads);
            session
        };
        // A mixed fleet: per-session seeds and thread counts differ.
        let mut fleet: Vec<SingleDataSession> = (0..6)
            .map(|i| start(seed + i, THREAD_COUNTS[i as usize % 3]))
            .collect();
        let mut reference: Vec<SingleDataSession> = (0..6)
            .map(|i| start(seed + i, THREAD_COUNTS[i as usize % 3]))
            .collect();

        let mut shadow = snapshot.clone();
        let mut next_chunk_id = 20_000_000u64;
        let mut delta_rng = StdRng::seed_from_u64(seed ^ 0xFA17);
        for _ in 0..5 {
            let delta = random_delta(
                &shadow,
                islands,
                per,
                chunks / 50,
                true,
                &mut next_chunk_id,
                &mut delta_rng,
            );
            shadow.apply_delta(&delta);
            replan_sessions_parallel(&mut fleet, &delta, 4);
            for session in reference.iter_mut() {
                session.replan(&delta);
            }
        }
        for (fanned, reference) in fleet.iter().zip(&reference) {
            assert_eq!(
                format!("{:?}", fanned.plan()),
                format!("{:?}", reference.plan()),
                "seed {seed}: fanned-out session diverged from its sequential twin"
            );
            assert_eq!(fanned.snapshot(), reference.snapshot());
            assert_eq!(fanned.snapshot(), &shadow);
            assert_eq!(fanned.replans(), 5);
        }
    }
}
