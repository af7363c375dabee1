//! Integration: the unified `PlanRequest` planning API and the
//! closed-loop placement engine.
//!
//! The historical golden-equivalence suite (deprecated `plan_*` /
//! `start_*` wrappers vs their `PlanRequest` forms) retired with the
//! wrappers themselves; what remains exercises the `PlanRequest` API
//! directly plus the placement loop: on a deliberately hot-spotted
//! layout the loop must strictly increase matched-local bytes each
//! round, terminate, respect its byte budget, emit migration deltas
//! that replay bit-identically through both the namenode
//! (`apply_migrations`) and the serve world (delta invalidation), and
//! cut the simulated p99 I/O time by at least 1.5x.

use opass_core::dfs::{DatasetSpec, DfsConfig, LayoutDelta, Namenode, NodeId, Placement};
use opass_core::{OpassPlanner, PlacementConfig, PlanRequest, Session};
use opass_runtime::{execute, ExecConfig, ProcessPlacement, TaskSource};
use opass_serve::{serve, Client, ServeSpec, ServerConfig, World};
use opass_simio::quantile;
use opass_workloads::{single, SingleDataConfig, Task, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHUNK: u64 = 64 << 20;

/// A randomly-written world plus the workload reading it, as used by
/// most planner tests.
fn random_world(seed: u64) -> (Namenode, Workload) {
    let mut nn = Namenode::new(16, DfsConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SingleDataConfig {
        n_procs: 16,
        chunks_per_process: 4,
        chunk_size: CHUNK,
    };
    let (_, workload) = single::generate(&mut nn, &cfg, &Placement::Random, &mut rng);
    (nn, workload)
}

/// A multi-input workload over three datasets on the same namenode.
fn multi_world(seed: u64) -> (Namenode, Workload) {
    let mut nn = Namenode::new(16, DfsConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = opass_workloads::MultiDataConfig {
        n_tasks: 48,
        input_sizes: vec![30 << 20, 20 << 20, 10 << 20],
    };
    let (_, workload) =
        opass_workloads::multi::generate(&mut nn, &cfg, &Placement::Random, &mut rng);
    (nn, workload)
}

/// A hot-spot world: every replica of every chunk lives on the first
/// `hot` nodes of an `n`-node cluster, so almost nothing is local and
/// the placement loop has real work to do. Fully deterministic — no RNG.
fn hot_spot_world(n: usize, chunks: usize, replication: u32, hot: usize) -> (Namenode, Workload) {
    let mut nn = Namenode::new(n, DfsConfig { replication });
    let locations: Vec<Vec<NodeId>> = (0..chunks)
        .map(|i| {
            (0..replication as usize)
                .map(|r| NodeId(((i + r) % hot) as u32))
                .collect()
        })
        .collect();
    let spec = DatasetSpec::uniform("hot", chunks, CHUNK);
    let dataset = nn.create_dataset_placed(&spec, locations);
    let chunk_ids = nn
        .dataset(dataset)
        .expect("dataset just created")
        .chunks
        .clone();
    let tasks: Vec<Task> = chunk_ids.iter().map(|&c| Task::single(c)).collect();
    (nn, Workload::new("hot-readers", tasks))
}

/// One replica-churn delta moving the first input chunk of task `i` off
/// its first holder onto a deterministic fresh node.
fn small_delta(nn: &Namenode, workload: &Workload, i: usize, n_nodes: usize) -> LayoutDelta {
    let task = &workload.tasks[i % workload.tasks.len()];
    let chunk = task.inputs[0];
    let locations = nn.locate(chunk).expect("chunk exists");
    let mut delta = LayoutDelta::default();
    delta.replicas_dropped.push((chunk, locations[0]));
    let target = (0..n_nodes as u32)
        .map(NodeId)
        .find(|n| !locations.contains(n))
        .expect("a node without this chunk exists");
    delta.replicas_added.push((chunk, target));
    delta.normalize();
    delta
}

#[test]
fn session_enum_replan_dispatches_to_both_variants() {
    let planner = OpassPlanner::default();
    let placement = ProcessPlacement::one_per_node(16);

    let (nn, workload) = random_world(0xF7);
    let mut session = planner.session(&PlanRequest::single(&nn, &workload, &placement).seed(4));
    assert!(matches!(session, Session::Single(_)));
    let delta = small_delta(&nn, &workload, 2, 16);
    session.replan(&delta);

    let (nn, workload) = multi_world(0xF8);
    let mut session = planner.session(&PlanRequest::multi(&nn, &workload, &placement));
    assert!(matches!(session, Session::Multi(_)));
    let delta = small_delta(&nn, &workload, 2, 16);
    session.replan(&delta);
}

// ---------------------------------------------------------------------------
// Placement loop
// ---------------------------------------------------------------------------

#[test]
fn placement_loop_converges_on_hot_spot() {
    let (nn, workload) = hot_spot_world(24, 96, 2, 3);
    let placement = ProcessPlacement::one_per_node(24);
    let planner = OpassPlanner::default();
    let request = PlanRequest::single(&nn, &workload, &placement).seed(0x9A5E);

    let mut session = planner.placement_session(&request, PlacementConfig::default());
    let before = session.local_bytes();
    let rounds = session.run();

    assert!(!rounds.is_empty(), "a hot-spotted layout must yield moves");
    let mut prev = before;
    for round in &rounds {
        assert_eq!(
            round.local_bytes_before, prev,
            "rounds chain: each starts where the last ended"
        );
        assert!(
            round.local_bytes_after > round.local_bytes_before,
            "round {} must strictly increase matched-local bytes",
            round.round
        );
        assert_eq!(
            round.migrated_bytes,
            round.moves.iter().map(|m| m.size).sum::<u64>(),
            "migrated bytes account for every accepted move"
        );
        prev = round.local_bytes_after;
    }
    assert_eq!(session.local_bytes(), prev);
    assert!(
        session.local_bytes() > before,
        "the loop must gain locality"
    );

    // The deltas replay onto the real namenode: all-or-nothing, and the
    // replication invariant holds afterwards.
    let mut migrated = nn.clone();
    for round in &rounds {
        let applied = migrated
            .apply_migrations(&round.delta)
            .expect("migrations apply");
        assert_eq!(applied, round.moves.len());
    }
    migrated
        .check_invariants()
        .expect("invariants after migration");

    // A scratch plan on the migrated layout agrees with the loop's view.
    let scratch = planner
        .plan(&PlanRequest::single(&migrated, &workload, &placement).seed(0x9A5E))
        .into_single()
        .expect("single plan");
    assert_eq!(scratch.matched_files, session.plan().matched_files);
    assert_eq!(
        scratch.locality.byte_fraction(),
        session.plan().locality.byte_fraction()
    );

    // What the loop buys: the plan-only arm reads the hot layout as-is,
    // the closed loop reads the migrated one with the repaired plan. I/O
    // times are simulated seconds, so the p99 relief is deterministic.
    let exec_config = ExecConfig::default();
    let p99_io = |nn: &Namenode, assignment| {
        let run = execute(
            nn,
            &workload,
            &placement,
            TaskSource::Static(assignment),
            &exec_config,
        );
        quantile(&run.durations(), 0.99)
    };
    let hot_plan = planner.plan(&request).into_single().expect("single plan");
    let plan_only = p99_io(&nn, hot_plan.assignment);
    let closed_loop = p99_io(&migrated, session.plan().assignment.clone());
    assert!(
        plan_only >= 1.5 * closed_loop,
        "closed loop must cut p99 I/O time by >= 1.5x: {plan_only:.3}s -> {closed_loop:.3}s"
    );
}

#[test]
fn placement_loop_respects_byte_budget_and_determinism() {
    let (nn, workload) = hot_spot_world(24, 96, 2, 3);
    let placement = ProcessPlacement::one_per_node(24);
    let planner = OpassPlanner::default();
    let budget = 10 * CHUNK;
    let config = PlacementConfig {
        total_byte_budget: budget,
        ..PlacementConfig::default()
    };

    let run = |planner: &OpassPlanner| {
        let request = PlanRequest::single(&nn, &workload, &placement).seed(7);
        let mut session = planner.placement_session(&request, config);
        let rounds = session.run();
        (rounds, session.migrated_bytes(), session.local_bytes())
    };
    let (rounds_a, migrated_a, local_a) = run(&planner);
    let (rounds_b, migrated_b, local_b) = run(&planner);

    assert!(migrated_a <= budget, "loop must respect the byte budget");
    assert!(migrated_a > 0, "budget leaves room for at least one move");

    // Bit-identical across runs: same rounds, same deltas, same totals.
    assert_eq!(rounds_a.len(), rounds_b.len());
    assert_eq!(migrated_a, migrated_b);
    assert_eq!(local_a, local_b);
    for (a, b) in rounds_a.iter().zip(&rounds_b) {
        assert_eq!(
            a.delta, b.delta,
            "round {} delta must be deterministic",
            a.round
        );
        assert_eq!(a.moves.len(), b.moves.len());
    }
}

// ---------------------------------------------------------------------------
// Serve: the place request end to end
// ---------------------------------------------------------------------------

#[test]
fn remote_place_matches_in_process_loop_and_applies_cleanly() {
    let spec = ServeSpec {
        n_nodes: 16,
        n_datasets: 1,
        chunks_per_dataset: 96,
        ..Default::default()
    };
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 32,
        shards: 2,
        spec,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let rounds = 6;
    let seed = 0x5EED;
    let reply = client.place(0, rounds, None, seed).expect("place");

    // Rebuild the identical world locally and run the loop in-process.
    let world = World::new(spec);
    let snapshot = world.capture_layout(0).expect("dataset 0 exists");
    let placement = spec.placement();
    let config = PlacementConfig {
        max_rounds: rounds,
        ..PlacementConfig::default()
    };
    let mut session = OpassPlanner::default().placement_session(
        &PlanRequest::single_from_layout(&snapshot, &placement).seed(seed),
        config,
    );
    let local_before = session.local_bytes();
    let local_rounds = session.run();

    assert_eq!(reply.local_bytes_before, local_before);
    assert_eq!(reply.local_bytes_after, session.local_bytes());
    assert_eq!(reply.migrated_bytes, session.migrated_bytes());
    assert_eq!(reply.rounds.len(), local_rounds.len());
    for (remote, local) in reply.rounds.iter().zip(&local_rounds) {
        assert_eq!(remote.round, local.round);
        assert_eq!(remote.moves, local.moves.len());
        assert_eq!(
            remote.delta, local.delta,
            "round deltas must be byte-identical"
        );
        assert_eq!(remote.migrated_bytes, local.migrated_bytes);
    }

    // Recommendations are pure: the server world is untouched until the
    // client applies the deltas through the normal invalidation path.
    let before_plan = client
        .plan(0, opass_serve::Strategy::Opass, seed)
        .expect("plan before apply");
    let mut generation = before_plan.generation;
    for round in &reply.rounds {
        let g = client
            .invalidate_with_delta(0, &round.delta)
            .expect("delta invalidation");
        assert!(g > generation, "each applied delta bumps the generation");
        generation = g;
    }
    let after_plan = client
        .plan(0, opass_serve::Strategy::Opass, seed)
        .expect("plan after apply");
    assert!(
        after_plan.local_byte_fraction >= before_plan.local_byte_fraction,
        "applying the recommended migrations must not hurt locality"
    );
    if reply.migrated_bytes > 0 {
        assert!(
            after_plan.local_byte_fraction > before_plan.local_byte_fraction,
            "non-trivial migrations must improve planned locality"
        );
    }
    handle.shutdown();
}
