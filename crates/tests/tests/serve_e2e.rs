//! End-to-end tests for the planning service: a real server on localhost
//! TCP, exercised through the blocking client.
//!
//! Concurrency-sensitive tests (shedding, coalescing) are built to hold
//! on a single-core machine: they use a world large enough that one cold
//! plan spans many scheduler slices, so overlap between requests is
//! structural rather than a preemption-timing accident.

use opass_core::dfs::{ChunkId, ChunkLayout, LayoutDelta, NodeId};
use opass_core::{OpassPlanner, PlanRequest};
use opass_serve::frame::{encode_frame, read_frame, write_frame};
use opass_serve::{
    replay_remote, serve, Client, ClientError, ReplayConfig, ReplayDriverError, Request, Response,
    ServeSpec, ServerConfig, Strategy, World, MAX_FRAME,
};
use opass_trace::{generate, TraceSpec};
use std::io::Write;
use std::net::TcpStream;

fn spec_small() -> ServeSpec {
    ServeSpec {
        n_nodes: 16,
        n_datasets: 3,
        chunks_per_dataset: 96,
        ..Default::default()
    }
}

/// One cold plan on this world takes many scheduler slices, so a burst
/// of concurrent requests reliably overlaps the in-flight computation
/// even when every thread shares one core.
fn spec_slow_plan() -> ServeSpec {
    ServeSpec {
        n_nodes: 64,
        n_datasets: 1,
        chunks_per_dataset: 4096,
        ..Default::default()
    }
}

fn boot(spec: ServeSpec, workers: usize, queue_depth: usize) -> opass_serve::ServerHandle {
    // Two shards everywhere: every contract below must hold when
    // requests are forwarded across the dataset→shard affinity boundary.
    boot_sharded(spec, workers, queue_depth, 2)
}

fn boot_sharded(
    spec: ServeSpec,
    workers: usize,
    queue_depth: usize,
    shards: usize,
) -> opass_serve::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        shards,
        spec,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

#[test]
fn remote_plan_is_byte_identical_to_in_process_planner() {
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let mut client = Client::connect(handle.addr()).expect("connect");

    for dataset in 0..spec.n_datasets {
        for seed in [0u64, 7, 0xB17E] {
            let remote = client
                .plan(dataset, Strategy::Opass, seed)
                .expect("remote plan");

            // Rebuild the identical world locally and plan in-process.
            let world = World::new(spec);
            let snapshot = world.capture_layout(dataset).expect("dataset exists");
            let placement = spec.placement();
            let local = OpassPlanner::default()
                .plan(&PlanRequest::single_from_layout(&snapshot, &placement).seed(seed))
                .into_single()
                .expect("single plan");

            assert_eq!(
                remote.owners,
                local.assignment.owners().to_vec(),
                "dataset {dataset} seed {seed}: owners must match in-process planner"
            );
            assert_eq!(remote.matched_files, local.matched_files);
            assert_eq!(remote.filled_files, local.filled_files);
        }
    }
    handle.shutdown();
}

#[test]
fn layout_round_trip_reflects_the_served_world() {
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let reply = client.layout(1).expect("layout");
    assert_eq!(reply.dataset, 1);
    assert_eq!(reply.entries.len(), spec.chunks_per_dataset);
    for entry in &reply.entries {
        assert_eq!(
            entry.locations.len(),
            spec.replication as usize,
            "every chunk carries one location per replica"
        );
        assert_eq!(entry.size, spec.chunk_size);
        for &node in &entry.locations {
            assert!((node as usize) < spec.n_nodes, "locations are node ids");
        }
    }

    let err = client.layout(spec.n_datasets).expect_err("unknown dataset");
    assert!(matches!(err, ClientError::Server(_)));
    handle.shutdown();
}

#[test]
fn caching_and_invalidation_follow_the_generation() {
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let first = client.plan(0, Strategy::Opass, 9).expect("cold plan");
    assert!(!first.cached, "first plan computes");
    let second = client.plan(0, Strategy::Opass, 9).expect("warm plan");
    assert!(second.cached, "second plan hits the cache");
    assert_eq!(first.owners, second.owners);

    let generation = client.invalidate().expect("invalidate");
    assert_eq!(generation, first.generation + 1);

    let third = client.plan(0, Strategy::Opass, 9).expect("recomputed plan");
    assert!(!third.cached, "invalidation makes the cached plan stale");
    assert_eq!(third.generation, generation);
    assert_eq!(
        first.owners, third.owners,
        "same spec and seed: recomputation is deterministic"
    );

    let stats = client.stats().expect("stats");
    assert!(stats.cache_hits >= 1);
    assert!(stats.cache_misses >= 2);
    assert!(stats.cache_invalidated >= 1);
    assert_eq!(stats.generation, generation);
    handle.shutdown();
}

#[test]
fn delta_invalidation_repairs_in_place_and_spares_other_datasets() {
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let first = client.plan(0, Strategy::Opass, 9).expect("cold plan d0");
    let other = client.plan(1, Strategy::Opass, 9).expect("cold plan d1");
    assert!(!first.cached && !first.repaired);
    assert!(!other.cached);

    // Drop one replica of dataset 0's first chunk, as a delta.
    let layout = client.layout(0).expect("layout d0");
    let delta = LayoutDelta {
        replicas_dropped: vec![(
            ChunkId(layout.entries[0].chunk),
            NodeId(layout.entries[0].locations[0] as u32),
        )],
        ..Default::default()
    };
    let generation = client
        .invalidate_with_delta(0, &delta)
        .expect("delta invalidate");
    assert_eq!(generation, first.generation + 1);

    // Dataset 0's plan is repaired — not recomputed — and agrees with a
    // from-scratch solve on the counts and locality the paper cares
    // about (the concrete owners may be a different maximum matching).
    let repaired = client.plan(0, Strategy::Opass, 9).expect("repaired plan");
    assert!(!repaired.cached, "the delta staled the cached plan");
    assert!(repaired.repaired, "the stale plan was repaired in place");
    assert_eq!(repaired.generation, generation);
    let world = World::new(spec);
    world
        .invalidate_dataset(0, &delta)
        .expect("local delta applies");
    let snapshot = world.capture_layout(0).expect("dataset exists");
    let placement = spec.placement();
    let scratch = OpassPlanner::default()
        .plan(&PlanRequest::single_from_layout(&snapshot, &placement).seed(9))
        .into_single()
        .expect("single plan");
    assert_eq!(repaired.matched_files, scratch.matched_files);
    assert_eq!(repaired.filled_files, scratch.filled_files);
    assert_eq!(
        repaired.local_task_fraction,
        scratch.locality.task_fraction()
    );
    assert_eq!(
        repaired.local_byte_fraction,
        scratch.locality.byte_fraction()
    );

    // Dataset 1 was untouched: still a cache hit at its old generation.
    let still_warm = client.plan(1, Strategy::Opass, 9).expect("warm plan d1");
    assert!(still_warm.cached, "unrelated datasets are not flushed");
    assert_eq!(still_warm.generation, other.generation);

    // A second repair chains off the repaired session.
    let generation = client
        .invalidate_with_delta(0, &delta)
        .expect("second delta invalidate");
    let again = client.plan(0, Strategy::Opass, 9).expect("repaired again");
    assert!(again.repaired);
    assert_eq!(again.generation, generation);

    let stats = client.stats().expect("stats");
    assert!(stats.repaired >= 2, "both repairs counted");
    assert_eq!(stats.repair_us.count, stats.repaired);
    assert!(
        stats.cold_plan_us.count >= 2,
        "the two cold plans were timed"
    );
    handle.shutdown();
}

#[test]
fn churn_never_leaks_between_holders_of_a_shared_layout() {
    // A cold plan walks the dataset's layout once; the world's overlay,
    // the shard's layout cache and the plan's session then hold that one
    // copy. A delta must reach each of them exactly once: the served
    // replies stay equal to an in-process session and an in-process
    // world fed the same delta.
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let placement = spec.placement();
    let oracle = World::new(spec);
    let wire_entries = |dataset: usize| -> Vec<(u64, u64, Vec<u64>)> {
        let layout = oracle.capture_layout(dataset).expect("dataset exists");
        let entries = layout.entries().iter();
        entries
            .map(|e| {
                let locations = e.locations.iter().map(|n| u64::from(n.0)).collect();
                (e.chunk.0, e.size, locations)
            })
            .collect()
    };
    let served_entries = |client: &mut Client, dataset: usize| -> Vec<(u64, u64, Vec<u64>)> {
        let reply = client.layout(dataset).expect("layout");
        let entries = reply.entries.into_iter();
        entries.map(|e| (e.chunk, e.size, e.locations)).collect()
    };
    let base = oracle.capture_layout(0).expect("dataset exists");
    let mut session = OpassPlanner::default()
        .session(&PlanRequest::single_from_layout(&base, &placement).seed(9))
        .into_single()
        .expect("single session");

    let cold = client.plan(0, Strategy::Opass, 9).expect("cold plan");
    assert!(!cold.cached && !cold.repaired);
    assert_eq!(cold.owners, session.plan().assignment.owners());
    let before = served_entries(&mut client, 0);
    assert_eq!(before, wire_entries(0));

    // Move one replica of the first chunk to a node that holds none.
    let entry = &base.entries()[0];
    let to = (0..spec.n_nodes as u32)
        .map(NodeId)
        .find(|n| !entry.locations.contains(n))
        .expect("r < n_nodes leaves a free node");
    let delta = LayoutDelta::migration(entry.chunk, entry.locations[0], to);
    client
        .invalidate_with_delta(0, &delta)
        .expect("delta invalidate");
    oracle.invalidate_dataset(0, &delta).expect("valid dataset");
    let want = session.replan(&delta);

    let repaired = client.plan(0, Strategy::Opass, 9).expect("repaired plan");
    assert!(repaired.repaired);
    assert_eq!(repaired.owners, want.assignment.owners());
    assert_eq!(repaired.matched_files, want.matched_files);
    assert_eq!(repaired.filled_files, want.filled_files);
    assert_eq!(repaired.local_task_fraction, want.locality.task_fraction());
    assert_eq!(repaired.local_byte_fraction, want.locality.byte_fraction());

    let after = served_entries(&mut client, 0);
    assert_eq!(after, wire_entries(0));
    assert_ne!(after[0], before[0], "the moved replica shows");
    assert_eq!(after[1..], before[1..], "and nothing else moved");
    assert_eq!(
        base.entries()[0].locations[0],
        NodeId(before[0].2[0] as u32),
        "a snapshot captured before the churn keeps its layout"
    );
    assert_eq!(served_entries(&mut client, 1), wire_entries(1));
    handle.shutdown();
}

#[test]
fn a_repaired_plan_equals_an_in_process_session_owner_for_owner() {
    // A cold plan keeps its layout and owners, not a session; its first
    // repair resumes one from them. Each repaired reply must equal an
    // in-process session started on the same layout and fed the same
    // delta, through two cycles of cold plan, delta and repair (the
    // second after a bare invalidation), and every resume counts as a
    // repair, not a plan.
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let placement = spec.placement();
    let oracle = World::new(spec);
    let dataset = 1;
    let seed = 13;
    for cycle in 0..2u64 {
        if cycle > 0 {
            client.invalidate().expect("bare invalidate");
        }
        let base = oracle.capture_layout(dataset).expect("dataset exists");
        let request = PlanRequest::single_from_layout(&base, &placement).seed(seed);
        let mut session = OpassPlanner::default()
            .session(&request)
            .into_single()
            .expect("single session");

        let cold = client
            .plan(dataset, Strategy::Opass, seed)
            .expect("cold plan");
        assert!(!cold.cached && !cold.repaired, "cycle {cycle}: cold");
        assert_eq!(cold.owners, session.plan().assignment.owners());

        // Move one replica of chunk `cycle` to a node that holds none,
        // and drop one replica of the chunk after it.
        let (moved, dropped) = (&base.entries()[cycle as usize], &base.entries()[5]);
        let to = (0..spec.n_nodes as u32)
            .map(NodeId)
            .find(|n| !moved.locations.contains(n))
            .expect("r < n_nodes leaves a free node");
        let mut delta = LayoutDelta::migration(moved.chunk, moved.locations[0], to);
        delta
            .replicas_dropped
            .push((dropped.chunk, dropped.locations[1]));
        delta.normalize();
        client
            .invalidate_with_delta(dataset, &delta)
            .expect("delta invalidate");
        oracle
            .invalidate_dataset(dataset, &delta)
            .expect("valid dataset");
        let want = session.replan(&delta);

        let repaired = client.plan(dataset, Strategy::Opass, seed).expect("repair");
        assert!(repaired.repaired, "cycle {cycle}: repaired");
        assert_eq!(repaired.owners, want.assignment.owners(), "cycle {cycle}");
        assert_eq!(repaired.matched_files, want.matched_files);
        assert_eq!(repaired.filled_files, want.filled_files);
        assert_eq!(repaired.local_task_fraction, want.locality.task_fraction());
        assert_eq!(repaired.local_byte_fraction, want.locality.byte_fraction());

        let stats = client.stats().expect("stats");
        assert_eq!(stats.planned, cycle + 1, "cycle {cycle}: cold plans");
        assert_eq!(
            stats.repaired,
            cycle + 1,
            "cycle {cycle}: resumes are repairs"
        );
        assert_eq!(stats.repair_us.count, stats.repaired);
        assert_eq!(stats.cold_plan_us.count, stats.planned);
    }
    handle.shutdown();
}

#[test]
fn an_added_file_of_no_bytes_is_refused_and_the_dataset_keeps_planning() {
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let before = client.plan(0, Strategy::Opass, 3).expect("cold plan");

    let empty_file = LayoutDelta {
        files_added: vec![ChunkLayout {
            chunk: ChunkId(5000),
            size: 0,
            locations: vec![NodeId(2)].into(),
        }],
        ..Default::default()
    };
    match client.invalidate_with_delta(0, &empty_file) {
        Err(ClientError::Server(message)) => {
            assert!(
                message.contains("field \"size\" must be a positive integer"),
                "{message}"
            )
        }
        other => panic!("a zero-size file must draw a typed error, got {other:?}"),
    }

    // Nothing changed: the plan is still cached at its generation, and a
    // fresh key plans cold.
    let after = client
        .plan(0, Strategy::Opass, 3)
        .expect("plan after refusal");
    assert!(after.cached);
    assert_eq!(after.generation, before.generation);
    assert_eq!(after.owners, before.owners);
    let fresh = client
        .plan(0, Strategy::Opass, 4)
        .expect("cold plan after refusal");
    assert!(!fresh.cached);
    assert_eq!(fresh.owners.len(), spec.chunks_per_dataset);
    handle.shutdown();
}

#[test]
fn saturated_queue_sheds_with_typed_overloaded() {
    // One worker, queue of one, and plans that take many milliseconds:
    // a burst of eight distinct keys cannot all be admitted, and the
    // refusals must be typed `Overloaded`, never a hang or a dropped
    // connection. The burst is eight plan frames pipelined in one write,
    // so the server reads and submits all of them in one shard sweep,
    // long before the first admitted plan can finish.
    let handle = boot(spec_slow_plan(), 1, 1);
    let addr = handle.addr().to_string();

    const BURST: usize = 8;
    let mut burst = Vec::new();
    for seed in 0..BURST as u64 {
        let plan = Request::Plan {
            dataset: 0,
            strategy: Strategy::Opass,
            seed,
        };
        burst.extend(encode_frame(&plan.to_json()).expect("encode plan"));
    }
    // A layout and a place request behind the plans meet the same full
    // queue and draw the same typed refusal.
    let tail = [
        Request::Layout { dataset: 0 },
        Request::Place {
            dataset: 0,
            rounds: 1,
            budget: None,
            seed: 0,
        },
    ];
    for request in &tail {
        burst.extend(encode_frame(&request.to_json()).expect("encode tail"));
    }
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    raw.write_all(&burst).expect("write burst");
    let mut outcomes: Vec<Response> = (0..BURST + tail.len())
        .map(|_| Response::from_json(&read_frame(&mut raw).expect("reply frame")).expect("decodes"))
        .collect();
    let tail_outcomes = outcomes.split_off(BURST);
    assert!(
        tail_outcomes
            .iter()
            .all(|r| matches!(r, Response::Overloaded { .. })),
        "the layout and the place behind a full queue are typed-shed: {tail_outcomes:?}"
    );

    let served = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Plan(_)))
        .count();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Overloaded { .. }))
        .count();
    assert_eq!(
        served + shed,
        BURST,
        "every request is either served or typed-shed: {outcomes:?}"
    );
    assert!(served >= 1, "the admitted request completes");
    assert!(
        shed >= BURST - 2,
        "with one worker and a queue of one, at most two of {BURST} can be admitted"
    );

    let mut control = Client::connect(&addr).expect("control connect");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.shed, (shed + tail.len()) as u64);
    assert_eq!(stats.queue_capacity, 1);
    assert_eq!(stats.workers, 1);
    handle.shutdown();
}

#[test]
fn stampede_after_invalidation_coalesces_to_one_computation() {
    let handle = boot(spec_slow_plan(), 4, 64);
    let addr = handle.addr().to_string();
    let mut control = Client::connect(&addr).expect("control connect");

    const BURST: usize = 8;
    let mut coalesced = 0u64;
    for attempt in 0..16u64 {
        control.invalidate().expect("invalidate");
        let seed = 500_000 + attempt;
        let mut clients: Vec<Client> = (0..BURST)
            .map(|_| {
                let mut c = Client::connect(&addr).expect("connect");
                c.ping().expect("ping");
                c
            })
            .collect();
        let barrier = std::sync::Barrier::new(BURST);
        let replies: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        c.plan(0, Strategy::Opass, seed).expect("burst plan")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("burst thread"))
                .collect()
        });
        let owners = &replies[0].owners;
        assert!(
            replies.iter().all(|r| &r.owners == owners),
            "every stampeding client sees the same plan"
        );
        coalesced = control.stats().expect("stats").coalesced;
        if coalesced > 0 {
            break;
        }
    }
    assert!(
        coalesced > 0,
        "concurrent same-key requests must share the leader's computation"
    );
    handle.shutdown();
}

#[test]
fn pipelined_same_key_requests_share_one_flight() {
    // One shard, one worker, and four plan frames for one key followed
    // by four layout frames in a single write: the shard reads them all
    // in one sweep while the first cold plan holds the worker, so each
    // kind runs exactly one computation and the other three join it.
    let handle = boot_sharded(spec_slow_plan(), 1, 8, 1);
    let addr = handle.addr().to_string();

    const EACH: usize = 4;
    let plan = Request::Plan {
        dataset: 0,
        strategy: Strategy::Opass,
        seed: 7,
    };
    let layout = Request::Layout { dataset: 0 };
    let mut burst = Vec::new();
    for _ in 0..EACH {
        burst.extend(encode_frame(&plan.to_json()).expect("encode plan"));
    }
    for _ in 0..EACH {
        burst.extend(encode_frame(&layout.to_json()).expect("encode layout"));
    }
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    raw.write_all(&burst).expect("write burst");
    let mut next =
        || Response::from_json(&read_frame(&mut raw).expect("reply frame")).expect("decodes");

    let plans: Vec<_> = (0..EACH)
        .map(|_| match next() {
            Response::Plan(p) => p,
            other => panic!("expected a plan, got {other:?}"),
        })
        .collect();
    assert!(
        !plans[0].coalesced && !plans[0].cached,
        "the first request leads the flight"
    );
    for follower in &plans[1..] {
        assert!(follower.coalesced && !follower.cached, "the rest join it");
        assert_eq!(follower.owners, plans[0].owners);
    }

    let layouts: Vec<_> = (0..EACH)
        .map(|_| match next() {
            Response::Layout(l) => l,
            other => panic!("expected a layout, got {other:?}"),
        })
        .collect();
    assert!(!layouts[0].cached, "the layout was walked, not cached");
    for follower in &layouts[1..] {
        assert_eq!(follower, &layouts[0], "followers get the leader's bytes");
    }

    let mut control = Client::connect(&addr).expect("control connect");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.coalesced, 2 * (EACH as u64 - 1));
    let warm = control.plan(0, Strategy::Opass, 7).expect("fifth plan");
    assert!(warm.cached);
    assert_eq!(warm.owners, plans[0].owners);
    let warm = control.layout(0).expect("fifth layout");
    assert!(warm.cached);
    assert_eq!(warm.entries, layouts[0].entries);
    handle.shutdown();
}

#[test]
fn garbage_frames_draw_typed_errors_without_wedging_the_server() {
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let addr = handle.addr().to_string();

    // An oversized frame header is refused with a typed error reply.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let oversized = ((MAX_FRAME + 1) as u32).to_be_bytes();
    raw.write_all(&oversized).expect("write oversized header");
    let reply = read_frame(&mut raw).expect("error reply frame");
    let response = Response::from_json(&reply).expect("decodes");
    assert!(matches!(response, Response::Error { .. }));

    // A well-framed body that is not JSON draws the same treatment.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let body = b"not json at all";
    raw.write_all(&(body.len() as u32).to_be_bytes())
        .expect("header");
    raw.write_all(body).expect("body");
    let reply = read_frame(&mut raw).expect("error reply frame");
    let response = Response::from_json(&reply).expect("decodes");
    assert!(matches!(response, Response::Error { .. }));

    // A valid envelope with an unknown request type as well.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let json = opass_json::Json::parse(r#"{"v":1,"type":"frobnicate"}"#).expect("literal json");
    write_frame(&mut raw, &json).expect("write frame");
    let reply = read_frame(&mut raw).expect("error reply frame");
    let response = Response::from_json(&reply).expect("decodes");
    assert!(matches!(response, Response::Error { .. }));

    // So does a maximum-size body of `[`: the parser stops at its depth
    // limit instead of recursing once per byte off the shard's stack.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    raw.write_all(&(MAX_FRAME as u32).to_be_bytes())
        .expect("header");
    raw.write_all(&vec![b'['; MAX_FRAME]).expect("body");
    let reply = read_frame(&mut raw).expect("error reply frame");
    let response = Response::from_json(&reply).expect("decodes");
    assert!(matches!(response, Response::Error { .. }));

    // None of that wedged the server: a fresh client still gets plans.
    let mut client = Client::connect(&addr).expect("connect");
    let plan = client.plan(0, Strategy::Opass, 1).expect("plan");
    assert!(!plan.owners.is_empty());
    handle.shutdown();
}

#[test]
fn frames_delivered_one_byte_at_a_time_still_serve() {
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let addr = handle.addr().to_string();

    // Dribble a ping and then a plan request one byte per segment. The
    // reactor's frame buffer must reassemble across arbitrarily many
    // partial reads without consuming a thread per stalled connection.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    raw.set_nodelay(true).expect("nodelay");
    for request in [
        Request::Ping,
        Request::Plan {
            dataset: 0,
            strategy: Strategy::Opass,
            seed: 42,
        },
    ] {
        let bytes = encode_frame(&request.to_json()).expect("encode request");
        for byte in bytes {
            raw.write_all(&[byte]).expect("write one byte");
            raw.flush().expect("flush");
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let reply = read_frame(&mut raw).expect("reply frame");
        let response = Response::from_json(&reply).expect("decodes");
        match response {
            Response::Pong { .. } => {}
            Response::Plan(p) => assert_eq!(p.seed, 42),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn pipelined_requests_reply_in_request_order() {
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let addr = handle.addr().to_string();

    // One burst write carrying interleaved pings and plans with distinct
    // seeds. Replies complete out of order inside the server (cache hits
    // beat cold plans, pings beat everything) but must leave the
    // connection strictly in request order — the protocol has no ids.
    let seeds: Vec<u64> = (0..12).map(|i| 9_000 + i).collect();
    let mut burst = Vec::new();
    for &seed in &seeds {
        burst.extend(encode_frame(&Request::Ping.to_json()).expect("encode ping"));
        burst.extend(
            encode_frame(
                &Request::Plan {
                    dataset: (seed as usize) % spec.n_datasets,
                    strategy: Strategy::Opass,
                    seed,
                }
                .to_json(),
            )
            .expect("encode plan"),
        );
    }
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    raw.write_all(&burst).expect("write burst");
    for &seed in &seeds {
        let pong = Response::from_json(&read_frame(&mut raw).expect("pong frame")).expect("pong");
        assert!(
            matches!(pong, Response::Pong { .. }),
            "seed {seed}: pong first"
        );
        let plan = Response::from_json(&read_frame(&mut raw).expect("plan frame")).expect("plan");
        match plan {
            Response::Plan(p) => assert_eq!(p.seed, seed, "replies keep request order"),
            other => panic!("expected plan for seed {seed}, got {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn slow_reader_does_not_stall_its_shard() {
    // Layout replies on this world are hundreds of kilobytes; a reader
    // that never drains them fills the kernel send buffer, forcing the
    // shard's write state machine to park the connection mid-frame.
    let spec = ServeSpec {
        n_nodes: 16,
        n_datasets: 2,
        chunks_per_dataset: 8192,
        ..Default::default()
    };
    // A single shard: the slow reader and the live client share it, so
    // any blocking write in the reactor would stall the client below.
    let handle = boot_sharded(spec, 2, 64, 1);
    let addr = handle.addr().to_string();

    let mut slow = TcpStream::connect(&addr).expect("slow connect");
    let layout_req = encode_frame(&Request::Layout { dataset: 0 }.to_json()).expect("encode");
    let mut backlog = Vec::new();
    for _ in 0..48 {
        backlog.extend_from_slice(&layout_req);
    }
    // Tens of megabytes of replies now owe this connection; read none.
    slow.write_all(&backlog).expect("write layout burst");

    let mut live = Client::connect(&addr).expect("live connect");
    let first = live.plan(1, Strategy::Opass, 1).expect("cold plan");
    for _ in 0..100 {
        live.ping().expect("ping while slow reader is parked");
        let warm = live.plan(1, Strategy::Opass, 1).expect("warm plan");
        assert!(warm.cached, "the shard keeps serving its cache slice");
        assert_eq!(warm.owners, first.owners);
    }

    // The slow reader eventually drains one reply intact: the write
    // queue resumed mid-frame across however many short writes it took.
    let reply =
        Response::from_json(&read_frame(&mut slow).expect("first layout frame")).expect("decodes");
    match reply {
        Response::Layout(l) => assert_eq!(l.entries.len(), spec.chunks_per_dataset),
        other => panic!("expected layout, got {other:?}"),
    }
    drop(slow);
    handle.shutdown();
}

#[test]
fn stats_expose_per_shard_counters_in_order() {
    let spec = spec_small();
    let handle = boot(spec, 2, 32);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Datasets 0 and 1 live on different shards (dataset % 2); a single
    // connection exercises both the affine and the forwarded path.
    client.plan(0, Strategy::Opass, 5).expect("plan d0");
    client.plan(1, Strategy::Opass, 5).expect("plan d1");
    client.layout(0).expect("layout d0");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards.len(), 2, "one entry per shard");
    for (i, shard) in stats.shards.iter().enumerate() {
        assert_eq!(shard.shard, i, "ascending shard order is guaranteed");
    }
    assert_eq!(
        stats.shards.iter().map(|s| s.accepted).sum::<u64>(),
        1,
        "one connection accepted"
    );
    assert!(
        stats.shards.iter().map(|s| s.requests).sum::<u64>() >= 4,
        "frames counted on the owning shard"
    );
    assert!(
        stats.shards.iter().map(|s| s.forwarded).sum::<u64>() >= 1,
        "a request crossed the affinity boundary"
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.latency_us.count).sum::<u64>(),
        stats.latency_count,
        "per-shard latency histograms partition the merged one"
    );
    assert_eq!(stats.shards.iter().map(|s| s.pending).sum::<usize>(), 0);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let spec = spec_small();
    let handle = boot(spec, 2, 8);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    client.plan(0, Strategy::Opass, 3).expect("plan");
    client.shutdown().expect("shutdown acknowledged");
    handle.wait();
    assert!(
        Client::connect(&addr).is_err() || {
            // The OS may accept briefly after close on some platforms;
            // a request must then fail.
            let mut c = Client::connect(&addr).expect("raced connect");
            c.ping().is_err()
        },
        "a drained server accepts no new work"
    );
}

/// `replay_remote` against a fresh in-process server: the report is a
/// pure function of `(records, config)` and the served world, whatever
/// the shard count, and it repeats the recorded fingerprint.
#[test]
fn remote_replay_repeats_its_fingerprint_on_fresh_servers_at_any_shard_count() {
    let records = generate(&TraceSpec {
        records: 2_000,
        duration_s: 20.0,
        clients: 12,
        datasets: 4,
        chunks_per_dataset: 80,
        chunk_size: 1 << 20,
        ..TraceSpec::default()
    });
    let config = ReplayConfig {
        batch_records: 300,
        ..ReplayConfig::default()
    };
    let replay = |shards: usize, config: &ReplayConfig, records: &[opass_trace::TraceRecord]| {
        let handle = boot_sharded(spec_small(), 2, 32, shards);
        let mut client = Client::connect(handle.addr()).expect("connect");
        replay_remote(records, config, &mut client)
    };
    let runs: Vec<_> = [1, 1, 2, 2]
        .into_iter()
        .map(|shards| replay(shards, &config, &records).expect("remote replay"))
        .collect();
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run, &runs[0], "run {i} differs from run 0");
    }
    let report = &runs[0];
    assert_eq!(report.records, 2_000);
    assert_eq!(report.batches, 7);
    // Four trace datasets fold onto the three served ones.
    assert_eq!(report.datasets, 3);
    assert!(report.migrations > 0, "churn migrates replicas");
    assert_eq!(
        report.fingerprint(),
        0xa2f0_5685_9056_35c1,
        "fingerprint changed: {:#018x}",
        report.fingerprint()
    );

    let quiet = ReplayConfig {
        churn: false,
        ..config
    };
    assert_eq!(replay(1, &quiet, &records).expect("quiet").migrations, 0);

    assert!(matches!(
        replay(1, &config, &[]),
        Err(ReplayDriverError::BadInput(_))
    ));
    let no_batches = ReplayConfig {
        batch_records: 0,
        ..config
    };
    assert!(matches!(
        replay(1, &no_batches, &records),
        Err(ReplayDriverError::BadInput(_))
    ));
}
