//! The per-layer probes of the traced run: direct, timed calls into each
//! crate's public functions, on inputs generated from the run's seed the
//! same way the workloads generate theirs.
//!
//! Every traced run executes the whole suite, whatever its workload, so
//! each per-layer metric has one definition and one producer. None of
//! these numbers is gated; each names, in `README.md`, the end-to-end
//! metric it should move.

use crate::contract::Metrics;
use crate::harness::{median, percentile, process_cpu_us, Pacer, RoundOut, Tracer, Workload};
use crate::plan_mix::PlanMix;
use crate::serve::{self, Churn};
use crate::wire::{frame_of, Conn};
use crate::{sim_sweep, trace_replay};
use opass_core::dfs::{DatasetSpec, DfsConfig, LayoutDelta, Namenode, Placement, ReplicaChoice};
use opass_core::matching::{
    propose_moves, GuidedScheduler, IncrementalMatcher, Objective, PlacementPolicy,
    SingleDataMatcher,
};
use opass_core::runtime::{execute, ExecConfig, ProcessPlacement, TaskSource};
use opass_core::simio::{Engine, FlowSpec, Resource, ResourceId};
use opass_core::workloads::{single as single_wl, SingleDataConfig};
use opass_core::{
    build_locality_graph_from_layout, ClusterSpec, Dynamic, Experiment, ExperimentRun, MultiData,
    OpassPlanner, ParaView, PlanRequest, SingleData, Strategy,
};
use opass_json::Json;
use opass_serve::frame::{encode_frame, parse_body, HEADER_LEN};
use opass_serve::{replay_local, Request, Response, World};
use opass_trace::{generate, parse_binary, parse_text, write_binary, write_text};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A timed probe takes this many samples, unless its timed work reaches
/// [`PROBE_SECONDS`] first (and then at least [`PROBE_MIN`]); it reports
/// their median.
const PROBE_SAMPLES: usize = 500;
const PROBE_SECONDS: f64 = 0.2;
const PROBE_MIN: usize = 2;

/// Wall time of one call of `f`; the result is dropped after the clock
/// stopped, as the workloads' ops do.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    let out = black_box(f());
    let elapsed = t0.elapsed();
    drop(out);
    elapsed
}

/// Median, in microseconds, of the durations `f` measures itself (so it
/// can reset state, untimed, before the part it times).
fn probe_timed_us(mut f: impl FnMut() -> Duration) -> f64 {
    let mut samples = Vec::with_capacity(PROBE_SAMPLES);
    let mut total = 0.0;
    while samples.len() < PROBE_SAMPLES && (total < PROBE_SECONDS || samples.len() < PROBE_MIN) {
        let secs = f().as_secs_f64();
        total += secs;
        samples.push(secs * 1e6);
    }
    median(&samples)
}

/// Median wall time of a call of `f`, microseconds.
fn probe_us<T>(mut f: impl FnMut() -> T) -> f64 {
    probe_timed_us(|| timed(&mut f))
}

/// Runs every probe and records every per-layer metric except the ones
/// the workload's own phases produce.
pub fn run(seed: u64, m: &mut Metrics) {
    planner_probes(seed, m);
    serve_probes(seed, m);
    trace_probes(seed, m);
    sim_probes(seed, m);
}

/// The inverse of a migration-shaped delta.
fn undo_of(delta: &LayoutDelta) -> LayoutDelta {
    let back: Vec<_> = delta
        .migration_pairs()
        .expect("churn deltas are migration-shaped")
        .iter()
        .map(|&(c, from, to)| (c, to, from))
        .collect();
    LayoutDelta::migrations(&back)
}

// ---------------------------------------------------------------------
// core, matching, dfs — on plan_mix's inputs
// ---------------------------------------------------------------------

fn planner_probes(seed: u64, m: &mut Metrics) {
    let mut mix = PlanMix::prepare(seed);
    let tr = &mut Tracer::new();

    // core.*: each op class of plan_mix's round, on its own.
    let mut seeds = mix.cold_seeds.into_iter().cycle();
    m.set(
        "core.plan_single_us",
        probe_us(|| mix.cold_plan(tr, seeds.next().expect("cycles"))),
    );
    m.set("core.session_start_us", probe_us(|| mix.start_session(tr)));
    // The deltas form one stream; a fresh session (untimed) starts it over.
    let mut session = mix.start_session(tr);
    let mut next = 0;
    m.set(
        "core.replan_us",
        probe_timed_us(|| {
            if next == mix.deltas.len() {
                session = mix.start_session(tr);
                next = 0;
            }
            next += 1;
            timed(|| PlanMix::replan(&mut session, tr, &mix.deltas[next - 1]))
        }),
    );
    drop(session);
    m.set("core.plan_multi_us", probe_us(|| mix.multi_plan(tr)));
    m.set("core.plan_dynamic_us", probe_us(|| mix.dynamic_plan(tr)));
    m.set("core.place_run_us", probe_us(|| mix.place(tr)));

    // dfs: namenode build at the session dataset's size; one churn delta
    // and its inverse, in turn, applied to the snapshot and as migrations
    // to the namenode (both move the same number of replicas, and an even
    // count leaves the state where it began).
    let mut rng = StdRng::seed_from_u64(seed);
    m.set(
        "dfs.build_namenode_ms",
        probe_us(|| {
            let mut nn = Namenode::new(crate::plan_mix::NODES, DfsConfig::default());
            nn.create_dataset(
                &DatasetSpec::uniform("probe", crate::plan_mix::SESSION_CHUNKS, 64 << 20),
                &Placement::Random,
                &mut rng,
            );
            nn
        }) / 1e3,
    );
    let delta = mix.deltas[0].clone();
    let undo = undo_of(&delta);
    let turn = |k: usize| if k.is_multiple_of(2) { &delta } else { &undo };
    let mut snapshot = mix.session_layout.clone();
    let mut k = 0;
    m.set(
        "dfs.apply_delta_us",
        probe_us(|| {
            k += 1;
            snapshot.apply_delta(turn(k - 1))
        }),
    );
    let mut k = 0;
    m.set(
        "dfs.apply_migrations_us",
        probe_us(|| {
            k += 1;
            mix.namenode
                .apply_migrations(turn(k - 1))
                .expect("migration applies")
        }),
    );
    if k % 2 == 1 {
        mix.namenode
            .apply_migrations(&undo)
            .expect("migration applies");
    }

    // matching: the kernels under the planner calls above.
    let placement = ProcessPlacement::one_per_node(crate::plan_mix::NODES);
    let planner = OpassPlanner::default();
    let matcher = SingleDataMatcher {
        algo: planner.algo,
        fill: planner.fill,
        objective: planner.objective,
    };
    let cold_graph = build_locality_graph_from_layout(&mix.cold_layout, &placement);
    m.set(
        "matching.single_maxflow_us",
        probe_us(|| matcher.assign(&cold_graph, &mut StdRng::seed_from_u64(seed))),
    );
    let session_graph = build_locality_graph_from_layout(&mix.session_layout, &placement);
    let mut repairer = IncrementalMatcher::new(session_graph, Objective::default());
    let index = opass_core::dfs::ChunkIndex::build(&mix.session_layout);
    let file_of = |c| index.get(c).expect("delta chunks are in the snapshot");
    let mut k = 0;
    m.set(
        "matching.repair_batch_us",
        probe_timed_us(|| {
            k += 1;
            let delta = turn(k - 1);
            for &(c, n) in &delta.replicas_dropped {
                repairer.stage_remove_edge(n.index(), file_of(c));
            }
            for &(c, n) in &delta.replicas_added {
                repairer.stage_add_edge(n.index(), file_of(c), 64 << 20);
            }
            timed(|| repairer.repair_batch())
        }),
    );
    let dynamic_plan = planner
        .plan(&PlanRequest::single(&mix.namenode, &mix.dynamic_tasks, &placement).seed(seed))
        .into_single()
        .expect("single request yields a single plan");
    m.set(
        "matching.guided_lists_us",
        probe_timed_us(|| {
            let values = mix.dynamic_values.clone();
            timed(|| GuidedScheduler::new(&dynamic_plan.assignment, values))
        }),
    );
    let hot_graph = build_locality_graph_from_layout(&mix.hot_layout, &placement);
    let hot_matcher = IncrementalMatcher::new(hot_graph, Objective::default());
    let hot_sizes = mix.hot_layout.sizes();
    m.set(
        "matching.propose_moves_us",
        probe_us(|| propose_moves(&hot_matcher, &hot_sizes, &PlacementPolicy::default())),
    );
}

// ---------------------------------------------------------------------
// opass-json, serve::{frame, protocol, reactor, conn, planning, cache,
// pool, spec} — on a served world of the workloads' size
// ---------------------------------------------------------------------

/// Median of `n` back-to-back request/reply round-trips on `conn`,
/// microseconds.
fn rtt_p50_us(conn: &mut Conn, frame: &[u8], n: usize) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            conn.send(frame);
            black_box(conn.recv());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn serve_probes(seed: u64, m: &mut Metrics) {
    // serve::spec: the world build that dominates serve_* set-up, then
    // base-layout walks and journalled deltas (each followed, a lap
    // later, by its inverse) on the first 32 datasets.
    const TOUCHED: usize = 32;
    let mut world = None;
    m.set(
        "serve.world.build_ms",
        probe_timed_us(|| {
            drop(world.take());
            let t0 = Instant::now();
            world = Some(World::new(serve::spec(seed)));
            t0.elapsed()
        }) / 1e3,
    );
    let world = world.expect("built at least once");
    let mut k = 0;
    m.set(
        "serve.world.capture_layout_us",
        probe_us(|| {
            k += 1;
            world.capture_layout(k % TOUCHED).expect("dataset exists")
        }),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let deltas: Vec<(LayoutDelta, LayoutDelta)> = (0..TOUCHED)
        .map(|d| {
            let layout = world.capture_layout(d).expect("dataset exists");
            serve::migrations(&layout, &mut rng)
        })
        .collect();
    let mut k = 0;
    m.set(
        "serve.world.invalidate_delta_us",
        probe_us(|| {
            let (delta, undo) = &deltas[k % TOUCHED];
            let delta = if (k / TOUCHED).is_multiple_of(2) {
                delta
            } else {
                undo
            };
            k += 1;
            world.invalidate_dataset((k - 1) % TOUCHED, delta)
        }),
    );
    drop((world, deltas));

    let mut churn = Churn::prepare(seed);
    let mut tr = Tracer::new();
    churn.warm_up(&mut tr);
    m.set(
        "serve.cold_fill_plans_per_s",
        churn.bed.cold_fill_plans_per_s,
    );

    // opass-json, serve::frame, serve::protocol: on the recorded
    // 1280-owner hit reply and the request that fetched it.
    let body = churn.bed.hot[0].reply.clone();
    let text = std::str::from_utf8(&body).expect("reply bodies are UTF-8");
    let json = Json::parse(text).expect("reply bodies are JSON");
    let per_byte = |us: f64, bytes: usize| us * 1e3 / bytes as f64;
    m.set(
        "json.parse_ns_per_byte",
        per_byte(probe_us(|| Json::parse(text)), body.len()),
    );
    m.set(
        "json.encode_ns_per_byte",
        per_byte(probe_us(|| json.to_compact()), body.len()),
    );
    // The same parser on a layout reply: 1280 small objects, three keys
    // each. It re-validates the rest of the input for every character of
    // every string, so key-heavy documents cost far more per byte.
    let layout_frame = frame_of(&Request::Layout { dataset: 0 });
    let a = churn.bed.a.as_mut().expect("warmed up");
    a.send(&layout_frame);
    let layout_body = a.recv().to_vec();
    let layout_text = std::str::from_utf8(&layout_body).expect("reply bodies are UTF-8");
    m.set(
        "json.parse_layout_ns_per_byte",
        per_byte(probe_us(|| Json::parse(layout_text)), layout_body.len()),
    );
    let frame_len = HEADER_LEN + body.len();
    m.set("serve.frame.reply_bytes", frame_len as f64);
    m.set(
        "serve.frame.encode_ns_per_byte",
        per_byte(probe_us(|| encode_frame(&json)), frame_len),
    );
    m.set(
        "serve.frame.decode_ns_per_byte",
        per_byte(probe_us(|| parse_body(&body)), frame_len),
    );
    let request_json = parse_body(&churn.bed.hot[0].frame[HEADER_LEN..]).expect("request parses");
    // Tens of nanoseconds a call: timed a thousand at a time, so the
    // clock's own cost and resolution stay out of the number.
    const DECODES: usize = 1000;
    m.set(
        "serve.protocol.request_decode_us",
        probe_us(|| {
            for _ in 0..DECODES {
                drop(black_box(Request::from_json(black_box(&request_json))));
            }
        }) / DECODES as f64,
    );
    let reply = Response::from_json(&json).expect("reply decodes");
    m.set(
        "serve.protocol.reply_encode_us",
        probe_us(|| reply.to_json()),
    );
    m.set(
        "serve.protocol.reply_decode_us",
        probe_us(|| Response::from_json(&json)),
    );

    // serve::reactor / conn, over loopback. The server's shard parks
    // after ~1024 idle sweeps, so back-to-back and spaced round-trips
    // are different numbers; so are one request and a pipelined burst.
    const RTTS: usize = 2000;
    let ping = frame_of(&Request::Ping);
    let hit = churn.bed.hot[0].frame.clone();
    let burst = churn.bed.burst.clone();
    let addr = churn.bed.addr();
    let a = churn.bed.a.as_mut().expect("warmed up");
    m.set("serve.wire.ping_rtt_p50_us", rtt_p50_us(a, &ping, RTTS));
    // Pings on serve_hot's open-loop schedule (200 a second): what a
    // parked shard adds to a round-trip, how late this host's load
    // generator runs, and what the process burns per paced request.
    const PACED_PINGS: usize = 100;
    let mut pacer = Pacer::new(serve::HOT_PERIOD);
    let cpu0 = process_cpu_us();
    let idle_rtts: Vec<f64> = (0..PACED_PINGS)
        .map(|_| {
            pacer.wait();
            let t0 = Instant::now();
            a.send(&ping);
            black_box(a.recv());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set(
        "paced.cpu_us_per_op",
        (process_cpu_us() - cpu0) / PACED_PINGS as f64,
    );
    m.set("serve.wire.idle_ping_rtt_p50_us", median(&idle_rtts));
    m.set("loadgen.lag_p99_us", percentile(&pacer.lag_us, 0.99));
    let hit_rtt = rtt_p50_us(a, &hit, RTTS);
    m.set("serve.wire.hit_rtt_p50_us", hit_rtt);
    m.set(
        "serve.wire.burst8_ms",
        probe_us(|| {
            a.send(&burst);
            for _ in 0..serve::HOT {
                black_box(a.recv());
            }
        }) / 1e3,
    );
    // The old mux shape: a sliding window of 8 requests on each of two
    // connections, one reply read and one request written at a time.
    let b = churn.bed.b.as_mut().expect("warmed up");
    const WINDOW: usize = 8;
    const PER_CONN: usize = 16_000;
    let t0 = Instant::now();
    for conn in [&mut *a, &mut *b] {
        for _ in 0..WINDOW {
            conn.send(&hit);
        }
    }
    for i in 0..PER_CONN {
        for conn in [&mut *a, &mut *b] {
            black_box(conn.recv());
            if i + WINDOW < PER_CONN {
                conn.send(&hit);
            }
        }
    }
    m.set(
        "serve.wire.sliding_req_per_s",
        (2 * PER_CONN) as f64 / t0.elapsed().as_secs_f64(),
    );
    // What each idle connection adds to a hit, through the shard's
    // sweep over all of its connections.
    const IDLE_CONNS: usize = 256;
    let idle: Vec<Conn> = (0..IDLE_CONNS).map(|_| Conn::connect(addr)).collect();
    let crowded = rtt_p50_us(a, &hit, RTTS);
    drop(idle);
    m.set(
        "serve.wire.idle_conn_cost_ns",
        (crowded - hit_rtt) * 1e3 / IDLE_CONNS as f64,
    );

    // serve::planning / cache / pool, from the service's own `stats`
    // over four churn rounds (after two that settle the cycle).
    const ROUNDS: u64 = 4;
    let mut churn_round = |churn: &mut Churn| {
        let mut out = RoundOut::default();
        churn.round(&mut tr, &mut out);
        assert_eq!(
            out.failed + churn.check_round(&mut tr),
            0,
            "churn round verifies"
        );
    };
    churn_round(&mut churn);
    churn_round(&mut churn);
    let before = churn.bed.stats();
    for _ in 0..ROUNDS {
        churn_round(&mut churn);
    }
    let after = churn.bed.stats();
    let steps = (ROUNDS * serve::STEPS as u64) as f64;
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    m.set("serve.cache.hit_ratio", hits / (hits + misses));
    m.set(
        "serve.flight.coalesced_per_step",
        (after.coalesced - before.coalesced) as f64 / steps,
    );
    m.set(
        "serve.plan.repaired_per_step",
        (after.repaired - before.repaired) as f64 / steps,
    );
    m.set(
        "serve.plan.cold_per_round",
        (after.planned - before.planned) as f64 / ROUNDS as f64,
    );
    m.set("serve.pool.shed", after.shed as f64);
    // Means: the service's percentiles are power-of-two bucket edges, so
    // its p50 reads 32 or 64 us and nothing in between.
    m.set("serve.stats.repair_mean_us", after.repair_us.mean_us);
    m.set("serve.stats.cold_plan_mean_us", after.cold_plan_us.mean_us);
    Box::new(churn).finish(&mut tr);
}

// ---------------------------------------------------------------------
// trace, serve::replay — on an eighth of the workload's trace
// ---------------------------------------------------------------------

fn trace_probes(seed: u64, m: &mut Metrics) {
    const RECORDS: u64 = trace_replay::RECORDS / 8;
    let spec = trace_replay::spec(seed, RECORDS);
    let per_rec = |us: f64| us * 1e3 / RECORDS as f64;
    m.set(
        "trace.gen_ns_per_rec",
        per_rec(probe_us(|| generate(&spec))),
    );
    let records = generate(&spec);
    m.set(
        "trace.write_text_ns_per_rec",
        per_rec(probe_us(|| write_text(&records))),
    );
    let text = write_text(&records);
    m.set(
        "trace.parse_text_ns_per_rec",
        per_rec(probe_us(|| {
            let parsed = parse_text(black_box(&text)).expect("rendered trace parses");
            assert_eq!(parsed.len(), records.len());
            parsed
        })),
    );
    let binary = write_binary(&records);
    m.set(
        "trace.parse_binary_ns_per_rec",
        per_rec(probe_us(|| {
            let parsed = parse_binary(black_box(&binary)).expect("binary trace parses");
            assert_eq!(parsed.len(), records.len());
            parsed
        })),
    );

    // Three laps over the probe trace's eight slices: a fixed op count, so
    // the two counts below repeat exactly for one seed.
    const LAPS: usize = 3;
    let config = trace_replay::replay_config(seed);
    let (mut migrations, mut batches, mut replayed) = (0u64, 0usize, 0u64);
    let mut samples = Vec::new();
    for slice in std::iter::repeat_n(&records, LAPS).flat_map(|r| r.chunks(trace_replay::SLICE)) {
        let t0 = Instant::now();
        let report = replay_local(slice, &config).expect("slice replays");
        samples.push(t0.elapsed().as_secs_f64() * 1e9 / trace_replay::SLICE as f64);
        migrations += report.migrations;
        batches += report.batches;
        replayed += report.records;
    }
    m.set("serve.replay.ns_per_rec", median(&samples));
    m.set(
        "serve.replay.migrations_per_mrec",
        migrations as f64 * 1e6 / replayed as f64,
    );
    m.set(
        "serve.replay.batches_per_op",
        batches as f64 / samples.len() as f64,
    );
}

// ---------------------------------------------------------------------
// simio, runtime, workloads, core::experiment
// ---------------------------------------------------------------------

/// The engine-only sweep: 25 600 chunk reads over 1024 nodes' disks and
/// NICs, 70 % remote, issued 128 at a time — no executor, no planner.
const SWEEP_FLOWS: usize = 25_600;

/// One sweep: how long the engine took and what it counted.
fn engine_sweep(seed: u64) -> (Duration, opass_core::simio::EngineStats) {
    const NODES: usize = 1024;
    const FLOWS: usize = SWEEP_FLOWS;
    const CONCURRENCY: f64 = 128.0;
    const CHUNK: u64 = 64 << 20;
    const DISK_BW: f64 = 72e6;
    let mut engine = Engine::new();
    let ids: Vec<[ResourceId; 3]> = (0..NODES)
        .map(|_| {
            [
                engine.add_resource(Resource::disk("disk", DISK_BW, 0.35, 0.15)),
                engine.add_resource(Resource::constant("nic_out", 117e6)),
                engine.add_resource(Resource::constant("nic_in", 117e6)),
            ]
        })
        .collect();
    let spacing = CHUNK as f64 / DISK_BW / CONCURRENCY;
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    for i in 0..FLOWS {
        use rand::Rng;
        let (src, dst) = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
        let spec = if src != dst && rng.gen_bool(0.7) {
            FlowSpec::new(CHUNK, vec![ids[src][0], ids[src][1], ids[dst][2]], i as u64)
                .with_rate_cap(34e6)
        } else {
            FlowSpec::new(CHUNK, vec![ids[src][0]], i as u64)
        };
        engine.start_flow(spec.with_latency(i as f64 * spacing));
    }
    let mut completions = 0usize;
    while engine.next_event().is_some() {
        completions += 1;
    }
    assert_eq!(completions, FLOWS, "every flow completes");
    (t0.elapsed(), engine.stats())
}

/// Mean simulated I/O time of the experiment's first strategy (its
/// baseline) over that of its last (the Opass one).
fn io_speedup(runs: &[(Strategy, ExperimentRun)]) -> f64 {
    let mean = |run: &ExperimentRun| run.result.io_summary().mean;
    mean(&runs[0].1) / mean(&runs[runs.len() - 1].1)
}

fn sim_probes(seed: u64, m: &mut Metrics) {
    let mut stats = None;
    let sweep_us = probe_timed_us(|| {
        let (elapsed, counted) = engine_sweep(seed);
        stats = Some(counted);
        elapsed
    });
    m.set("simio.events_per_s", SWEEP_FLOWS as f64 * 1e6 / sweep_us);
    let stats = stats.expect("swept at least once");
    let completions = stats.completions as f64;
    m.set(
        "simio.recompute_passes_per_completion",
        stats.recompute_passes as f64 / completions,
    );
    m.set(
        "simio.flows_rerated_per_completion",
        stats.flows_rerated as f64 / completions,
    );
    m.set(
        "simio.eta_stale_ratio",
        stats.eta_stale as f64 / stats.eta_pushed as f64,
    );

    // workloads + runtime: generate, plan and execute the Marmot-scale
    // single-data scenario, each step timed on its own.
    let n = sim_sweep::MARMOT_NODES;
    let config = SingleDataConfig {
        n_procs: n,
        chunks_per_process: sim_sweep::PER_PROCESS,
        chunk_size: 64 << 20,
    };
    let generate = || {
        let mut nn = Namenode::new(n, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, tasks) = single_wl::generate(&mut nn, &config, &Placement::Random, &mut rng);
        (nn, tasks)
    };
    m.set("workloads.generate_us", probe_us(generate));
    let (nn, tasks) = generate();
    let placement = ProcessPlacement::one_per_node(n);
    let plan = OpassPlanner::default()
        .plan(&PlanRequest::single(&nn, &tasks, &placement).seed(seed))
        .into_single()
        .expect("single request yields a single plan");
    let exec = ExecConfig {
        replica_choice: ReplicaChoice::PreferLocalRandom,
        seed,
        ..ExecConfig::default()
    };
    m.set(
        "runtime.execute_us",
        probe_timed_us(|| {
            let source = TaskSource::Static(plan.assignment.clone());
            timed(|| execute(&nn, &tasks, &placement, source, &exec))
        }),
    );

    // core::experiment: the paper's four scenarios end to end at the
    // default 64 nodes, seeded. The simulated values are deterministic
    // and must repeat exactly between runs of one seed.
    let cluster = |salt: u64| ClusterSpec::default().with_seed(seed ^ salt);
    let single = SingleData {
        cluster: cluster(0x51),
        ..SingleData::default()
    };
    m.set(
        "core.experiment_run_us",
        probe_us(|| single.run(Strategy::Opass).expect("supported strategy")),
    );
    let single_runs = single.compare();
    m.set("sim.io_speedup.single_data", io_speedup(&single_runs));
    m.set(
        "sim.makespan_s.single_data",
        single_runs[single_runs.len() - 1].1.result.makespan,
    );
    let multi = MultiData {
        cluster: cluster(0x3017),
        ..MultiData::default()
    };
    m.set("sim.io_speedup.multi_data", io_speedup(&multi.compare()));
    let dynamic = Dynamic {
        cluster: cluster(0xD1A),
        ..Dynamic::default()
    };
    m.set("sim.io_speedup.dynamic", io_speedup(&dynamic.compare()));
    let paraview = ParaView {
        cluster: cluster(0x9A7A),
        ..ParaView::default()
    };
    m.set("sim.io_speedup.paraview", io_speedup(&paraview.compare()));
}
