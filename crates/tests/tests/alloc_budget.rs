//! Memory budgets that need no clock: a counting global allocator pins
//! what the served world, a planning session and the layout handles
//! around them hold, what the rack graph holds, and what the max-flow
//! solve, Algorithm 1 and one trace replay need while they run, in
//! requested bytes and in allocator calls, and what a simulated run's
//! engine keeps per flow. `peak_rss_mib` is the metric
//! the benchmark gates; these are the per-structure numbers under it
//! (DESIGN.md §16), so a per-chunk `Vec` or a copy that creeps back in
//! fails here the day it is written.
//!
//! This file is the workspace's one audited use of `unsafe` (the
//! `no-unsafe` rule in `lint.toml` names it): a `GlobalAlloc` cannot be
//! written without it. It is its own test binary so nothing else runs
//! in the process, and it counts only on the thread that asked, so
//! neither the other test nor the harness's own threads can leak into a
//! measurement.

#![allow(unsafe_code)]

use opass_core::planner::OpassPlanner;
use opass_core::request::PlanRequest;
use opass_core::{
    build_locality_graph_from_layout, build_matching_values, build_rack_graph, SingleDataSession,
};
use opass_dfs::{
    ChunkIndex, ChunkLayout, DatasetSpec, DfsConfig, LayoutDelta, LayoutSnapshot, Namenode, NodeId,
    Placement, RackMap,
};
use opass_matching::{assign_multi_data, BipartiteGraph, SingleDataMatcher};
use opass_runtime::baseline::rank_interval;
use opass_runtime::{execute, ExecConfig, IoRecord, ProcessPlacement, TaskSource};
use opass_serve::{replay_local, ReplayConfig, ServeSpec, World};
use opass_simio::{Engine, Event, FlowSpec, Resource, ResourceId};
use opass_trace::{generate, TraceSpec};
use opass_workloads::{multi as multi_wl, single as single_wl, MultiDataConfig, SingleDataConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Whether this thread is inside [`measure`].
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// Allocator calls that handed out memory (`alloc`, `realloc`).
    static CALLS: Cell<usize> = const { Cell::new(0) };
    /// Requested bytes handed out minus requested bytes returned.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` has stood since [`measure`] last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn record(calls: usize, bytes: isize) {
    if MEASURING.get() {
        CALLS.set(CALLS.get() + calls);
        LIVE.set(LIVE.get() + bytes);
        PEAK.set(PEAK.get().max(LIVE.get()));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls touches only const-initialised, destructor-free thread-locals,
// which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as isize);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as isize);
        // SAFETY: the caller's obligations are `System::alloc_zeroed`'s own.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with this layout, and the
        // caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` cost this thread: allocator calls made, requested bytes
/// still live when it returned (its result is kept alive, so this is
/// what the result holds), and the most that was live at once while it
/// ran (result and scratch together).
struct Cost {
    calls: usize,
    live_bytes: isize,
    peak_bytes: isize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (calls, live) = (CALLS.get(), LIVE.get());
    PEAK.set(live);
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    let cost = Cost {
        calls: CALLS.get() - calls,
        live_bytes: LIVE.get() - live,
        peak_bytes: PEAK.get() - live,
    };
    (out, cost)
}

fn dataset_world(n_nodes: usize, n_chunks: usize) -> (LayoutSnapshot, ProcessPlacement) {
    let mut nn = Namenode::new(n_nodes, DfsConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    let ds = nn.create_dataset(
        &DatasetSpec::uniform("d", n_chunks, 64 << 20),
        &Placement::Random,
        &mut rng,
    );
    let chunks = nn.dataset(ds).expect("dataset exists").chunks.clone();
    (
        LayoutSnapshot::capture(&nn, &chunks),
        ProcessPlacement::one_per_node(n_nodes),
    )
}

fn start_session(snapshot: &LayoutSnapshot, placement: &ProcessPlacement) -> SingleDataSession {
    OpassPlanner::default()
        .session(&PlanRequest::single_from_layout(snapshot, placement).seed(1))
        .into_single()
        .expect("single session")
}

#[test]
fn a_session_and_its_layout_handles_stay_within_their_memory_budgets() {
    // One `serve_hot` dataset, and the benchmark's session-start probe.
    for (n_nodes, n_chunks) in [(64, 1280), (128, 32_768)] {
        let (snapshot, placement) = dataset_world(n_nodes, n_chunks);
        let per_chunk = |cost: &Cost| cost.live_bytes as f64 / n_chunks as f64;

        // The session shares the snapshot it was started from, so this
        // is its own state: graph, matching, chunk index, rendered plan.
        let (session, held) = measure(|| start_session(&snapshot, &placement));
        assert!(session.snapshot().ptr_eq(&snapshot));
        assert!(
            per_chunk(&held) <= 110.0,
            "{n_nodes} x {n_chunks}: a session holds {:.1} B/chunk",
            per_chunk(&held)
        );

        // Built exact, so a copy has no growth slack to shed.
        let (copy, copied) = measure(|| session.clone());
        let ratio = copied.live_bytes as f64 / held.live_bytes as f64;
        assert!(
            (0.98..=1.02).contains(&ratio),
            "{n_nodes} x {n_chunks}: a session copy holds {ratio:.3} of the session"
        );
        drop(copy);

        // Chunk ids in dataset order index as one run.
        let (index, built) = measure(|| ChunkIndex::build(&snapshot));
        assert_eq!(index.len(), n_chunks);
        assert_eq!(built.calls, 1, "{n_nodes} x {n_chunks}: index build");

        // A snapshot handle is a reference count, not a copy.
        let (handle, cloned) = measure(|| snapshot.clone());
        assert!(handle.ptr_eq(&snapshot));
        assert_eq!(cloned.calls, 0, "{n_nodes} x {n_chunks}: snapshot clone");
    }
}

#[test]
fn the_served_world_holds_its_layouts_and_nothing_else() {
    // `serve_hot`'s world: 64 nodes, 256 datasets of 1 280 chunks.
    let spec = ServeSpec {
        n_nodes: 64,
        n_datasets: 256,
        chunks_per_dataset: 1280,
        chunk_size: 64 << 20,
        replication: 3,
        seed: 1,
    };
    let n_chunks = spec.n_datasets * spec.chunks_per_dataset;

    // 32 B of `ChunkLayout` per chunk and a few dozen bytes per dataset.
    // Built straight into place: no block map beside it, not even for a
    // moment, and two allocations per dataset (its entries, their `Arc`).
    let (world, built) = measure(|| World::new(spec));
    let per_chunk = built.live_bytes as f64 / n_chunks as f64;
    assert!(per_chunk <= 33.0, "the world holds {per_chunk:.2} B/chunk");
    assert!(
        built.peak_bytes - built.live_bytes <= 64 << 10,
        "building the world peaked {} B above what it holds",
        built.peak_bytes - built.live_bytes
    );
    assert!(
        built.calls <= 2 * spec.n_datasets + 16,
        "building the world made {} allocator calls",
        built.calls
    );

    // Serving a layout hands out a handle to the world's copy.
    let (layout, served) = measure(|| world.capture_layout(7).expect("dataset exists"));
    assert_eq!(served.calls, 0, "capture_layout");
    let dataset_bytes = (layout.len() * std::mem::size_of::<ChunkLayout>()) as isize;

    // A dataset's first delta copies that dataset while a handle to it is
    // out (the layout cache's, here `layout`), and only that dataset; the
    // journal entry is the rest.
    let drop_first_replica = |layout: &LayoutSnapshot| LayoutDelta {
        replicas_dropped: vec![(layout.entries()[0].chunk, layout.entries()[0].locations[0])],
        ..Default::default()
    };
    let delta = drop_first_replica(&layout);
    let (_, churned) = measure(|| world.invalidate_dataset(7, &delta));
    assert!(
        (dataset_bytes..=dataset_bytes + 4096).contains(&churned.live_bytes),
        "a first delta with a handle out kept {} B (one dataset is {dataset_bytes})",
        churned.live_bytes
    );
    // With no handle out there is nothing to copy: it advances in place.
    let delta = drop_first_replica(&world.capture_layout(8).expect("dataset exists"));
    let (_, in_place) = measure(|| world.invalidate_dataset(8, &delta));
    assert!(
        in_place.live_bytes <= 4096,
        "a first delta with no handle out kept {} B",
        in_place.live_bytes
    );
}

#[test]
fn bare_flushes_fill_each_journal_to_its_cap_and_no_further() {
    // Every bare `invalidate` journals a marker in every dataset. Three
    // journals' worth of them leave each dataset `JOURNAL_CAP` (64)
    // entries of 16 B, and no buffer grown past that.
    const JOURNAL_CAP: usize = 64;
    let spec = ServeSpec {
        n_nodes: 16,
        n_datasets: 32,
        chunks_per_dataset: 64,
        ..ServeSpec::default()
    };
    let world = World::new(spec);
    let (_, flushed) = measure(|| {
        for _ in 0..3 * JOURNAL_CAP {
            world.invalidate();
        }
    });
    let bound = (spec.n_datasets * JOURNAL_CAP * 16) as isize;
    assert!(
        flushed.live_bytes <= bound,
        "{} bare flushes kept {} B (bound {bound})",
        3 * JOURNAL_CAP,
        flushed.live_bytes
    );
}

#[test]
fn a_replica_migration_at_three_replicas_allocates_nothing() {
    // A move drops the old holder before it adds the new one, so a
    // three-holder set never passes through four (a heap spill): a
    // migration delta applied in place makes no allocator call.
    let (mut snapshot, _) = dataset_world(16, 256);
    let mut index = ChunkIndex::build(&snapshot);
    let mut delta = LayoutDelta::default();
    for entry in snapshot.entries().iter().take(64) {
        let to = (0..16)
            .map(NodeId)
            .find(|n| !entry.locations.contains(n))
            .expect("r = 3 on 16 nodes leaves a free node");
        delta
            .replicas_dropped
            .push((entry.chunk, entry.locations[0]));
        delta.replicas_added.push((entry.chunk, to));
    }
    let (_, applied) = measure(|| snapshot.apply_delta_indexed(&delta, &mut index));
    assert_eq!(applied.calls, 0, "a migration delta");
    assert!(snapshot.entries().iter().all(|e| e.locations.len() == 3));
}

#[test]
fn the_max_flow_solve_runs_in_a_handful_of_flat_arrays() {
    // The benchmark's session-start probe: 131 200 locality edges, and
    // no network built over them. The returned owners, the quota and
    // load vectors, and the solver's seven `u32` arrays, each allocated
    // once at its exact size — nothing per edge.
    let (n_nodes, n_chunks) = (128, 32_768);
    let (snapshot, placement) = dataset_world(n_nodes, n_chunks);
    let graph = build_locality_graph_from_layout(&snapshot, &placement);
    let ((owners, matched), solve) = measure(|| SingleDataMatcher::default().flow_owners(&graph));
    assert_eq!(owners.len(), n_chunks);
    assert!(matched > n_chunks * 9 / 10);
    assert!(
        solve.calls <= 12,
        "flow_owners made {} allocator calls",
        solve.calls
    );
    assert!(
        solve.peak_bytes <= 1 << 20,
        "flow_owners peaked at {} B",
        solve.peak_bytes
    );

    // A session start keeps the graph, the matching and the plan, and
    // needs little beyond them at any moment: the solve's scratch sits
    // under what it goes on to keep. A debug build's cross-check of the
    // plan's locality allocates nothing, so one bound holds in both.
    let (session, start) = measure(|| start_session(&snapshot, &placement));
    assert!(
        start.peak_bytes as f64 <= 1.05 * start.live_bytes as f64,
        "a session start peaked at {} B to keep {} B",
        start.peak_bytes,
        start.live_bytes
    );
    drop(session);
}

#[test]
fn a_cold_plan_builds_no_graph() {
    // `plan_mix`'s cold plan shape, 128 x 8 192. The max-flow reads each
    // process's node list and nothing else, so beyond the plan it keeps
    // a cold plan needs the node lists (one `u32` per replica on a node
    // with a process), the solve's flat arrays and the owners before
    // the fill. It reads 4.5 B per chunk above the plan in either build
    // (the locality cross-check allocates nothing), and 144 calls. The
    // locality graph it built before (both adjacency mirrors, a `u64`
    // per edge) and its `Option<usize>` owners put it at 60.6 B per
    // chunk and 151 calls, and left the plan's owners in a buffer twice
    // their size (24.4 B per chunk kept, against 16.4).
    let (n_nodes, n_chunks) = (128, 8192);
    let (snapshot, placement) = dataset_world(n_nodes, n_chunks);
    let request = PlanRequest::single_from_layout(&snapshot, &placement).seed(1);
    let (plan, cost) = measure(|| OpassPlanner::default().plan(&request));
    let plan = plan.into_single().expect("single plan");
    assert!(plan.matched_files > n_chunks * 9 / 10);
    let per_chunk = |bytes: isize| bytes as f64 / n_chunks as f64;
    let transient = per_chunk(cost.peak_bytes - cost.live_bytes);
    assert!(
        transient <= 8.0,
        "a cold plan peaked {transient:.1} B per chunk above what it keeps"
    );
    assert!(
        per_chunk(cost.live_bytes) <= 17.0,
        "a cold plan keeps {:.1} B per chunk",
        per_chunk(cost.live_bytes)
    );
    assert!(
        cost.calls <= 144,
        "a cold plan made {} allocator calls",
        cost.calls
    );
}

#[test]
fn the_fill_allocates_nothing_per_file() {
    // No locality at all: every one of the 1 280 files goes through the
    // fill. What is allocated is the solve's arrays and the assignment's
    // per-process lists — a count that does not know how many files
    // were filled.
    let (m, n) = (128, 1280);
    let graph = BipartiteGraph::new(m, n);
    let (out, cost) =
        measure(|| SingleDataMatcher::default().assign(&graph, &mut StdRng::seed_from_u64(1)));
    assert_eq!(out.filled_files, n);
    assert!(
        cost.calls <= m + 24,
        "a fully filled plan made {} allocator calls",
        cost.calls
    );
}

#[test]
fn algorithm1_runs_in_the_memory_of_its_non_zero_values() {
    // `sim_sweep`'s large multi-data scene: 18 378 non-zero matching
    // values in a 1024 x 2048 table.
    let (n_nodes, n_tasks) = (1024, 2048);
    let mut nn = Namenode::new(n_nodes, DfsConfig::default());
    let (_, tasks) = multi_wl::generate(
        &mut nn,
        &MultiDataConfig {
            n_tasks,
            input_sizes: vec![30 << 20, 20 << 20, 10 << 20],
        },
        &Placement::Random,
        &mut StdRng::seed_from_u64(1 ^ n_nodes as u64),
    );
    let values = build_matching_values(&nn, &tasks, &ProcessPlacement::one_per_node(n_nodes));

    let (out, cost) = measure(|| assign_multi_data(&values));
    assert!(out.assignment.is_balanced());
    // A sorted list of every task for every process is 16 MiB of
    // candidates alone.
    assert!(
        cost.peak_bytes <= 1 << 20,
        "Algorithm 1 peaked at {} B",
        cost.peak_bytes
    );
    // The returned assignment's per-process task lists are the result;
    // the matcher's own scratch is a fixed number of flat arrays.
    assert!(
        cost.calls <= n_nodes + 32,
        "Algorithm 1 made {} allocator calls",
        cost.calls
    );
}

#[test]
fn the_rack_graph_is_laid_out_exactly() {
    // 128 nodes in 8 racks of 16, one process per node: 54 336 rack-local
    // edges at 1 280 chunks, 435 216 at 10 240. Counted first, then laid
    // out at their exact degrees, so the build makes the same allocator
    // calls at any size and holds no growth slack: 16 B of adjacency per
    // edge, plus the per-vertex offsets.
    let racks = RackMap::uniform(128, 16);
    let mut calls = Vec::new();
    for n_chunks in [1280, 10_240] {
        let (snapshot, placement) = dataset_world(128, n_chunks);
        let (graph, built) = measure(|| build_rack_graph(&snapshot, &placement, &racks));
        let per_edge = built.live_bytes as f64 / graph.edge_count() as f64;
        assert!(
            per_edge <= 17.0,
            "128 x {n_chunks}: the rack graph holds {per_edge:.2} B/edge"
        );
        assert!(built.peak_bytes - built.live_bytes <= 4096);
        calls.push(built.calls);
    }
    assert_eq!(calls[0], calls[1], "rack graph allocator calls by size");
    assert!(calls[0] <= 16, "the rack graph made {} calls", calls[0]);
}

#[test]
fn a_trace_replay_draws_its_world_and_keeps_no_namenode() {
    // 8 192 records over 4 datasets of 128 chunks, 16 nodes, batches of
    // 2 048 records, churn on: 16 batch plans, 4 sessions, 14 migrations.
    // The layouts are drawn straight from the seed and each batch plans a
    // snapshot of the entries it read, so the replay holds no block map
    // and builds no workload. The bounds sit a few per cent above what a
    // debug build needs; the peak reads 135 760 B in either build (it was
    // 152 692 B while every solve built a flow network).
    let records = generate(&TraceSpec {
        records: 8192,
        datasets: 4,
        clients: 16,
        chunks_per_dataset: 128,
        seed: 1,
        ..TraceSpec::default()
    });
    let config = ReplayConfig {
        n_nodes: 16,
        batch_records: 2048,
        ..ReplayConfig::default()
    };
    let (report, cost) = measure(|| replay_local(&records, &config).expect("replay"));
    assert_eq!(report.migrations, 14);
    assert_eq!(report.fingerprint(), 0x1d94_246b_e4c5_ca54);
    assert!(
        cost.calls <= 2_000,
        "replay_local made {} allocator calls",
        cost.calls
    );
    assert!(
        cost.peak_bytes <= 140_000,
        "replay_local peaked at {} B",
        cost.peak_bytes
    );
}

/// `count` replica moves on evenly spaced chunks of `layout`: each
/// moves its first holder to the lowest node that holds none of it.
fn migration_delta(layout: &LayoutSnapshot, count: usize, n_nodes: u32) -> LayoutDelta {
    let step = layout.len() / count;
    let moves: Vec<_> = (0..count)
        .map(|i| {
            let entry = &layout.entries()[i * step];
            let to = (0..n_nodes)
                .map(NodeId)
                .find(|n| !entry.locations.contains(n))
                .expect("r = 3 leaves a free node");
            (entry.chunk, entry.locations[0], to)
        })
        .collect();
    LayoutDelta::migrations(&moves)
}

#[test]
fn a_warm_replan_allocates_nothing_per_file() {
    // The benchmark's replan: a session at 128 nodes absorbs one delta,
    // then a second of 164 replica migrations is measured, at 8 192 and
    // at 32 768 chunks. The rendered plan and the copy `Session::replan`
    // returns hold one task list per process each; the rest is the
    // delta's own bookkeeping. So one bound on allocator calls holds at
    // both sizes. Release builds peaked at 405 160 and 1 584 808 B
    // before a failed trade was relinked in place and the fill drew from
    // a spare list; the peak may not grow past 5 % over that, in either
    // build: a debug build's cross-check of the plan's locality
    // allocates nothing.
    for (n_chunks, before) in [(8192, 405_160.0), (32_768, 1_584_808.0)] {
        let (snapshot, placement) = dataset_world(128, n_chunks);
        let mut session = OpassPlanner::default()
            .session(&PlanRequest::single_from_layout(&snapshot, &placement).seed(1));
        session.replan(&migration_delta(&snapshot, 164, 128));
        let now = session
            .as_single()
            .expect("single session")
            .snapshot()
            .clone();
        let delta = migration_delta(&now, 164, 128);
        let (plan, cost) = measure(|| session.replan(&delta));
        assert!(plan.as_single().is_some());
        assert!(
            cost.calls <= 2 * 128 + 64,
            "128 x {n_chunks}: a warm replan made {} allocator calls",
            cost.calls
        );
        assert!(
            cost.peak_bytes as f64 <= 1.05 * before,
            "128 x {n_chunks}: a warm replan peaked at {} B",
            cost.peak_bytes
        );
    }
}

/// Runs `specs` through `engine` as `procs` closed-loop readers: each
/// starts one flow, and a delivered flow's reader starts its next. The
/// specs are handed over in order; `specs.len()` flows complete.
fn closed_loop(engine: &mut Engine, specs: Vec<FlowSpec<'_>>, procs: usize) {
    let mut specs = specs.into_iter();
    for spec in specs.by_ref().take(procs) {
        engine.start_flow(spec);
    }
    while let Some(event) = engine.next_event() {
        if let (Event::FlowCompleted(_), Some(spec)) = (event, specs.next()) {
            engine.start_flow(spec);
        }
    }
}

#[test]
fn a_warm_engine_allocates_nothing_per_flow() {
    // 64 readers over 16 disks, NIC pairs behind them: local reads on a
    // disk, remote ones on a disk and two NIC directions, capped. Once
    // one round has sized the slot table, its rows and the heaps, a
    // second round of 2 048 flows makes no allocator call: the specs
    // (and their paths) are built before the measured region.
    let mut engine = Engine::new();
    let disks: Vec<ResourceId> = (0..16)
        .map(|_| engine.add_resource(Resource::disk("d", 72e6, 0.25, 0.2)))
        .collect();
    let nics: Vec<ResourceId> = (0..32)
        .map(|_| engine.add_resource(Resource::constant("n", 117e6)))
        .collect();
    let round = || -> Vec<FlowSpec<'static>> {
        (0..2048u64)
            .map(|t| {
                let (src, dst) = ((t * 7) as usize % 16, (t * 3) as usize % 16);
                let path = if src == dst {
                    vec![disks[src]]
                } else {
                    vec![disks[src], nics[2 * src], nics[2 * dst + 1]]
                };
                let spec = FlowSpec::new(64 << 20, path, t).with_latency(1e-3);
                if src == dst {
                    spec
                } else {
                    spec.with_rate_cap(32e6)
                }
            })
            .collect()
    };
    closed_loop(&mut engine, round(), 64);
    let warm = engine.stats().completions;
    let specs = round();
    let ((), cost) = measure(|| closed_loop(&mut engine, specs, 64));
    assert_eq!(engine.stats().completions, warm + 2048);
    assert_eq!(
        cost.calls, 0,
        "a warm engine made {} allocator calls for 2 048 flows",
        cost.calls
    );
}

/// What one `execute` costs at 1 024 processes with `per_process` reads
/// each, one in flight per process, and the bytes its returned records
/// hold.
fn measured_run(per_process: usize) -> (Cost, isize) {
    let n_nodes = 1024;
    let mut nn = Namenode::new(n_nodes, DfsConfig::default());
    let (_, tasks) = single_wl::generate(
        &mut nn,
        &SingleDataConfig {
            n_procs: n_nodes,
            chunks_per_process: per_process,
            chunk_size: 64 << 20,
        },
        &Placement::Random,
        &mut StdRng::seed_from_u64(1),
    );
    let placement = ProcessPlacement::one_per_node(n_nodes);
    let source = TaskSource::Static(rank_interval(tasks.len(), n_nodes));
    let (result, cost) =
        measure(|| execute(&nn, &tasks, &placement, source, &ExecConfig::default()));
    let records = (result.records.capacity() * std::mem::size_of::<IoRecord>()) as isize;
    (cost, records)
}

#[test]
fn a_simulated_run_peaks_by_live_flows_not_reads() {
    // 1 024 processes, one read in flight each, at 10 and at 40 chunks
    // per process. What `execute` needs beyond the records it returns
    // is engine state for the reads in flight, so it barely moves with
    // the read count: about 1.07 MB at either size. While the engine
    // kept every flow it had started, it grew 3.4x (3.72 to 12.65 MB).
    let beyond_records: Vec<isize> = [10, 40]
        .into_iter()
        .map(|per_process| {
            let (cost, records) = measured_run(per_process);
            cost.peak_bytes - records
        })
        .collect();
    let growth = beyond_records[1] as f64 / beyond_records[0] as f64;
    assert!(
        (0.9..=1.1).contains(&growth),
        "beyond its records, execute peaked at {} B at 10 chunks per process and {} B at 40",
        beyond_records[0],
        beyond_records[1]
    );
}

#[test]
fn a_simulated_run_allocates_nothing_per_read() {
    // The same runs, 10 240 and 40 960 reads. The records vector is sized
    // once to the workload, and each read lends the cluster's one path
    // buffer to the engine. What still grows is high-water marks (each
    // resource's list of active flows, each slot's buffers), which move
    // with the logarithm of the run's length: about 450 calls per
    // doubling, 8 683 and 9 382 calls in a release build. While every read
    // built its own path `Vec`, they read 18 926 and 50 347, 1.02 calls
    // per extra read; the bound is one per 20.
    let (runs, extra_reads) = ([10, 40], 1024 * 30);
    let calls = runs.map(|per_process| measured_run(per_process).0.calls);
    assert!(
        calls[1].saturating_sub(calls[0]) <= extra_reads / 20,
        "execute made {} allocator calls at 10 240 reads and {} at 40 960",
        calls[0],
        calls[1]
    );
}
