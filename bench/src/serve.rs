//! `serve_hot` and `serve_churn` — the planning service over real
//! loopback TCP, with the in-process planner as oracle.
//!
//! The server under test runs in this process through
//! [`opass_serve::serve`] with one shard and one worker; all load comes
//! from the calling thread over two client connections. The two
//! workloads share the [`Bed`] (server, oracle world, reference plans,
//! connections) and differ in traffic:
//!
//! * [`Hot`] — every request is a cache hit. Throughput: bursts of eight
//!   pipelined `plan` requests on both connections; latency: single
//!   requests, open loop. The solver does nothing.
//! * [`Churn`] — writes beside reads: delta invalidations, leader repair
//!   plus follower, layout fetches, and a bare invalidation per round
//!   that sends the next plans down the cold path.
//!
//! The shapes are the point: the burst shows what pipelined replies cost
//! on a socket without `TCP_NODELAY`, the latency phase what a parked
//! shard costs. The benchmark reports both as measured and changes no
//! server-side socket option.

use crate::harness::{Fnv, RoundOut, Tracer, Workload};
use crate::plan_mix::replica_moves;
use crate::wire::{decode, find, frame_of, number_at, scan_plan, Conn};
use opass_core::dfs::{LayoutDelta, LayoutSnapshot};
use opass_core::runtime::ProcessPlacement;
use opass_core::{OpassPlanner, PlanRequest};
use opass_serve::{
    serve, LayoutEntry, LayoutReply, PlanReply, Request, Response, ServeSpec, ServerConfig,
    ServerHandle, StatsReply, Strategy, World,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The served world: 64 nodes, 256 datasets of 1280 chunks (≈ 20 TiB).
pub const NODES: usize = 64;
const DATASETS: usize = 256;
const CHUNKS: usize = 1280;
/// Datasets the timed phases touch.
pub const HOT: usize = 8;
/// Hot-burst cycles per throughput round.
const CYCLES: usize = 4;
/// `serve_hot` latency-phase requests per round.
const PACED_REQUESTS: usize = 40;
/// Their send period (200 req/s); the probes' paced pings use it too.
pub const HOT_PERIOD: Duration = Duration::from_micros(5_000);
/// Churn steps per round, their open-loop rate (50 steps/s), and how many
/// replica migrations each delta invalidation carries.
pub const STEPS: usize = 32;
const CHURN_PERIOD: Duration = Duration::from_micros(20_000);
const MIGRATIONS: usize = 4;

/// The world every `serve_*` run and probe serves, placed from `seed`.
pub fn spec(seed: u64) -> ServeSpec {
    ServeSpec {
        n_nodes: NODES,
        n_datasets: DATASETS,
        chunks_per_dataset: CHUNKS,
        chunk_size: 64 << 20,
        replication: 3,
        seed,
    }
}

/// What the in-process planner says about one layout.
struct Reference {
    owners: Vec<usize>,
    matched: usize,
    filled: usize,
    task_fraction: f64,
    byte_fraction: f64,
    local_bytes: u64,
    total_bytes: u64,
}

impl Reference {
    fn of(
        planner: &OpassPlanner,
        layout: &LayoutSnapshot,
        placement: &ProcessPlacement,
        seed: u64,
    ) -> Reference {
        let plan = planner
            .plan(&PlanRequest::single_from_layout(layout, placement).seed(seed))
            .into_single()
            .expect("single request yields a single plan");
        Reference {
            owners: plan.assignment.owners().to_vec(),
            matched: plan.matched_files,
            filled: plan.filled_files,
            task_fraction: plan.locality.task_fraction(),
            byte_fraction: plan.locality.byte_fraction(),
            local_bytes: plan.locality.local_bytes,
            total_bytes: plan.locality.total_bytes,
        }
    }

    /// The comparison `serve_e2e` makes: a from-scratch reply must be
    /// owner-for-owner identical, a repaired one must agree on the
    /// matched count and both locality fractions.
    fn accepts(&self, reply: &PlanReply) -> bool {
        let quality = reply.matched_files == self.matched
            && reply.filled_files == self.filled
            && reply.local_task_fraction == self.task_fraction
            && reply.local_byte_fraction == self.byte_fraction;
        quality && (reply.repaired || reply.owners == self.owners)
    }
}

/// One hot dataset: its pre-encoded `plan` request and the hit reply
/// recorded (and fully verified) in warm-up.
pub struct HotEntry {
    /// The `plan` request, one frame.
    pub frame: Vec<u8>,
    /// Body of the cache-hit reply.
    pub reply: Vec<u8>,
}

/// Server, oracle and connections shared by both workloads.
pub struct Bed {
    handle: ServerHandle,
    oracle: World,
    planner: OpassPlanner,
    placement: ProcessPlacement,
    /// Seed of every `plan` request.
    plan_seed: u64,
    /// Reference plan of every dataset's base layout.
    reference: Vec<Reference>,
    /// Connection A (all request kinds).
    pub a: Option<Conn>,
    /// Connection B (`plan` only).
    pub b: Option<Conn>,
    /// The hot datasets, filled by warm-up.
    pub hot: Vec<HotEntry>,
    /// Eight pipelined hot `plan` requests as one buffer.
    pub burst: Vec<u8>,
    /// Plans per second of the warm-up's cold fill over the wire.
    pub cold_fill_plans_per_s: f64,
    stats_frame: Vec<u8>,
}

impl Bed {
    /// Boots the server and builds the oracle: everything the timed ops
    /// need, CPU-bound, no socket round-trips.
    pub fn prepare(seed: u64) -> Bed {
        let spec = spec(seed);
        let handle = serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 64,
            shards: 1,
            shard_backlog: 1024,
            spec,
        })
        .expect("server under test boots");
        let oracle = World::new(spec);
        let planner = OpassPlanner::default();
        let placement = spec.placement();
        let plan_seed = seed ^ 0x0A55;
        let reference = (0..DATASETS)
            .map(|d| {
                let layout = oracle.capture_layout(d).expect("dataset exists");
                Reference::of(&planner, &layout, &placement, plan_seed)
            })
            .collect();
        Bed {
            handle,
            oracle,
            planner,
            placement,
            plan_seed,
            reference,
            a: None,
            b: None,
            hot: Vec::new(),
            burst: Vec::new(),
            cold_fill_plans_per_s: 0.0,
            stats_frame: frame_of(&Request::Stats),
        }
    }

    fn plan_frame(&self, dataset: usize) -> Vec<u8> {
        frame_of(&Request::Plan {
            dataset,
            strategy: Strategy::Opass,
            seed: self.plan_seed,
        })
    }

    /// Opens the two connections, cold-fills every dataset over the wire
    /// (each reply decoded and compared owner-for-owner with the
    /// in-process plan), then records the hit replies of the hot set.
    pub fn warm_up(&mut self, tr: &mut Tracer) {
        let addr = self.handle.addr();
        let mut a = Conn::connect(addr);
        let b = Conn::connect(addr);
        let t0 = Instant::now();
        for d in 0..DATASETS {
            tr.next_request();
            let frame = tr.span("frame.encode", || self.plan_frame(d));
            tr.span("wire.write", || a.send(&frame));
            let s = tr.enter("wire.read");
            let body = a.recv();
            tr.exit(s);
            let reply = decode_plan(tr, body);
            assert!(
                !reply.cached && !reply.repaired && self.reference[d].accepts(&reply),
                "cold plan of dataset {d} differs from the in-process planner"
            );
        }
        self.cold_fill_plans_per_s = DATASETS as f64 / t0.elapsed().as_secs_f64();
        self.hot = (0..HOT)
            .map(|dataset| {
                let frame = self.plan_frame(dataset);
                a.send(&frame);
                let reply = a.recv().to_vec();
                let decoded = decode_plan(tr, &reply);
                assert!(
                    decoded.cached && decoded.owners == self.reference[dataset].owners,
                    "hit reply of dataset {dataset} differs from the in-process planner"
                );
                HotEntry { frame, reply }
            })
            .collect();
        self.burst = self.hot.iter().flat_map(|h| h.frame.clone()).collect();
        self.a = Some(a);
        self.b = Some(b);
    }

    /// The service's own counters, over connection A.
    pub fn stats(&mut self) -> StatsReply {
        let a = self.a.as_mut().expect("warm-up opened the connections");
        a.send(&self.stats_frame);
        match decode(a.recv()) {
            Response::Stats(s) => s,
            other => panic!("stats request answered with {other:?}"),
        }
    }

    /// The server's address, for probes that open connections of their
    /// own.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// Closes the connections and drains the server.
    pub fn shut_down(mut self) {
        self.a = None;
        self.b = None;
        self.handle.shutdown();
    }
}

/// Full decode of a `plan` reply through `serve::frame` and
/// `serve::protocol`, with a span around each.
fn decode_plan(tr: &mut Tracer, body: &[u8]) -> PlanReply {
    let json = tr.span("frame.decode", || {
        opass_serve::frame::parse_body(body).expect("server replies are valid JSON")
    });
    match tr.span("protocol.decode", || Response::from_json(&json)) {
        Ok(Response::Plan(p)) => p,
        other => panic!("plan request answered with {other:?}"),
    }
}

// ---------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------

/// The cache-hit workload.
pub struct Hot {
    bed: Bed,
    /// `(planned, repaired)` right after warm-up; must not move.
    planner_work: (u64, u64),
}

impl Hot {
    /// Set-up: the [`Bed`].
    pub fn prepare(seed: u64) -> Hot {
        Hot {
            bed: Bed::prepare(seed),
            planner_work: (0, 0),
        }
    }
}

impl Workload for Hot {
    fn warm_up(&mut self, tr: &mut Tracer) {
        self.bed.warm_up(tr);
        let stats = self.bed.stats();
        self.planner_work = (stats.planned, stats.repaired);
    }

    /// Eight cycles; each writes the eight-request burst on both
    /// connections, then reads and verifies the sixteen replies. A
    /// reply's latency counts from the burst's write.
    fn round(&mut self, tr: &mut Tracer, out: &mut RoundOut) {
        let bed = &mut self.bed;
        let (a, b) = (
            bed.a.as_mut().expect("warmed up"),
            bed.b.as_mut().expect("warmed up"),
        );
        for _ in 0..CYCLES {
            tr.next_request();
            let cycle = tr.enter("serve.burst");
            let sent = Instant::now();
            let s = tr.enter("wire.write");
            a.send(&bed.burst);
            b.send(&bed.burst);
            tr.exit(s);
            for conn in [&mut *a, &mut *b] {
                for entry in &bed.hot {
                    let s = tr.enter("wire.read");
                    let body = conn.recv();
                    tr.exit(s);
                    out.op_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    out.done(1, body == entry.reply);
                }
            }
            tr.exit(cycle);
        }
    }

    fn latency_period(&self) -> Option<Duration> {
        Some(HOT_PERIOD)
    }

    /// Single `plan` requests on connection A, one per due time.
    fn latency_round(&mut self, tr: &mut Tracer, out: &mut RoundOut) {
        let bed = &mut self.bed;
        let a = bed.a.as_mut().expect("warmed up");
        for k in 0..PACED_REQUESTS {
            let entry = &bed.hot[k % HOT];
            let due = out.start();
            tr.next_request();
            let op = tr.enter("serve.request");
            let s = tr.enter("wire.write");
            a.send(&entry.frame);
            tr.exit(s);
            let s = tr.enter("wire.read");
            let body = a.recv();
            tr.exit(s);
            out.op_us.push(due.elapsed().as_secs_f64() * 1e6);
            out.done(1, body == entry.reply);
            tr.exit(op);
        }
    }

    fn locality(&self) -> (u64, u64) {
        // Every timed reply is byte-equal to a hot entry's recorded
        // reply, which warm-up checked against these references.
        self.bed.reference[..HOT]
            .iter()
            .fold((0, 0), |(l, t), r| (l + r.local_bytes, t + r.total_bytes))
    }

    fn finish(mut self: Box<Self>, _tr: &mut Tracer) {
        if self.bed.a.is_some() {
            let stats = self.bed.stats();
            assert_eq!(
                (stats.planned, stats.repaired, stats.shed),
                (self.planner_work.0, self.planner_work.1, 0),
                "serve_hot's timed phases must contain no planner work and shed nothing"
            );
        }
        self.bed.shut_down();
    }
}

// ---------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------

/// One step's invalidation and the layout state it leaves behind.
struct Visit {
    /// Pre-encoded `invalidate{dataset, delta}`.
    frame: Vec<u8>,
    /// Index into [`ChurnSet::states`] after the delta applied.
    state: usize,
}

/// One hot dataset's churn cycle. Each round visits the dataset four
/// times — migrate M1, migrate M2, undo M2, undo M1 — so every round
/// starts from the base layout and is the same list of ops.
struct ChurnSet {
    dataset: usize,
    plan_frame: Vec<u8>,
    layout_frame: Vec<u8>,
    visits: [Visit; 4],
    /// The layout states the cycle passes through: base, after M1,
    /// after M1+M2.
    states: [State; 3],
}

/// One layout state of a churn cycle, as the oracle sees it.
struct State {
    /// What the in-process planner says about the layout.
    reference: Reference,
    /// The `"entries":[…]}` tail of the `layout` reply the in-process
    /// encoder produces for it; a served reply must end in these bytes.
    layout_tail: Vec<u8>,
}

const ENTRIES_KEY: &[u8] = br#""entries":"#;

impl State {
    fn of(bed: &Bed, dataset: usize, layout: &LayoutSnapshot) -> State {
        let entries = layout
            .entries()
            .iter()
            .map(|e| LayoutEntry {
                chunk: e.chunk.0,
                size: e.size,
                locations: e.locations.iter().map(|n| u64::from(n.0)).collect(),
            })
            .collect();
        let encoded = Response::Layout(LayoutReply {
            dataset,
            generation: 0,
            cached: false,
            entries,
        })
        .to_json()
        .to_compact()
        .into_bytes();
        let tail_at = find(&encoded, ENTRIES_KEY).expect("layout replies carry entries");
        State {
            reference: Reference::of(&bed.planner, layout, &bed.placement, bed.plan_seed),
            layout_tail: encoded[tail_at..].to_vec(),
        }
    }

    /// Whether `body` is a `layout` reply at `generation` whose entries
    /// are byte-equal to the oracle's encoding of this state.
    fn accepts_layout(&self, body: &[u8], generation: Option<u64>) -> bool {
        let head = &body[..body.len().min(128)];
        let Some(tail_at) = find(head, ENTRIES_KEY) else {
            return false;
        };
        let at_generation = find(head, br#""generation":"#)
            .and_then(|at| number_at(&head[at + br#""generation":"#.len()..]))
            .map(|(g, _)| g);
        body.starts_with(br#"{"v":1,"type":"layout","#)
            && at_generation == generation
            && body[tail_at..] == self.layout_tail[..]
    }
}

/// Raw `plan` replies of the round's steps, kept for the oracle
/// comparison between rounds.
#[derive(Default)]
struct StepReplies {
    a: Vec<u8>,
    b: Vec<u8>,
}

/// The invalidation workload.
pub struct Churn {
    /// Shared server and oracle.
    pub bed: Bed,
    sets: Vec<ChurnSet>,
    bare_invalidate: Vec<u8>,
    replies: Vec<StepReplies>,
    /// Rounds run so far (warm-up, throughput and latency).
    pub rounds: u64,
}

/// `MIGRATIONS` replica moves on distinct chunks of `layout`, and their
/// inverse.
pub fn migrations(layout: &LayoutSnapshot, rng: &mut StdRng) -> (LayoutDelta, LayoutDelta) {
    let moves = replica_moves(layout, MIGRATIONS, NODES, rng);
    let back: Vec<_> = moves.iter().map(|&(c, from, to)| (c, to, from)).collect();
    (
        LayoutDelta::migrations(&moves),
        LayoutDelta::migrations(&back),
    )
}

impl Churn {
    /// Set-up: the [`Bed`], the seeded churn cycle of each hot dataset
    /// mirrored through the oracle world, and the reference plan of
    /// every layout state the cycle passes through.
    pub fn prepare(seed: u64) -> Churn {
        let bed = Bed::prepare(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_0A11);
        let sets = (0..HOT)
            .map(|dataset| {
                let capture = || bed.oracle.capture_layout(dataset).expect("dataset exists");
                let apply = |delta: &LayoutDelta| {
                    bed.oracle
                        .invalidate_dataset(dataset, delta)
                        .expect("dataset exists");
                    capture()
                };
                let s0 = capture();
                let (m1, undo1) = migrations(&s0, &mut rng);
                let s1 = apply(&m1);
                let (m2, undo2) = migrations(&s1, &mut rng);
                let s2 = apply(&m2);
                assert_eq!(apply(&undo2), s1, "undoing M2 restores the layout after M1");
                assert_eq!(apply(&undo1), s0, "undoing M1 restores the base layout");
                let visit = |delta: &LayoutDelta, state| Visit {
                    frame: frame_of(&Request::Invalidate {
                        dataset: Some(dataset),
                        delta: Some(delta.clone()),
                    }),
                    state,
                };
                let state = |layout: &LayoutSnapshot| State::of(&bed, dataset, layout);
                ChurnSet {
                    dataset,
                    plan_frame: bed.plan_frame(dataset),
                    layout_frame: frame_of(&Request::Layout { dataset }),
                    visits: [
                        visit(&m1, 1),
                        visit(&m2, 2),
                        visit(&undo2, 1),
                        visit(&undo1, 0),
                    ],
                    states: [state(&s0), state(&s1), state(&s2)],
                }
            })
            .collect();
        Churn {
            bed,
            sets,
            bare_invalidate: frame_of(&Request::Invalidate {
                dataset: None,
                delta: None,
            }),
            replies: (0..STEPS).map(|_| StepReplies::default()).collect(),
            rounds: 0,
        }
    }

    /// Hash of the generated churn script.
    pub fn input_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for set in &self.sets {
            for v in &set.visits {
                h.bytes(&v.frame);
            }
        }
        h.0
    }

    /// One step on dataset `step % HOT`: delta invalidation on A, the
    /// same `plan` on A and B (leader and follower), a `layout` fetch
    /// every 8th step and a bare invalidation after the 32nd. `plan`
    /// replies get the cheap checks here and are kept for
    /// [`Churn::check_round`]; `layout` replies are checked in full, by
    /// byte equality with the oracle's encoding.
    fn step(&mut self, step: usize, tr: &mut Tracer, out: &mut RoundOut) {
        // Open loop, the step waits for its due time.
        let due = out.pacer.is_some().then(|| out.start());
        let set = &self.sets[step % HOT];
        let visit = &set.visits[step / HOT];
        let (a, b) = (
            self.bed.a.as_mut().expect("warmed up"),
            self.bed.b.as_mut().expect("warmed up"),
        );
        let kept = &mut self.replies[step];
        tr.next_request();
        let op = tr.enter("serve.step");

        // Closed loop, every request is a latency sample from its own
        // write; open loop, only the two plans are, from the step's due
        // time.
        let sample = |out: &mut RoundOut, sent: Instant, plan: bool| match due {
            None => out.op_us.push(sent.elapsed().as_secs_f64() * 1e6),
            Some(due) if plan => out.op_us.push(due.elapsed().as_secs_f64() * 1e6),
            Some(_) => {}
        };
        let mut sent = Instant::now();
        let s = tr.enter("wire.write");
        a.send(&visit.frame);
        tr.exit(s);
        let s = tr.enter("wire.read");
        let generation = scan_invalidated(a.recv());
        tr.exit(s);
        sample(out, sent, false);
        out.done(1, generation.is_some());

        sent = Instant::now();
        let s = tr.enter("wire.write");
        a.send(&set.plan_frame);
        b.send(&set.plan_frame);
        tr.exit(s);
        for (conn, keep) in [(&mut *a, &mut kept.a), (&mut *b, &mut kept.b)] {
            let s = tr.enter("wire.read");
            let body = conn.recv();
            tr.exit(s);
            sample(out, sent, true);
            // Every chunk owned exactly once by an in-range process, at
            // the generation the invalidation announced.
            let ok = scan_plan(body).is_some_and(|p| {
                Some(p.generation) == generation && p.owners == CHUNKS && p.max_owner < NODES as u64
            });
            keep.clear();
            keep.extend_from_slice(body);
            out.done(1, ok);
        }

        if step % 8 == 7 {
            sent = Instant::now();
            let s = tr.enter("wire.write");
            a.send(&set.layout_frame);
            tr.exit(s);
            let s = tr.enter("wire.read");
            let body = a.recv();
            tr.exit(s);
            sample(out, sent, false);
            out.done(1, set.states[visit.state].accepts_layout(body, generation));
        }
        if step == STEPS - 1 {
            sent = Instant::now();
            a.send(&self.bare_invalidate);
            let ok = scan_invalidated(a.recv()).is_some();
            sample(out, sent, false);
            out.done(1, ok);
        }
        tr.exit(op);
    }
}

/// The new generation out of an `invalidated` reply body.
fn scan_invalidated(body: &[u8]) -> Option<u64> {
    let digits = body
        .strip_prefix(br#"{"v":1,"type":"invalidated","generation":"#)?
        .strip_suffix(b"}")?;
    std::str::from_utf8(digits).ok()?.parse().ok()
}

impl Workload for Churn {
    fn warm_up(&mut self, tr: &mut Tracer) {
        self.bed.warm_up(tr);
    }

    fn round(&mut self, tr: &mut Tracer, out: &mut RoundOut) {
        for step in 0..STEPS {
            self.step(step, tr, out);
        }
        self.rounds += 1;
    }

    /// The full oracle comparison of the round just run: every kept
    /// `plan` reply decoded and held against a from-scratch
    /// `OpassPlanner` plan of the layout state its step left behind.
    fn check_round(&mut self, tr: &mut Tracer) -> u64 {
        let mut failed = 0;
        for (step, kept) in self.replies.iter().enumerate() {
            let set = &self.sets[step % HOT];
            let reference = &set.states[set.visits[step / HOT].state].reference;
            for body in [&kept.a, &kept.b] {
                let reply = decode_plan(tr, body);
                failed += u64::from(reply.dataset != set.dataset || !reference.accepts(&reply));
            }
        }
        failed
    }

    fn latency_period(&self) -> Option<Duration> {
        Some(CHURN_PERIOD)
    }

    /// The same 32 steps, each waiting for its due time.
    fn latency_round(&mut self, tr: &mut Tracer, out: &mut RoundOut) {
        self.round(tr, out);
    }

    fn locality(&self) -> (u64, u64) {
        // Two plans per step, each accepted against its state's
        // reference; every round is the same.
        (0..STEPS).fold((0, 0), |(l, t), step| {
            let set = &self.sets[step % HOT];
            let reference = &set.states[set.visits[step / HOT].state].reference;
            (l + 2 * reference.local_bytes, t + 2 * reference.total_bytes)
        })
    }

    fn finish(mut self: Box<Self>, _tr: &mut Tracer) {
        if self.bed.a.is_some() && self.rounds > 0 {
            // The first round repairs all 32 steps; every later one
            // plans 8 cold (after the bare invalidation) and repairs 24.
            let stats = self.bed.stats();
            let later = self.rounds - 1;
            assert_eq!(
                (stats.planned, stats.repaired, stats.shed),
                (DATASETS as u64 + 8 * later, 32 + 24 * later, 0),
                "serve_churn's cold and repaired counts must repeat exactly per round"
            );
        }
        self.bed.shut_down();
    }
}
