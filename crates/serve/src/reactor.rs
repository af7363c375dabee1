//! The thread-per-core sharded reactor behind [`crate::serve`].
//!
//! N shard threads each run a small hand-rolled readiness loop over
//! nonblocking sockets: level-triggered polling (scan every connection
//! for readable bytes and flushable replies each sweep, spin briefly,
//! then park with a bounded timeout), per-connection read/write state
//! machines from [`crate::conn`], and *dataset→shard affinity* — dataset
//! `d` is owned by shard `d % n_shards`, and only the owner touches that
//! dataset's cache slice. The slices are plain single-threaded maps: the
//! hot path (cache hit on an affine connection) takes zero locks and
//! writes a pre-encoded reply frame zero-copy from a shared buffer.
//!
//! Cross-shard traffic rides one mailbox per shard (a mutex + condvar),
//! handled in arrival order: `Routed` requests toward a dataset's owner,
//! completed `Reply`s back to the connection's shard, and `Done`
//! computation results from the worker pool toward the owning slice.
//! Every dataset request — plan, layout, place — takes one path:
//! [`Shard::route`] to the owner, a slice lookup there, then a pool job
//! whose refusal is one typed reply. Singleflight coalescing is
//! structural: the owner shard keeps one in-flight table keyed by
//! [`Flight`], so a stampede of same-key requests admits exactly one
//! pool job and every follower waits on the same completion —
//! deterministic, no condvar races.
//!
//! [`Shard`] itself is a single-threaded state machine over any
//! [`Stream`] and an injected job sink; [`run_shard`] is its one driver
//! and the only code here that touches sockets, the condvar park, the
//! worker pool or [`Ctx::begin_close`]. A test drives a shard on one
//! thread over in-memory pipes and runs its jobs when it chooses.
//!
//! Shutdown is a two-phase drain. Phase one: every shard observes
//! `closing`, stops parsing new frames, and checks in on the quiesce
//! barrier. Phase two: shards keep pumping mailboxes and write queues
//! until every reserved reply slot in the whole process is filled, then
//! flush and close. An admitted request always gets its reply; nothing
//! is lost to a shard exiting while a sibling still holds a forward for
//! it.

use crate::conn::{FrameBuf, WriteQueue};
use crate::frame::{encode_frame, FrameError};
use crate::metrics::{LatencyHistogram, ShardStats, Timer};
use crate::planning::{self, ComputedPlan, PlanKey, Repairable};
use crate::pool::{reporting, Job, SubmitError, WorkerPool};
use crate::protocol::{
    PlanReply, Request, Response, ShardStatsReply, StatsReply, PROTOCOL_VERSION,
};
use crate::spec::World;
use opass_core::dfs::LayoutSnapshot;
use opass_core::runtime::ProcessPlacement;
use opass_core::{OpassPlanner, Strategy};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Empty sweeps a shard spins (yielding) before parking. Sockets have no
/// waker, so an active connection must be caught by polling; yielding
/// keeps a loaded shard hot while letting same-core peers run.
const SPIN_SWEEPS: u32 = 1024;

/// How long a fully idle shard parks between sweeps. Bounds the latency
/// of the first frame after an idle period.
const PARK: Duration = Duration::from_micros(500);

/// Reply slots one connection may hold open before the shard stops
/// reading from it (per-connection pipelining bound).
const MAX_PIPELINE: usize = 1024;

/// Bytes one connection may feed into the parser per sweep (fairness
/// bound across a shard's connections).
const READ_BUDGET: usize = 256 << 10;

/// Sweeps the final drain flush attempts before abandoning unwritable
/// connections (each no-progress sweep sleeps 1ms).
const FLUSH_SWEEPS: u32 = 200;

/// Identifies one reserved reply slot: connection slab index, the slab
/// entry's reuse epoch (a late completion must not answer a recycled
/// connection), and the slot id inside the connection's write queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ticket {
    conn: usize,
    epoch: u64,
    slot: u64,
}

/// One request's reserved reply slot and the shard its connection lives
/// on.
#[derive(Clone, Copy)]
struct Waiter {
    origin: usize,
    ticket: Ticket,
}

/// What a dataset request asks of the dataset's owner shard.
enum Ask {
    Plan {
        strategy: Strategy,
        seed: u64,
    },
    Layout,
    Place {
        rounds: usize,
        budget: Option<u64>,
        seed: u64,
    },
}

/// A dataset request on its way to (or at) the shard owning the
/// dataset's cache slice.
struct Routed {
    waiter: Waiter,
    dataset: usize,
    ask: Ask,
}

/// One in-flight computation on an owner shard: a plan key or a layout,
/// at the dataset generation it computes for.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Flight {
    Plan(PlanKey, u64),
    Layout(usize, u64),
}

impl Flight {
    fn dataset(&self) -> usize {
        match self {
            Flight::Plan(key, _) => key.0,
            Flight::Layout(dataset, _) => *dataset,
        }
    }
}

/// A completed reply heading back to the shard that owns the connection.
struct RemoteReply {
    ticket: Ticket,
    bytes: Arc<Vec<u8>>,
    /// Whether the slot's admission-to-reply time counts toward the
    /// latency histograms (typed refusals do not).
    count_latency: bool,
}

/// A finished flight heading back to the owning shard's cache slice.
struct Done {
    flight: Flight,
    /// Pre-encoded reply for the flight leader (fresh flags).
    leader: FrameBytes,
    /// Pre-encoded reply for every follower: the `coalesced = true`
    /// variant of a plan, the leader's own bytes for a layout.
    follower: FrameBytes,
    keep: Keep,
}

impl Done {
    /// The outcome of a flight whose job was lost: every waiter gets the
    /// typed `error` reply, and the slice keeps nothing.
    fn lost(flight: Flight) -> Done {
        let error = lost_reply();
        Done {
            flight,
            leader: Arc::clone(&error),
            follower: error,
            keep: Keep {
                plan: None,
                layout: None,
            },
        }
    }
}

/// What a finished flight leaves in the owner's slice.
struct Keep {
    /// The plan entry a plan flight computed.
    plan: Option<PlanEntry>,
    /// The layout a layout flight encoded, or a snapshot a cold plan had
    /// to walk, offered back so later requests reuse it.
    layout: Option<LayoutSlot>,
}

/// One item in a shard's mailbox.
enum Mail {
    Routed(Routed),
    Reply(RemoteReply),
    Done(Done),
}

/// The cross-thread face of one shard: its mailbox and counters.
#[derive(Default)]
pub(crate) struct ShardShared {
    inbox: Mutex<Inbox>,
    wake: Condvar,
    /// Public counters (accept loop and `stats` requests read these).
    pub(crate) stats: ShardStats,
}

#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    mail: VecDeque<Mail>,
}

impl ShardShared {
    /// Hands a freshly accepted connection to this shard.
    pub(crate) fn push_conn(&self, stream: TcpStream) {
        self.with_inbox(|i| i.conns.push(stream));
    }

    fn post(&self, mail: Mail) {
        self.with_inbox(|i| i.mail.push_back(mail));
    }

    fn with_inbox(&self, f: impl FnOnce(&mut Inbox)) {
        let mut inbox = self.inbox.lock().expect("shard inbox not poisoned");
        f(&mut inbox);
        self.wake.notify_one();
    }

    /// Nudges the shard out of a park (used by shutdown).
    pub(crate) fn nudge(&self) {
        self.wake.notify_all();
    }
}

/// State shared by the accept loop, shard threads, and pool workers.
pub(crate) struct Ctx {
    world: World,
    placement: ProcessPlacement,
    planner: OpassPlanner,
    pub(crate) pool: WorkerPool,
    /// The listener's address: connecting to it wakes the accept loop.
    pub(crate) addr: SocketAddr,
    /// Time spent in delta repairs alone (the matching-repair part of a
    /// flight, excluding queueing); its count is the `repaired` total.
    repair_latency: LatencyHistogram,
    /// Time spent in from-scratch plan computations alone; its count is
    /// the `planned` total.
    cold_plan_latency: LatencyHistogram,
    pub(crate) closing: AtomicBool,
    quiesced: AtomicUsize,
    shards: Vec<Arc<ShardShared>>,
    /// Pre-encoded `pong` reply (a pure function of the spec).
    pong: Arc<Vec<u8>>,
    /// Accept backpressure: a shard whose pending queue exceeds this
    /// sheds new connections with a typed `overloaded` reply.
    pub(crate) backlog: usize,
}

impl Ctx {
    pub(crate) fn new(
        world: World,
        placement: ProcessPlacement,
        pool: WorkerPool,
        addr: SocketAddr,
        n_shards: usize,
        backlog: usize,
    ) -> Arc<Ctx> {
        let pong = encode_response(&Response::Pong {
            protocol: PROTOCOL_VERSION,
            nodes: world.spec().n_nodes,
            datasets: world.spec().n_datasets,
        });
        Arc::new(Ctx {
            world,
            placement,
            planner: OpassPlanner::default(),
            pool,
            addr,
            repair_latency: LatencyHistogram::new(),
            cold_plan_latency: LatencyHistogram::new(),
            closing: AtomicBool::new(false),
            quiesced: AtomicUsize::new(0),
            shards: (0..n_shards.max(1)).map(|_| Arc::default()).collect(),
            pong,
            backlog,
        })
    }

    pub(crate) fn n_shards(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn shard(&self, index: usize) -> &Arc<ShardShared> {
        &self.shards[index]
    }

    /// The shard-affinity rule: dataset `d` lives on shard `d % N`.
    fn owner_of(&self, dataset: usize) -> usize {
        dataset % self.shards.len()
    }

    /// Reserved-but-unfilled reply slots across every shard.
    fn total_pending(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stats.pending.load(Ordering::Acquire))
            .sum()
    }

    /// Walks a validated dataset's layout into a shareable snapshot.
    fn walk(&self, dataset: usize) -> Arc<LayoutSnapshot> {
        Arc::new(
            self.world
                .capture_layout(dataset)
                .expect("dataset validated before submission"),
        )
    }

    /// Marks the server as closing and wakes every blocked thread: the
    /// accept loop via a throwaway connection, the shards via their
    /// condvars.
    pub(crate) fn begin_close(&self) {
        if !self.closing.swap(true, Ordering::AcqRel) {
            // Wake the accept loop; errors are fine (listener may be gone).
            let _ = TcpStream::connect(self.addr);
        }
        for shard in &self.shards {
            shard.nudge();
        }
    }

    /// Snapshot of every counter the service exports: one entry per
    /// shard, in ascending shard order (a guaranteed, deterministic
    /// ordering), and the merged view as their sum.
    pub(crate) fn stats_reply(&self) -> StatsReply {
        let (count, mean, p50, p99, bins) =
            LatencyHistogram::snapshot_sum(self.shards.iter().map(|s| &s.stats.latency));
        let load = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed);
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (_, _, _, _, shard_bins) = s.stats.latency.snapshot();
                ShardStatsReply {
                    shard: i,
                    accepted: load(&s.stats.accepted),
                    shed_accept: load(&s.stats.shed_accept),
                    requests: load(&s.stats.requests),
                    forwarded: load(&s.stats.forwarded),
                    pending: load(&s.stats.pending) as usize,
                    latency_us: s.stats.latency.summary(),
                    latency_histogram: shard_bins,
                }
            })
            .collect();
        let sum = |f: fn(&ShardStats) -> &std::sync::atomic::AtomicU64| -> u64 {
            self.shards.iter().map(|s| load(f(&s.stats))).sum()
        };
        StatsReply {
            generation: self.world.generation(),
            requests: sum(|s| &s.requests),
            planned: self.cold_plan_latency.count(),
            repaired: self.repair_latency.count(),
            layout_walks: self.world.layout_walks(),
            cache_hits: sum(|s| &s.cache_hits),
            cache_misses: sum(|s| &s.cache_misses),
            cache_invalidated: sum(|s| &s.cache_invalidated),
            coalesced: sum(|s| &s.coalesced),
            shed: self.pool.shed(),
            queue_depth: self.pool.depth(),
            queue_capacity: self.pool.capacity(),
            workers: self.pool.workers(),
            latency_count: count,
            latency_mean_us: mean,
            latency_p50_us: p50,
            latency_p99_us: p99,
            latency_histogram: bins,
            repair_us: self.repair_latency.summary(),
            cold_plan_us: self.cold_plan_latency.summary(),
            shards,
        }
    }
}

/// A pre-encoded reply frame, shared zero-copy between the caches and
/// every connection write queue it lands in.
type FrameBytes = Arc<Vec<u8>>;

/// The reply to a request whose pool job was lost: it panicked.
fn lost_reply() -> FrameBytes {
    encode_response(&Response::Error {
        message: "the job serving this request failed".into(),
    })
}

/// Encodes a response frame, downgrading an over-cap body to a typed
/// error so a huge reply never kills a worker or wedges a connection.
fn encode_response(resp: &Response) -> Arc<Vec<u8>> {
    let bytes = encode_frame(&resp.to_json()).unwrap_or_else(|e| {
        let fallback = Response::Error {
            message: format!("reply exceeds the frame cap: {e}"),
        };
        encode_frame(&fallback.to_json()).expect("error reply is tiny")
    });
    Arc::new(bytes)
}

/// Encodes the three per-disposition variants of one plan reply — the
/// cache-hit form (`cached`), the flight leader's form (fresh flags),
/// and the follower form (`coalesced`), in that order — flipping the
/// two flags in place between encodes. Encoding happens once, on the
/// worker thread; every future hit reuses the bytes zero-copy.
fn plan_variants(reply: PlanReply) -> (FrameBytes, FrameBytes, FrameBytes) {
    let mut resp = Response::Plan(reply);
    let mut encode_with = |cached, coalesced| {
        if let Response::Plan(reply) = &mut resp {
            reply.cached = cached;
            reply.coalesced = coalesced;
        }
        encode_response(&resp)
    };
    (
        encode_with(true, false),
        encode_with(false, false),
        encode_with(false, true),
    )
}

/// One cached plan in a shard's slice: the encoded hit and, for planner
/// strategies, what repairs it — the layout handle and owners of a cold
/// plan, or the session of a repaired one. No reply is kept — a repair
/// renders its own from the key and the session.
struct PlanEntry {
    generation: u64,
    hit_bytes: Arc<Vec<u8>>,
    repair: Option<Repairable>,
}

/// One cached layout in a shard's slice. `hit_bytes` is lazily filled:
/// a snapshot walked for a cold plan is cached without wire encoding
/// until the first `layout` request wants it.
struct LayoutSlot {
    generation: u64,
    snapshot: Arc<LayoutSnapshot>,
    hit_bytes: Option<Arc<Vec<u8>>>,
}

/// A connection's byte stream as a shard drives it: nonblocking reads
/// and writes (`WouldBlock` when nothing moves) and a hang-up.
pub(crate) trait Stream: Read + Write {
    fn hang_up(&mut self);
}

impl Stream for TcpStream {
    fn hang_up(&mut self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

/// A live connection owned by one shard.
struct Conn<S> {
    stream: S,
    epoch: u64,
    frames: FrameBuf,
    wq: WriteQueue,
    close_after_flush: bool,
    dead: bool,
}

/// Where a shard's pool jobs go; a refusal becomes the waiter's typed
/// reply.
type Submit = Box<dyn FnMut(Job) -> Result<(), SubmitError>>;

/// One shard's private state: its connection slab and its slice of the
/// generation-stamped caches. Everything here is single-threaded.
struct Shard<S> {
    ctx: Arc<Ctx>,
    index: usize,
    conns: Vec<Option<Conn<S>>>,
    /// Reuse epoch per slab slot (bumped on reap).
    epochs: Vec<u64>,
    free: Vec<usize>,
    plan_cache: BTreeMap<PlanKey, PlanEntry>,
    layout_cache: BTreeMap<usize, LayoutSlot>,
    /// Waiters per in-flight computation, the leader first.
    flights: BTreeMap<Flight, Vec<Waiter>>,
    submit: Submit,
    /// A `shutdown` request arrived; the driver begins the close.
    close_requested: bool,
}

/// Runs one shard's event loop over its sockets until drain completes.
pub(crate) fn run_shard(ctx: Arc<Ctx>, index: usize) {
    let sink = Arc::clone(&ctx);
    let mut shard = Shard::new(ctx, index, Box::new(move |job| sink.pool.try_submit(job)));
    let mut idle_sweeps = 0u32;
    let mut acked_close = false;
    loop {
        let Inbox { conns, mail } =
            std::mem::take(&mut *shard.me().inbox.lock().expect("shard inbox not poisoned"));
        let mut progress = !conns.is_empty();
        for stream in conns {
            if stream.set_nonblocking(true).is_ok() {
                shard.register(stream);
            }
        }
        let closing = shard.ctx.closing.load(Ordering::Acquire);
        if closing && !acked_close {
            // Phase one of the drain: stop parsing new frames, check in
            // on the quiesce barrier. Mailboxes and write queues keep
            // pumping below until every reserved slot is answered.
            acked_close = true;
            shard.ctx.quiesced.fetch_add(1, Ordering::AcqRel);
            progress = true;
        }
        progress |= shard.sweep(mail, closing);
        if std::mem::take(&mut shard.close_requested) {
            shard.ctx.begin_close();
        }

        if closing
            && shard.ctx.quiesced.load(Ordering::Acquire) == shard.ctx.n_shards()
            && shard.ctx.total_pending() == 0
        {
            shard.final_flush();
            return;
        }

        if progress {
            idle_sweeps = 0;
        } else {
            idle_sweeps += 1;
            if idle_sweeps < SPIN_SWEEPS {
                std::thread::yield_now();
            } else {
                let inbox = shard.me().inbox.lock().expect("shard inbox not poisoned");
                if inbox.conns.is_empty() && inbox.mail.is_empty() {
                    // Sockets have no waker: cap the park so newly
                    // arrived frames are picked up within one PARK.
                    let _ = shard
                        .me()
                        .wake
                        .wait_timeout(inbox, PARK)
                        .expect("shard inbox not poisoned");
                }
            }
        }
    }
}

impl<S: Stream> Shard<S> {
    fn new(ctx: Arc<Ctx>, index: usize, submit: Submit) -> Shard<S> {
        Shard {
            ctx,
            index,
            conns: Vec::new(),
            epochs: Vec::new(),
            free: Vec::new(),
            plan_cache: BTreeMap::new(),
            layout_cache: BTreeMap::new(),
            flights: BTreeMap::new(),
            submit,
            close_requested: false,
        }
    }

    fn me(&self) -> &Arc<ShardShared> {
        self.ctx.shard(self.index)
    }

    /// One pass: handles `mail` in arrival order, reads and handles new
    /// frames unless `closing`, and flushes every write queue. Returns
    /// whether anything moved.
    fn sweep(&mut self, mail: VecDeque<Mail>, closing: bool) -> bool {
        let mut progress = !mail.is_empty();
        for mail in mail {
            match mail {
                Mail::Routed(r) => self.handle_routed(r),
                Mail::Reply(r) => self.fill(r.ticket, r.bytes, r.count_latency),
                Mail::Done(d) => self.handle_done(d),
            }
        }
        if !closing {
            for idx in 0..self.conns.len() {
                progress |= self.pump_reads(idx);
            }
        }
        for idx in 0..self.conns.len() {
            progress |= self.pump_writes(idx);
        }
        progress
    }

    fn register(&mut self, stream: S) {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.epochs.push(0);
                self.conns.len() - 1
            }
        };
        self.conns[idx] = Some(Conn {
            stream,
            epoch: self.epochs[idx],
            frames: FrameBuf::new(),
            wq: WriteQueue::new(),
            close_after_flush: false,
            dead: false,
        });
    }

    /// Reads from one connection and handles every complete frame.
    /// Returns whether any bytes moved.
    fn pump_reads(&mut self, idx: usize) -> bool {
        let mut frames = Vec::new();
        let mut fatal: Option<FrameError> = None;
        let mut progress = false;
        {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            if conn.dead || conn.close_after_flush || conn.wq.pending() >= MAX_PIPELINE {
                return false;
            }
            let mut buf = [0u8; 16 << 10];
            let mut budget = READ_BUDGET;
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        progress = true;
                        conn.frames.extend(&buf[..n]);
                        budget = budget.saturating_sub(n);
                        if budget == 0 {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            while let Some(parsed) = conn.frames.next_frame() {
                match parsed {
                    Ok(frame) => frames.push(frame),
                    Err(e) => {
                        fatal = Some(e);
                        break;
                    }
                }
            }
        }
        for frame in frames {
            self.handle_frame(idx, frame);
        }
        if let Some(e) = fatal {
            // Framing is unrecoverable after a bad frame: tell the peer,
            // flush, hang up.
            let bytes = encode_response(&Response::Error {
                message: e.to_string(),
            });
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.wq.push_ready(bytes);
                conn.close_after_flush = true;
            }
        }
        progress
    }

    /// Flushes one connection's write queue and reaps it if dead.
    /// Returns whether any bytes moved.
    fn pump_writes(&mut self, idx: usize) -> bool {
        let mut progress = false;
        let mut reap = false;
        if let Some(conn) = self.conns[idx].as_mut() {
            let Conn { stream, wq, .. } = conn;
            match wq.write_to(stream) {
                Ok(wrote) => progress = wrote,
                Err(_) => conn.dead = true,
            }
            if conn.dead || (conn.close_after_flush && conn.wq.is_empty()) {
                reap = true;
            }
        }
        if reap {
            self.reap(idx);
        }
        progress
    }

    fn reap(&mut self, idx: usize) {
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        // Slots that died unanswered stop counting toward the drain /
        // backpressure quantity; late completions are rejected by epoch.
        let orphaned = conn.wq.pending() as u64;
        if orphaned > 0 {
            self.me()
                .stats
                .pending
                .fetch_sub(orphaned, Ordering::AcqRel);
        }
        self.epochs[idx] += 1;
        self.free.push(idx);
        conn.stream.hang_up();
    }

    /// Reserves the next in-order reply slot on a connection.
    fn reserve(&mut self, idx: usize) -> Ticket {
        let conn = self.conns[idx]
            .as_mut()
            .expect("reserve is only called for live connections");
        let slot = conn.wq.push_pending(Timer::start());
        let epoch = conn.epoch;
        self.me().stats.pending.fetch_add(1, Ordering::AcqRel);
        Ticket {
            conn: idx,
            epoch,
            slot,
        }
    }

    /// Completes a reserved slot on one of this shard's connections.
    fn fill(&mut self, ticket: Ticket, bytes: Arc<Vec<u8>>, count_latency: bool) {
        let Some(Some(conn)) = self.conns.get_mut(ticket.conn) else {
            return;
        };
        if conn.epoch != ticket.epoch {
            return;
        }
        if let Some(timer) = conn.wq.fill(ticket.slot, bytes) {
            self.me().stats.pending.fetch_sub(1, Ordering::AcqRel);
            if count_latency {
                self.me().stats.latency.record(timer.elapsed_us());
            }
        }
    }

    /// Sends a completed reply toward the connection that asked:
    /// directly when the slot is local, via the origin's mailbox
    /// otherwise.
    fn deliver(&mut self, waiter: Waiter, bytes: Arc<Vec<u8>>, count_latency: bool) {
        if waiter.origin == self.index {
            self.fill(waiter.ticket, bytes, count_latency);
        } else {
            self.ctx.shard(waiter.origin).post(Mail::Reply(RemoteReply {
                ticket: waiter.ticket,
                bytes,
                count_latency,
            }));
        }
    }

    fn push_inline(&mut self, idx: usize, bytes: Arc<Vec<u8>>) {
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.wq.push_ready(bytes);
        }
    }

    fn handle_frame(&mut self, idx: usize, frame: opass_json::Json) {
        self.me().stats.requests.fetch_add(1, Ordering::Relaxed);
        let request = match Request::from_json(&frame) {
            Ok(r) => r,
            Err(e) => {
                let bytes = encode_response(&Response::Error {
                    message: e.to_string(),
                });
                self.push_inline(idx, bytes);
                return;
            }
        };
        match request {
            Request::Ping => {
                let pong = Arc::clone(&self.ctx.pong);
                self.push_inline(idx, pong);
            }
            Request::Stats => {
                let bytes = encode_response(&Response::Stats(self.ctx.stats_reply()));
                self.push_inline(idx, bytes);
            }
            Request::Invalidate {
                dataset: None,
                delta: _,
            } => {
                let bytes = encode_response(&Response::Invalidated {
                    generation: self.ctx.world.invalidate(),
                });
                self.push_inline(idx, bytes);
            }
            Request::Invalidate {
                dataset: Some(dataset),
                delta,
            } => {
                let world = &self.ctx.world;
                let generation = match &delta {
                    Some(delta) if planning::adds_an_empty_file(delta) => None,
                    Some(delta) => world.invalidate_dataset(dataset, delta),
                    None => world.invalidate_dataset_opaque(dataset),
                };
                let resp = match generation {
                    Some(generation) => Response::Invalidated { generation },
                    None if world.has_dataset(dataset) => planning::empty_file_refusal(),
                    None => planning::unknown_dataset(dataset, world.spec().n_datasets),
                };
                let bytes = encode_response(&resp);
                self.push_inline(idx, bytes);
            }
            Request::Shutdown => {
                if let Some(conn) = self.conns[idx].as_mut() {
                    conn.wq.push_ready(encode_response(&Response::ShuttingDown));
                    conn.close_after_flush = true;
                }
                self.close_requested = true;
            }
            Request::Plan {
                dataset,
                strategy,
                seed,
            } => self.route(idx, dataset, Ask::Plan { strategy, seed }),
            Request::Layout { dataset } => self.route(idx, dataset, Ask::Layout),
            Request::Place {
                dataset,
                rounds,
                budget,
                seed,
            } => self.route(
                idx,
                dataset,
                Ask::Place {
                    rounds,
                    budget,
                    seed,
                },
            ),
        }
    }

    /// Reserves a reply slot for a dataset request and hands it to the
    /// dataset's owner shard — this one, or another through its mailbox.
    /// An unknown dataset is refused inline with a typed error.
    fn route(&mut self, idx: usize, dataset: usize, ask: Ask) {
        if !self.ctx.world.has_dataset(dataset) {
            let n_datasets = self.ctx.world.spec().n_datasets;
            let bytes = encode_response(&planning::unknown_dataset(dataset, n_datasets));
            self.push_inline(idx, bytes);
            return;
        }
        let waiter = Waiter {
            origin: self.index,
            ticket: self.reserve(idx),
        };
        let routed = Routed {
            waiter,
            dataset,
            ask,
        };
        let owner = self.ctx.owner_of(dataset);
        if owner == self.index {
            self.handle_routed(routed);
        } else {
            self.me().stats.forwarded.fetch_add(1, Ordering::Relaxed);
            self.ctx.shard(owner).post(Mail::Routed(routed));
        }
    }

    /// The owner-shard side of [`Shard::route`].
    fn handle_routed(&mut self, routed: Routed) {
        let Routed {
            waiter,
            dataset,
            ask,
        } = routed;
        match ask {
            Ask::Plan { strategy, seed } => self.handle_plan(waiter, dataset, strategy, seed),
            Ask::Layout => self.handle_layout(waiter, dataset),
            Ask::Place {
                rounds,
                budget,
                seed,
            } => self.handle_place(waiter, dataset, rounds, budget, seed),
        }
    }

    /// The slice's layout for `dataset` if it is at `generation`.
    fn current_layout(&self, dataset: usize, generation: u64) -> Option<&LayoutSlot> {
        self.layout_cache
            .get(&dataset)
            .filter(|slot| slot.generation == generation)
    }

    /// Counts one slice lookup as a hit or a miss.
    fn count_lookup(&self, hit: bool) {
        let stats = &self.me().stats;
        let counter = if hit {
            &stats.cache_hits
        } else {
            &stats.cache_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Hands a job to the pool. A refusal answers `waiter` at once with
    /// the typed `overloaded` or `shutting_down` reply; returns whether
    /// the job was admitted.
    fn submit(&mut self, waiter: Waiter, job: Job) -> bool {
        let refusal = match (self.submit)(job) {
            Ok(()) => return true,
            Err(SubmitError::Overloaded { queue_depth }) => Response::Overloaded { queue_depth },
            Err(SubmitError::ShuttingDown) => Response::ShuttingDown,
        };
        self.deliver(waiter, encode_response(&refusal), false);
        false
    }

    /// Starts `flight` with `waiter` as its leader: the job runs on the
    /// pool and its [`Done`] comes back to this shard — a lost one if
    /// the job panics.
    fn lead(
        &mut self,
        flight: Flight,
        waiter: Waiter,
        job: impl FnOnce() -> Done + Send + 'static,
    ) {
        let owner = Arc::clone(self.me());
        let lost = flight.clone();
        let report = move |done: Option<Done>| {
            owner.post(Mail::Done(done.unwrap_or_else(|| Done::lost(lost))));
        };
        if self.submit(waiter, reporting(job, report)) {
            self.flights.insert(flight, vec![waiter]);
        }
    }

    /// Adds `waiter` to `flight` if it is in the air; returns whether it
    /// was.
    fn join(&mut self, flight: &Flight, waiter: Waiter) -> bool {
        let Some(waiters) = self.flights.get_mut(flight) else {
            return false;
        };
        waiters.push(waiter);
        self.me().stats.coalesced.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The owner-shard plan path: slice hit → flight join → repair claim
    /// → pool submission. Only this shard touches the slice, so the hit
    /// path is lock-free and the flight table needs no synchronization.
    fn handle_plan(&mut self, waiter: Waiter, dataset: usize, strategy: Strategy, seed: u64) {
        let generation = self.ctx.world.generation_of(dataset);
        let key: PlanKey = (dataset, strategy.label(), seed);
        let hit = self
            .plan_cache
            .get(&key)
            .filter(|entry| entry.generation == generation)
            .map(|entry| Arc::clone(&entry.hit_bytes));
        self.count_lookup(hit.is_some());
        if let Some(bytes) = hit {
            self.deliver(waiter, bytes, true);
            return;
        }
        let flight = Flight::Plan(key.clone(), generation);
        if self.join(&flight, waiter) {
            return;
        }
        // Claim a stale predecessor: repairable when the journal covers
        // the span and the entry kept what repairs it. Claiming retires
        // the entry either way.
        let mut repair = None;
        if let Some(stale) = self.plan_cache.remove(&key) {
            self.me()
                .stats
                .cache_invalidated
                .fetch_add(1, Ordering::Relaxed);
            repair = stale.repair.and_then(|basis| {
                let deltas = self.ctx.world.deltas_since(dataset, stale.generation)?;
                Some((basis, deltas))
            });
        }
        // Cold plans reuse the slice's cached snapshot when it is
        // current; otherwise the job walks (and offers the walk back).
        let snapshot = self
            .current_layout(dataset, generation)
            .map(|slot| Arc::clone(&slot.snapshot));
        let ctx = Arc::clone(&self.ctx);
        self.lead(flight.clone(), waiter, move || {
            let (ComputedPlan { reply, repair }, walked) = match repair {
                Some((basis, deltas)) => {
                    let timer = Timer::start();
                    let computed = planning::repair_plan(
                        &ctx.planner,
                        &ctx.placement,
                        basis,
                        &deltas,
                        &key,
                        generation,
                    );
                    ctx.repair_latency.record(timer.elapsed_us());
                    (computed, None)
                }
                None => {
                    let (snapshot, walked) = match snapshot {
                        Some(snapshot) => (snapshot, None),
                        None => {
                            let snapshot = ctx.walk(dataset);
                            (Arc::clone(&snapshot), Some(snapshot))
                        }
                    };
                    let timer = Timer::start();
                    let computed = planning::compute_plan(
                        &ctx.planner,
                        &ctx.placement,
                        &snapshot,
                        dataset,
                        &strategy,
                        seed,
                        generation,
                    );
                    ctx.cold_plan_latency.record(timer.elapsed_us());
                    (computed, walked)
                }
            };
            let (hit_bytes, leader, follower) = plan_variants(reply);
            Done {
                flight,
                leader,
                follower,
                keep: Keep {
                    plan: Some(PlanEntry {
                        generation,
                        hit_bytes,
                        repair,
                    }),
                    layout: walked.map(|snapshot| LayoutSlot {
                        generation,
                        snapshot,
                        hit_bytes: None,
                    }),
                },
            }
        });
    }

    /// The owner-shard layout path. A slice hit with encoded bytes is
    /// answered zero-copy; a hit whose snapshot was walked for a plan
    /// (no wire encoding yet) runs an encode-only flight; a miss walks.
    fn handle_layout(&mut self, waiter: Waiter, dataset: usize) {
        let generation = self.ctx.world.generation_of(dataset);
        let cached = self
            .current_layout(dataset, generation)
            .map(|slot| (Arc::clone(&slot.snapshot), slot.hit_bytes.clone()));
        self.count_lookup(cached.is_some());
        let snapshot = match cached {
            Some((_, Some(bytes))) => {
                self.deliver(waiter, bytes, true);
                return;
            }
            Some((snapshot, None)) => Some(snapshot),
            None => None,
        };
        let flight = Flight::Layout(dataset, generation);
        if self.join(&flight, waiter) {
            return;
        }
        let ctx = Arc::clone(&self.ctx);
        self.lead(flight.clone(), waiter, move || {
            let was_cached = snapshot.is_some();
            let snapshot = snapshot.unwrap_or_else(|| ctx.walk(dataset));
            let mut resp = Response::Layout(planning::layout_reply(
                dataset, generation, was_cached, &snapshot,
            ));
            let miss_bytes = encode_response(&resp);
            if let Response::Layout(reply) = &mut resp {
                reply.cached = true;
            }
            let hit_bytes = encode_response(&resp);
            Done {
                flight,
                leader: Arc::clone(&miss_bytes),
                follower: miss_bytes,
                keep: Keep {
                    plan: None,
                    layout: Some(LayoutSlot {
                        generation,
                        snapshot,
                        hit_bytes: Some(hit_bytes),
                    }),
                },
            }
        });
    }

    /// The owner-shard place path: no caching or coalescing (placement
    /// runs are rare and parameter-rich), but the slice's snapshot is
    /// reused and the reply goes straight back to the origin shard.
    fn handle_place(
        &mut self,
        waiter: Waiter,
        dataset: usize,
        rounds: usize,
        budget: Option<u64>,
        seed: u64,
    ) {
        let generation = self.ctx.world.generation_of(dataset);
        let snapshot = self
            .current_layout(dataset, generation)
            .map(|slot| Arc::clone(&slot.snapshot));
        self.count_lookup(snapshot.is_some());
        let ctx = Arc::clone(&self.ctx);
        let run = move || {
            let snapshot = snapshot.unwrap_or_else(|| ctx.walk(dataset));
            let reply = planning::place_reply(
                &ctx.planner,
                &ctx.placement,
                &snapshot,
                dataset,
                generation,
                rounds,
                budget,
                seed,
            );
            encode_response(&Response::Place(reply))
        };
        let origin = Arc::clone(self.ctx.shard(waiter.origin));
        let report = move |bytes: Option<FrameBytes>| {
            origin.post(Mail::Reply(RemoteReply {
                ticket: waiter.ticket,
                bytes: bytes.unwrap_or_else(lost_reply),
                count_latency: true,
            }));
        };
        self.submit(waiter, reporting(run, report));
    }

    /// Files a finished flight's results in the slice, then answers its
    /// leader and every follower.
    fn handle_done(&mut self, done: Done) {
        let Done {
            flight,
            leader,
            follower,
            keep,
        } = done;
        if let Some(slot) = keep.layout {
            self.offer_layout(flight.dataset(), slot);
        }
        if let (Flight::Plan(key, _), Some(entry)) = (&flight, keep.plan) {
            // Completion order can invert across generations; never let
            // an older flight overwrite a fresher entry.
            let fresher = self
                .plan_cache
                .get(key)
                .is_some_and(|e| e.generation > entry.generation);
            if !fresher {
                self.plan_cache.insert(key.clone(), entry);
            }
        }
        let waiters = self.flights.remove(&flight).unwrap_or_default();
        for (i, waiter) in waiters.into_iter().enumerate() {
            let bytes = if i == 0 { &leader } else { &follower };
            self.deliver(waiter, Arc::clone(bytes), true);
        }
    }

    /// Inserts a snapshot into the slice unless a fresher one is there.
    /// Encoded bytes are kept when offered, and never discarded by a
    /// same-generation offer without them.
    fn offer_layout(&mut self, dataset: usize, offer: LayoutSlot) {
        match self.layout_cache.get_mut(&dataset) {
            Some(slot) if slot.generation > offer.generation => {}
            Some(slot) if slot.generation == offer.generation => {
                if slot.hit_bytes.is_none() {
                    slot.hit_bytes = offer.hit_bytes;
                }
            }
            _ => {
                self.layout_cache.insert(dataset, offer);
            }
        }
    }

    /// Best-effort bounded flush of every write queue, then hang up.
    fn final_flush(&mut self) {
        for _ in 0..FLUSH_SWEEPS {
            let mut remaining = false;
            let mut progress = false;
            for idx in 0..self.conns.len() {
                progress |= self.pump_writes(idx);
                if let Some(conn) = self.conns[idx].as_ref() {
                    remaining |= !conn.wq.is_empty();
                }
            }
            if !remaining {
                break;
            }
            if !progress {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for idx in 0..self.conns.len() {
            self.reap(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_frame;
    use crate::spec::ServeSpec;
    use std::cell::RefCell;
    use std::io::ErrorKind;
    use std::rc::Rc;

    /// Both directions of an in-memory connection.
    #[derive(Default)]
    struct Wire {
        /// Bytes the peer sent that the shard has not read yet.
        inbound: VecDeque<u8>,
        /// Bytes the shard wrote.
        outbound: Vec<u8>,
        /// The peer closed its side: reads past `inbound` see the end.
        eof: bool,
        /// The peer took a write since the shard's last blocked call.
        busy: bool,
        hung_up: bool,
    }

    /// The shard's end of a [`Wire`]: each `read` hands over at most
    /// `read_chunk` bytes, and each `write` takes at most `write_chunk`,
    /// after which the peer is busy for one call (`WouldBlock`).
    struct Pipe {
        wire: Rc<RefCell<Wire>>,
        read_chunk: usize,
        write_chunk: usize,
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let mut wire = self.wire.borrow_mut();
            if wire.inbound.is_empty() {
                return if wire.eof {
                    Ok(0)
                } else {
                    Err(ErrorKind::WouldBlock.into())
                };
            }
            let n = buf.len().min(self.read_chunk).min(wire.inbound.len());
            for (slot, byte) in buf.iter_mut().zip(wire.inbound.drain(..n)) {
                *slot = byte;
            }
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut wire = self.wire.borrow_mut();
            wire.busy = !wire.busy;
            if !wire.busy {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.write_chunk);
            wire.outbound.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Stream for Pipe {
        fn hang_up(&mut self) {
            self.wire.borrow_mut().hung_up = true;
        }
    }

    /// Jobs the test's sink admitted and has not run yet.
    type Held = Rc<RefCell<VecDeque<Job>>>;

    fn spec() -> ServeSpec {
        ServeSpec {
            n_nodes: 8,
            n_datasets: 2,
            chunks_per_dataset: 48,
            ..Default::default()
        }
    }

    /// The only shard of a server over [`spec`], with a sink that holds
    /// up to `queue` jobs and refuses the rest as a full pool does.
    fn shard(queue: usize) -> (Shard<Pipe>, Held) {
        shard_placing(queue, spec().placement())
    }

    /// [`shard`] with its processes at `placement`.
    fn shard_placing(queue: usize, placement: ProcessPlacement) -> (Shard<Pipe>, Held) {
        let spec = spec();
        let addr = "127.0.0.1:0".parse().expect("socket address");
        let pool = WorkerPool::new(1, 1);
        let ctx = Ctx::new(World::new(spec), placement, pool, addr, 1, 1024);
        let held = Held::default();
        let sink = Rc::clone(&held);
        let submit = Box::new(move |job| {
            let mut held = sink.borrow_mut();
            if held.len() >= queue {
                return Err(SubmitError::Overloaded {
                    queue_depth: held.len(),
                });
            }
            held.push_back(job);
            Ok(())
        });
        (Shard::new(ctx, 0, submit), held)
    }

    fn connect(
        shard: &mut Shard<Pipe>,
        read_chunk: usize,
        write_chunk: usize,
    ) -> Rc<RefCell<Wire>> {
        let wire = Rc::default();
        shard.register(Pipe {
            wire: Rc::clone(&wire),
            read_chunk,
            write_chunk,
        });
        wire
    }

    /// Pipelines `requests` into the wire as one burst.
    fn send(wire: &RefCell<Wire>, requests: &[Request]) {
        for request in requests {
            let frame = encode_frame(&request.to_json()).expect("request encodes");
            wire.borrow_mut().inbound.extend(frame);
        }
    }

    /// One sweep over the shard's mail and connections.
    fn sweep(shard: &mut Shard<Pipe>) -> bool {
        let mail = std::mem::take(&mut shard.me().inbox.lock().expect("inbox").mail);
        shard.sweep(mail, false)
    }

    fn run_held(held: &Held) {
        let jobs: Vec<Job> = held.borrow_mut().drain(..).collect();
        for job in jobs {
            job();
        }
    }

    /// Sweeps and runs every admitted job until nothing moves, no job
    /// is held and every write queue is empty.
    fn settle(shard: &mut Shard<Pipe>, held: &Held) {
        for _ in 0..1_000_000 {
            let moved = sweep(shard);
            let flushed = shard.conns.iter().flatten().all(|c| c.wq.is_empty());
            if !moved && flushed && held.borrow().is_empty() {
                return;
            }
            run_held(held);
        }
        panic!("the shard never settled");
    }

    fn replies(bytes: &[u8]) -> Vec<Response> {
        let mut rest = bytes;
        let mut out = Vec::new();
        while !rest.is_empty() {
            let frame = read_frame(&mut rest).expect("whole reply frame");
            out.push(Response::from_json(&frame).expect("reply decodes"));
        }
        out
    }

    fn pending(shard: &Shard<Pipe>) -> u64 {
        shard.me().stats.pending.load(Ordering::Acquire)
    }

    fn plan(dataset: usize, seed: u64) -> Request {
        Request::Plan {
            dataset,
            strategy: Strategy::Opass,
            seed,
        }
    }

    #[test]
    fn a_full_queue_sheds_everything_behind_the_admitted_plan() {
        // The time-free twin of serve_e2e's
        // `saturated_queue_sheds_with_typed_overloaded`: the admitted
        // plan cannot finish before the burst is handled, because its
        // job runs only when the test runs it.
        let run = || {
            let (mut shard, held) = shard(1);
            let wire = connect(&mut shard, usize::MAX, usize::MAX);
            let mut burst: Vec<Request> = (0..8).map(|seed| plan(0, seed)).collect();
            burst.push(Request::Layout { dataset: 0 });
            burst.push(Request::Place {
                dataset: 0,
                rounds: 1,
                budget: None,
                seed: 0,
            });
            send(&wire, &burst);
            sweep(&mut shard);
            assert_eq!(held.borrow().len(), 1, "exactly one job is admitted");
            assert!(
                wire.borrow().outbound.is_empty(),
                "nothing is written while the plan heads the queue"
            );
            run_held(&held);
            settle(&mut shard, &held);
            assert_eq!(pending(&shard), 0);
            wire.take().outbound
        };
        let bytes = run();
        let replies = replies(&bytes);
        assert!(matches!(&replies[0], Response::Plan(p) if !p.cached && !p.coalesced));
        assert_eq!(
            replies[1..],
            vec![Response::Overloaded { queue_depth: 1 }; 9]
        );
        assert_eq!(run(), bytes, "the same bytes on every run");
    }

    /// Replies to one pipelined burst of every request kind, with jobs
    /// run as soon as they are admitted.
    fn burst_replies(read_chunk: usize, write_chunk: usize) -> Vec<u8> {
        let (mut shard, held) = shard(usize::MAX);
        let wire = connect(&mut shard, read_chunk, write_chunk);
        let burst = [
            Request::Ping,
            plan(0, 1),
            plan(1, 1),
            plan(0, 1),
            Request::Layout { dataset: 1 },
            Request::Layout { dataset: 7 },
            Request::Place {
                dataset: 0,
                rounds: 2,
                budget: None,
                seed: 3,
            },
            Request::Invalidate {
                dataset: Some(0),
                delta: None,
            },
            plan(0, 1),
            plan(1, 1),
        ];
        send(&wire, &burst);
        settle(&mut shard, &held);
        assert_eq!(pending(&shard), 0);
        let bytes = wire.take().outbound;
        let replies = replies(&bytes);
        assert_eq!(replies.len(), burst.len());
        assert!(matches!(&replies[3], Response::Plan(p) if p.coalesced));
        assert!(matches!(replies[5], Response::Error { .. }));
        assert_eq!(replies[7], Response::Invalidated { generation: 1 });
        assert!(matches!(&replies[8], Response::Plan(p) if p.generation == 1));
        bytes
    }

    #[test]
    fn replies_do_not_depend_on_how_the_bytes_are_split() {
        let whole = burst_replies(usize::MAX, usize::MAX);
        assert_eq!(burst_replies(1, usize::MAX), whole, "one byte per read");
        assert_eq!(burst_replies(usize::MAX, 1), whole, "one byte per write");
    }

    #[test]
    fn a_sweep_that_writes_then_blocks_makes_progress() {
        // Each write takes one byte and leaves the peer busy for the next
        // call, so every sweep after the first moves one byte of the pong
        // and then blocks. Those sweeps must not count toward the park.
        let (mut shard, _held) = shard(1);
        let wire = connect(&mut shard, usize::MAX, 1);
        send(&wire, &[Request::Ping]);
        assert!(sweep(&mut shard), "the ping is read");
        let mut written = wire.borrow().outbound.len();
        while !shard.conns.iter().flatten().all(|c| c.wq.is_empty()) {
            assert!(sweep(&mut shard), "the sweep wrote a byte");
            let now = wire.borrow().outbound.len();
            assert_eq!(now, written + 1);
            written = now;
        }
        assert!(matches!(
            replies(&wire.take().outbound)[..],
            [Response::Pong { .. }]
        ));
    }

    #[test]
    fn a_lost_job_answers_every_waiter_and_wedges_nothing() {
        // With no process to assign tasks to, the baseline planner and
        // the placement session panic inside their pool jobs.
        let (mut shard, held) = shard_placing(usize::MAX, ProcessPlacement::explicit(Vec::new()));
        let wire = connect(&mut shard, usize::MAX, usize::MAX);
        let plan = Request::Plan {
            dataset: 0,
            strategy: Strategy::RankInterval,
            seed: 1,
        };
        let place = Request::Place {
            dataset: 1,
            rounds: 1,
            budget: None,
            seed: 0,
        };
        send(&wire, &[plan.clone(), plan.clone(), place]);
        sweep(&mut shard);
        assert_eq!((held.borrow().len(), pending(&shard)), (2, 3));
        let jobs: Vec<Job> = held.borrow_mut().drain(..).collect();
        for job in jobs {
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            assert!(ran.is_err(), "the job panics");
        }
        settle(&mut shard, &held);
        assert_eq!(pending(&shard), 0, "every waiter is answered");
        let error = Response::Error {
            message: "the job serving this request failed".into(),
        };
        assert_eq!(replies(&wire.take().outbound), vec![error; 3]);

        // The cluster regains its processes: the next plan for the key
        // leads a fresh flight, as nothing was cached or left in the air.
        let ctx = Arc::get_mut(&mut shard.ctx).expect("no job holds the context");
        ctx.placement = spec().placement();
        send(&wire, &[plan]);
        sweep(&mut shard);
        assert_eq!(held.borrow().len(), 1, "the plan is admitted afresh");
        settle(&mut shard, &held);
        assert_eq!(pending(&shard), 0);
        let replies = replies(&wire.take().outbound);
        assert!(
            matches!(&replies[..], [Response::Plan(p)] if !p.cached && !p.coalesced),
            "{replies:?}"
        );
    }

    #[test]
    fn a_reply_for_a_reaped_connection_is_dropped_by_epoch() {
        let (mut shard, held) = shard(2);
        let old = connect(&mut shard, usize::MAX, usize::MAX);
        send(&old, &[plan(0, 5)]);
        sweep(&mut shard);
        assert_eq!((held.borrow().len(), pending(&shard)), (1, 1));
        // The peer hangs up before its plan is computed: the slot is
        // reaped and stops counting as pending.
        old.borrow_mut().eof = true;
        sweep(&mut shard);
        assert!(old.borrow().hung_up);
        assert_eq!(pending(&shard), 0);

        // A new connection takes the same slab slot, and its first
        // request the same write-queue slot id as the orphaned one.
        let new = connect(&mut shard, usize::MAX, usize::MAX);
        assert_eq!(shard.conns.len(), 1, "the new connection reuses the slot");
        send(&new, &[plan(1, 5)]);
        sweep(&mut shard);
        let orphan = held.borrow_mut().pop_front().expect("the orphaned job");
        orphan();
        sweep(&mut shard);
        assert_eq!(pending(&shard), 1, "the new plan is still pending");
        assert!(
            new.borrow().outbound.is_empty(),
            "the stale reply is dropped"
        );

        send(&new, &[plan(0, 5)]);
        settle(&mut shard, &held);
        assert_eq!(pending(&shard), 0);
        let replies = replies(&new.take().outbound);
        assert!(matches!(&replies[0], Response::Plan(p) if p.dataset == 1 && !p.cached));
        assert!(
            matches!(&replies[1], Response::Plan(p) if p.dataset == 0 && p.cached),
            "the orphaned flight still filled the cache: {replies:?}"
        );
        assert_eq!(replies.len(), 2);
    }
}
