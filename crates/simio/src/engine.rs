//! The discrete-event fluid-flow engine.
//!
//! The engine advances a simulated clock over *flows* (data transfers) that
//! share *resources* (disks, NIC directions) under max-min fairness. Between
//! events rates are constant, so the next interesting instant is either the
//! earliest flow completion or the earliest timer. Callers drive the engine
//! in a loop — submit flows and timers, call [`Engine::next_event`], react —
//! which is how the `opass-runtime` crate models parallel processes without
//! needing threads or coroutines. Everything is deterministic: identical
//! call sequences produce identical event sequences.
//!
//! ## Incremental core
//!
//! Event processing is incremental along three axes (see DESIGN.md §8 for
//! the complexity comparison against the dense implementation):
//!
//! * **Component-scoped rate recomputation.** Max-min allocations decompose
//!   over connected components of the flow ↔ resource sharing graph, so an
//!   activation or completion re-runs water-filling only on the affected
//!   component. The `components` module's `ComponentIndex` maintains the
//!   adjacency; dirty *seeds* (the activated flow, or the resources a
//!   completed flow released) replace the old global dirty flag.
//! * **ETA-indexed completions.** Predicted completion times live in a
//!   min-heap with lazy invalidation: each entry carries the generation
//!   stamp of the flow's rate at prediction time, and entries whose stamp
//!   no longer matches are discarded when they reach the top.
//! * **Virtual work.** A flow's byte progress is settled into `remaining`
//!   only when its rate changes or it completes; events leave flows in
//!   untouched components entirely unvisited.
//! * **A slot table.** A flow's state lives in a *slot* only while the
//!   flow is live: once its completion is delivered the slot, its
//!   adjacency row and its active-set position go on a free list and the
//!   next [`Engine::start_flow`] reuses them. Engine state is O(live
//!   flows), not O(flows submitted). Slots are labels and [`FlowId`]s
//!   (submission sequence numbers) are order: everything order-sensitive
//!   — the ETA heap, the solve order inside a component — keys by id.
//!
//! The previous dense implementation — global recompute plus linear
//! completion scan — is retained verbatim as a test-only oracle,
//! `reference::ReferenceEngine`: the `incremental_matches_reference_*`
//! property tests assert both engines produce the same event streams.

/// The retained dense engine (behavioral oracle; see module docs).
#[cfg(test)]
pub mod reference;

use crate::components::ComponentIndex;
use crate::fairshare::RateScratch;
use crate::flow::{FlowCompletion, FlowId, FlowPhase, FlowSpec, FlowState};
use crate::record::TraceEvent;
use crate::resource::{Resource, ResourceId};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bytes below which a transfer is considered finished (absorbs f64 drift).
pub(crate) const BYTES_EPS: f64 = 1e-6;

/// An event produced by [`Engine::next_event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A flow finished transferring all its bytes.
    FlowCompleted(FlowCompletion),
    /// A user timer set via [`Engine::set_timer`] fired.
    TimerFired {
        /// Caller tag passed to `set_timer`.
        token: u64,
        /// Fire time (equals [`Engine::now`] when delivered).
        at: SimTime,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    User { token: u64 },
    Activate { slot: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimerEntry {
    at: SimTime,
    seq: u64,
    kind: TimerKind,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A predicted completion in the ETA heap. Ordered by `(at, id, gen)` so
/// that simultaneous completions are delivered in ascending flow-id order
/// — the same tie-break the dense engine's keep-first linear scan
/// produced. The slot only locates the flow; it never orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EtaEntry {
    at: SimTime,
    id: FlowId,
    slot: u32,
    /// Flow generation at prediction time; a mismatch marks the entry stale.
    gen: u32,
}

impl EtaEntry {
    /// A prediction that the flow in `slot` completes at `at`.
    fn new(at: SimTime, slot: u32, flow: &FlowState) -> Self {
        EtaEntry {
            at,
            id: flow.id,
            slot,
            gen: flow.gen,
        }
    }
}

impl Ord for EtaEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.id, self.gen).cmp(&(other.at, other.id, other.gen))
    }
}

impl PartialOrd for EtaEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// O(1)-insert / O(1)-remove set of the slots of active flows. Iteration
/// order is unspecified; everything order-sensitive goes through the
/// sorted component extraction or the ETA heap instead.
#[derive(Debug, Default)]
struct ActiveSet {
    list: Vec<u32>,
    /// Position of each slot in `list` (`u32::MAX` = not active).
    pos: Vec<u32>,
}

impl ActiveSet {
    /// Registers a new slot (slots are sequential).
    fn register(&mut self) {
        self.pos.push(u32::MAX);
    }

    fn insert(&mut self, f: u32) {
        debug_assert_eq!(self.pos[f as usize], u32::MAX);
        self.pos[f as usize] = self.list.len() as u32;
        self.list.push(f);
    }

    fn remove(&mut self, f: u32) {
        let p = self.pos[f as usize] as usize;
        debug_assert_eq!(self.list[p], f);
        self.list.swap_remove(p);
        if p < self.list.len() {
            self.pos[self.list[p] as usize] = p as u32;
        }
        self.pos[f as usize] = u32::MAX;
    }

    #[inline]
    fn len(&self) -> usize {
        self.list.len()
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.list.iter().copied()
    }
}

/// Counters describing how much work the incremental engine actually did.
///
/// Exposed for observability and benchmarking: comparing `flows_rerated`
/// against `recompute_passes × active flows` measures directly what
/// component-scoping saved, and `eta_stale` is the lazy-invalidation
/// overhead of the completion heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Rate-recompute passes (one per event that dirtied any component).
    pub recompute_passes: u64,
    /// Connected components re-solved across all passes.
    pub components_recomputed: u64,
    /// Flow rate assignments that actually changed (and were settled).
    pub flows_rerated: u64,
    /// Predicted-completion entries pushed onto the ETA heap.
    pub eta_pushed: u64,
    /// Stale ETA entries discarded by lazy invalidation.
    pub eta_stale: u64,
    /// Flow completions delivered.
    pub completions: u64,
    /// User timers fired.
    pub timers_fired: u64,
}

impl EngineStats {
    /// Accumulates another engine's counters into this one — used when a
    /// logical run chains several engine instances (e.g. bulk-synchronous
    /// rounds) and wants whole-run totals.
    pub fn merge(&mut self, other: &EngineStats) {
        self.recompute_passes += other.recompute_passes;
        self.components_recomputed += other.components_recomputed;
        self.flows_rerated += other.flows_rerated;
        self.eta_pushed += other.eta_pushed;
        self.eta_stale += other.eta_stale;
        self.completions += other.completions;
        self.timers_fired += other.timers_fired;
    }
}

/// Settles a flow's virtual progress up to `at`: bytes accrued since the
/// last settle are charged against `remaining` and credited to the
/// per-resource delivery accounting. Called only when the flow's rate
/// changes or it completes.
fn settle(flow: &mut FlowState, delivered: &mut [f64], at: SimTime) {
    if flow.rate.is_finite() {
        let dt = at - flow.updated_at;
        if flow.rate > 0.0 && dt > 0.0 {
            let moved = (flow.rate * dt).min(flow.remaining);
            flow.remaining -= moved;
            for &r in &flow.resources {
                delivered[r] += moved;
            }
        }
    } else {
        flow.remaining = 0.0;
    }
    flow.updated_at = at;
}

/// Deterministic discrete-event simulator for shared-bandwidth I/O.
///
/// # Example
///
/// ```
/// use opass_simio::{Engine, Event, FlowSpec, Resource};
///
/// let mut engine = Engine::new();
/// let disk = engine.add_resource(Resource::constant("disk", 100.0));
/// // Two 100-byte transfers share the 100 B/s disk: both take 2 s.
/// engine.start_flow(FlowSpec::new(100, vec![disk], 1));
/// engine.start_flow(FlowSpec::new(100, vec![disk], 2));
/// let mut done = 0;
/// while let Some(Event::FlowCompleted(c)) = engine.next_event() {
///     assert!((c.completed_at.as_secs() - 2.0).abs() < 1e-9);
///     done += 1;
/// }
/// assert_eq!(done, 2);
/// ```
#[derive(Debug)]
pub struct Engine {
    now: SimTime,
    resources: Vec<Resource>,
    /// The slot table: the state of each live flow, and of the flow a
    /// free slot last held (`Completed`).
    flows: Vec<FlowState>,
    /// Slots whose flow's completion was delivered, for reuse.
    free: Vec<u32>,
    /// The id of the next submitted flow.
    next_id: u64,
    /// Slots of the flows in the `Active` phase.
    active: ActiveSet,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    /// Predicted completions (min-heap, lazily invalidated).
    etas: BinaryHeap<Reverse<EtaEntry>>,
    /// Whether a recompute pass is pending. Set alongside the dirty seeds
    /// (and by pathless activations, which seed nothing but still count as
    /// a pass, matching the dense engine's emission cadence).
    rates_dirty: bool,
    /// Slots of activated flows whose component must be re-solved.
    dirty_flows: Vec<u32>,
    /// Resources released by completed flows whose components must be
    /// re-solved (may contain duplicates; the pass epoch dedupes).
    dirty_res: Vec<u32>,
    /// Active flow ↔ resource adjacency, for component extraction and
    /// per-resource concurrency counts.
    index: ComponentIndex,
    /// Reusable water-filling buffers.
    scratch: RateScratch,
    /// Reusable component-extraction buffers.
    comp_flows: Vec<u32>,
    comp_res: Vec<u32>,
    /// Bytes settled through each resource; [`Engine::bytes_through`] adds
    /// the in-flight (not yet settled) complement.
    delivered: Vec<f64>,
    /// The recorded event log; `None` while recording is off (the
    /// default).
    events: Option<Vec<TraceEvent>>,
    /// Work counters.
    stats: EngineStats,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            resources: Vec::new(),
            flows: Vec::new(),
            free: Vec::new(),
            next_id: 0,
            active: ActiveSet::default(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            etas: BinaryHeap::new(),
            rates_dirty: false,
            dirty_flows: Vec::new(),
            dirty_res: Vec::new(),
            index: ComponentIndex::new(),
            scratch: RateScratch::new(),
            comp_flows: Vec::new(),
            comp_res: Vec::new(),
            delivered: Vec::new(),
            events: None,
            stats: EngineStats::default(),
        }
    }

    /// Turns event recording on: from now on every emit site appends a
    /// [`TraceEvent`] to the engine's log. While recording is off, emit
    /// sites cost a single branch and build no events.
    pub fn record_events(&mut self) {
        self.events.get_or_insert_with(Vec::new);
    }

    /// Whether recording is on.
    pub fn recording(&self) -> bool {
        self.events.is_some()
    }

    /// The events recorded so far, leaving the log empty and recording
    /// on; `None` while recording is off.
    pub fn take_events(&mut self) -> Option<Vec<TraceEvent>> {
        self.events.as_mut().map(std::mem::take)
    }

    /// Appends an event to the log while recording (no-op otherwise).
    /// Public so higher layers ([`crate::ClusterIo`], the runtime
    /// executor) can interleave their own events with the engine's in one
    /// stream.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        if let Some(log) = &mut self.events {
            log.push(event);
        }
    }

    /// Work counters accumulated since construction.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Registers a resource and returns its id.
    pub fn add_resource(&mut self, resource: Resource) -> ResourceId {
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(resource);
        self.delivered.push(0.0);
        self.index.add_resource();
        id
    }

    /// Returns the resource behind an id.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.index()]
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of flows currently transferring (excludes latent ones).
    pub fn active_flow_count(&self) -> usize {
        self.active.len()
    }

    /// Total bytes that have traversed `resource` so far — per-resource
    /// utilization accounting (e.g. how much data each disk streamed or
    /// each rack uplink carried). Includes the virtual (not yet settled)
    /// progress of in-flight flows, so mid-run reads see current totals.
    pub fn bytes_through(&self, resource: ResourceId) -> f64 {
        let r = resource.index();
        let mut total = self.delivered[r];
        for &f in self.index.flows_on(r) {
            let flow = &self.flows[f as usize];
            if flow.rate.is_finite() && flow.rate > 0.0 {
                let dt = self.now - flow.updated_at;
                if dt > 0.0 {
                    total += (flow.rate * dt).min(flow.remaining);
                }
            }
        }
        total
    }

    /// Mean utilization of `resource` since time zero: bytes carried
    /// divided by what the base capacity could have carried. Returns 0
    /// before any time has passed.
    pub fn utilization(&self, resource: ResourceId) -> f64 {
        let elapsed = self.now.as_secs();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let possible = self.resources[resource.index()].base_capacity * elapsed;
        self.bytes_through(resource) / possible
    }

    /// Submits a flow. It starts transferring after its startup latency.
    /// Its state takes a free slot when there is one, and the spec's path
    /// is copied into that slot's buffer, so once warm the engine
    /// allocates nothing per flow.
    ///
    /// # Panics
    ///
    /// Panics if the spec references an unknown resource.
    pub fn start_flow(&mut self, spec: FlowSpec<'_>) -> FlowId {
        for r in spec.path.iter() {
            assert!(
                r.index() < self.resources.len(),
                "flow references unknown resource {:?}",
                r
            );
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let flow = &mut self.flows[slot as usize];
                let buffer = std::mem::take(&mut flow.resources);
                *flow = FlowState::reusing(buffer, id, &spec, self.now);
                slot
            }
            None => {
                let slot = u32::try_from(self.flows.len()).expect("too many live flows");
                self.flows.push(FlowState::new(id, &spec, self.now));
                self.active.register();
                slot
            }
        };
        self.index
            .set_row(slot, &self.flows[slot as usize].resources);
        if spec.latency > 0.0 {
            self.push_timer(self.now + spec.latency, TimerKind::Activate { slot });
        } else {
            self.activate(slot);
        }
        id
    }

    /// Schedules a user timer `delay` seconds from now.
    pub fn set_timer(&mut self, delay: f64, token: u64) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "timer delay must be finite and non-negative"
        );
        self.push_timer(self.now + delay, TimerKind::User { token });
    }

    fn push_timer(&mut self, at: SimTime, kind: TimerKind) {
        let entry = TimerEntry {
            at,
            seq: self.timer_seq,
            kind,
        };
        self.timer_seq += 1;
        self.timers.push(Reverse(entry));
    }

    fn activate(&mut self, f: u32) {
        let now = self.now;
        let flow = &mut self.flows[f as usize];
        debug_assert_eq!(flow.phase, FlowPhase::Latent);
        flow.phase = FlowPhase::Active;
        flow.updated_at = now;
        let pathless = flow.resources.is_empty();
        if pathless {
            // No shared resources: the allocator would hand the flow its
            // rate cap (infinite when uncapped), so assign it directly and
            // skip component recomputation entirely.
            flow.rate = flow.rate_cap;
            flow.gen = flow.gen.wrapping_add(1);
        }
        self.active.insert(f);
        self.index.insert(f);
        if pathless {
            self.push_eta(f);
        } else {
            self.dirty_flows.push(f);
        }
        self.rates_dirty = true;
    }

    /// Pushes a predicted completion for the flow in slot `f` from its
    /// current state.
    fn push_eta(&mut self, f: u32) {
        let flow = &self.flows[f as usize];
        let at = if flow.remaining <= BYTES_EPS || flow.rate.is_infinite() {
            self.now
        } else {
            debug_assert!(
                flow.rate > 0.0,
                "active flow {:?} has zero rate; resources saturated to zero?",
                flow.id
            );
            if flow.rate <= 0.0 {
                return; // defensive: stuck flow, no predicted completion
            }
            self.now + flow.remaining / flow.rate
        };
        self.etas.push(Reverse(EtaEntry::new(at, f, flow)));
        self.stats.eta_pushed += 1;
    }

    /// Re-solves every component reachable from the dirty seeds, settles
    /// and re-stamps flows whose rate changed, and emits one
    /// [`TraceEvent::RatesRecomputed`] for the pass.
    fn recompute_dirty(&mut self) {
        self.index.begin_pass();
        let mut si = 0;
        while si < self.dirty_flows.len() {
            let f = self.dirty_flows[si];
            si += 1;
            if self.flows[f as usize].phase != FlowPhase::Active || self.index.flow_seen(f) {
                continue;
            }
            let mut comp_flows = std::mem::take(&mut self.comp_flows);
            let mut comp_res = std::mem::take(&mut self.comp_res);
            self.index
                .component_from_flow(f, &mut comp_flows, &mut comp_res);
            self.comp_flows = comp_flows;
            self.comp_res = comp_res;
            self.solve_component();
        }
        let mut sj = 0;
        while sj < self.dirty_res.len() {
            let r = self.dirty_res[sj];
            sj += 1;
            if self.index.resource_seen(r) {
                continue;
            }
            let mut comp_flows = std::mem::take(&mut self.comp_flows);
            let mut comp_res = std::mem::take(&mut self.comp_res);
            self.index
                .component_from_resource(r, &mut comp_flows, &mut comp_res);
            self.comp_flows = comp_flows;
            self.comp_res = comp_res;
            if !self.comp_flows.is_empty() {
                self.solve_component();
            }
        }
        self.dirty_flows.clear();
        self.dirty_res.clear();
        self.rates_dirty = false;
        self.stats.recompute_passes += 1;
        if let Some(log) = &mut self.events {
            let (mut min_rate, mut max_rate) = (f64::INFINITY, 0.0f64);
            for f in self.active.iter() {
                let r = self.flows[f as usize].rate;
                min_rate = min_rate.min(r);
                max_rate = max_rate.max(r);
            }
            if self.active.len() == 0 {
                min_rate = 0.0;
            }
            log.push(TraceEvent::RatesRecomputed {
                at: self.now.as_secs(),
                active_flows: self.active.len(),
                min_rate,
                max_rate,
            });
        }
    }

    /// Water-fills one component (the `comp_flows` / `comp_res` buffers)
    /// and applies the resulting rates. Components are solved with flows
    /// and resources in ascending id order (flows by [`FlowId`], not by
    /// slot), which makes the arithmetic — and hence the rates —
    /// bit-identical to a global dense recompute.
    fn solve_component(&mut self) {
        let flows = &self.flows;
        self.comp_flows
            .sort_unstable_by_key(|&f| flows[f as usize].id);
        self.comp_res.sort_unstable();
        self.scratch.begin();
        for &r in &self.comp_res {
            let ri = r as usize;
            let n = self.index.flows_on(ri).len();
            self.scratch
                .push_resource(ri, self.resources[ri].capacity(n));
        }
        for &f in &self.comp_flows {
            let flow = &self.flows[f as usize];
            self.scratch.push_flow(&flow.resources, flow.rate_cap);
        }
        let rates = self.scratch.fill();
        let now = self.now;
        for (k, &f) in self.comp_flows.iter().enumerate() {
            let new_rate = rates[k];
            let flow = &mut self.flows[f as usize];
            if new_rate.to_bits() == flow.rate.to_bits() {
                continue; // rate untouched: no settle, ETA entry stays valid
            }
            settle(flow, &mut self.delivered, now);
            flow.rate = new_rate;
            flow.gen = flow.gen.wrapping_add(1);
            self.stats.flows_rerated += 1;
            let at = if flow.remaining <= BYTES_EPS || new_rate.is_infinite() {
                now
            } else {
                debug_assert!(
                    new_rate > 0.0,
                    "active flow {:?} has zero rate; resources saturated to zero?",
                    flow.id
                );
                if new_rate <= 0.0 {
                    continue; // defensive: stuck flow, no predicted completion
                }
                now + flow.remaining / new_rate
            };
            self.etas.push(Reverse(EtaEntry::new(at, f, flow)));
            self.stats.eta_pushed += 1;
        }
        self.stats.components_recomputed += 1;
    }

    /// Earliest valid predicted completion (its time and slot),
    /// discarding stale heap entries: those whose slot has since taken
    /// another flow, whose flow is no longer active, or whose rate changed.
    fn peek_completion(&mut self) -> Option<(SimTime, u32)> {
        while let Some(&Reverse(e)) = self.etas.peek() {
            let flow = &self.flows[e.slot as usize];
            if flow.id == e.id && flow.phase == FlowPhase::Active && flow.gen == e.gen {
                return Some((e.at, e.slot));
            }
            self.etas.pop();
            self.stats.eta_stale += 1;
        }
        None
    }

    /// Advances the clock to the next event and returns it, or `None` when
    /// no flows or timers remain.
    pub fn next_event(&mut self) -> Option<Event> {
        loop {
            if self.rates_dirty {
                self.recompute_dirty();
            }
            let completion = self.peek_completion();
            let timer_at = self.timers.peek().map(|&Reverse(e)| e.at);

            let take_timer = match (completion, timer_at) {
                (None, None) => return None,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                // Prefer timers on ties so latent flows activate before
                // concurrent completions are delivered.
                (Some((ct, _)), Some(tt)) => tt <= ct,
            };

            if take_timer {
                let Reverse(entry) = self.timers.pop().expect("peeked timer must exist");
                debug_assert!(
                    entry.at - self.now >= -1e-12,
                    "time must not move backwards"
                );
                self.now = self.now.max(entry.at);
                match entry.kind {
                    TimerKind::Activate { slot } => {
                        self.activate(slot);
                        continue;
                    }
                    TimerKind::User { token } => {
                        self.stats.timers_fired += 1;
                        return Some(Event::TimerFired {
                            token,
                            at: self.now,
                        });
                    }
                }
            } else {
                let (at, f) = completion.expect("completion must exist");
                self.etas.pop();
                debug_assert!(at - self.now >= -1e-12, "time must not move backwards");
                self.now = self.now.max(at);
                // Every activation is solved before the next completion
                // is picked, so no dirty seed can name the slot freed here.
                debug_assert!(self.dirty_flows.is_empty());
                let fi = f as usize;
                settle(&mut self.flows[fi], &mut self.delivered, self.now);
                let flow = &mut self.flows[fi];
                flow.remaining = 0.0;
                flow.phase = FlowPhase::Completed;
                flow.gen = flow.gen.wrapping_add(1);
                let completion = FlowCompletion {
                    flow: flow.id,
                    token: flow.token,
                    bytes: flow.bytes,
                    issued_at: flow.issued_at,
                    completed_at: self.now,
                };
                self.active.remove(f);
                for &r in &self.flows[fi].resources {
                    self.dirty_res.push(r as u32);
                }
                self.index.remove(f);
                self.free.push(f);
                self.rates_dirty = true;
                self.stats.completions += 1;
                if let Some(log) = &mut self.events {
                    log.push(TraceEvent::FlowFinished {
                        at: completion.completed_at.as_secs(),
                        token: completion.token,
                        bytes: completion.bytes,
                    });
                }
                return Some(Event::FlowCompleted(completion));
            }
        }
    }

    /// Runs the engine to exhaustion, collecting all flow completions.
    ///
    /// Useful when the full set of flows is known upfront (no reactive
    /// scheduling). Timer events are discarded.
    pub fn drain(&mut self) -> Vec<FlowCompletion> {
        let mut out = Vec::new();
        while let Some(ev) = self.next_event() {
            if let Event::FlowCompleted(c) = ev {
                out.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant(engine: &mut Engine, cap: f64) -> ResourceId {
        engine.add_resource(Resource::constant("r", cap))
    }

    #[test]
    fn empty_engine_yields_nothing() {
        let mut e = Engine::new();
        assert_eq!(e.next_event(), None);
    }

    #[test]
    fn single_flow_duration_is_size_over_capacity() {
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        e.start_flow(FlowSpec::new(250, vec![r], 9));
        match e.next_event() {
            Some(Event::FlowCompleted(c)) => {
                assert_eq!(c.token, 9);
                assert!((c.completed_at.as_secs() - 2.5).abs() < 1e-9);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(e.next_event(), None);
    }

    #[test]
    fn latency_delays_transfer() {
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        e.start_flow(FlowSpec::new(100, vec![r], 0).with_latency(0.5));
        match e.next_event() {
            Some(Event::FlowCompleted(c)) => {
                assert!((c.completed_at.as_secs() - 1.5).abs() < 1e-9);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // Flow A: 100 bytes, flow B: 300 bytes, on a 100 B/s resource.
        // Shared phase: both at 50 B/s until A finishes at t=2 (A done).
        // B then has 200 bytes left at 100 B/s -> finishes at t=4.
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        e.start_flow(FlowSpec::new(100, vec![r], 1));
        e.start_flow(FlowSpec::new(300, vec![r], 2));
        let c1 = match e.next_event().unwrap() {
            Event::FlowCompleted(c) => c,
            ev => panic!("unexpected {ev:?}"),
        };
        assert_eq!(c1.token, 1);
        assert!((c1.completed_at.as_secs() - 2.0).abs() < 1e-9);
        let c2 = match e.next_event().unwrap() {
            Event::FlowCompleted(c) => c,
            ev => panic!("unexpected {ev:?}"),
        };
        assert_eq!(c2.token, 2);
        assert!(
            (c2.completed_at.as_secs() - 4.0).abs() < 1e-9,
            "got {}",
            c2.completed_at
        );
    }

    #[test]
    fn timer_fires_between_completions() {
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        e.start_flow(FlowSpec::new(1000, vec![r], 1)); // completes at 10s
        e.set_timer(3.0, 42);
        match e.next_event().unwrap() {
            Event::TimerFired { token, at } => {
                assert_eq!(token, 42);
                assert!((at.as_secs() - 3.0).abs() < 1e-9);
            }
            ev => panic!("unexpected {ev:?}"),
        }
        match e.next_event().unwrap() {
            Event::FlowCompleted(c) => {
                assert!((c.completed_at.as_secs() - 10.0).abs() < 1e-9);
            }
            ev => panic!("unexpected {ev:?}"),
        }
    }

    #[test]
    fn reactive_submission_mid_simulation() {
        // Submit a second flow when the first completes; durations chain.
        let mut e = Engine::new();
        let r = constant(&mut e, 10.0);
        e.start_flow(FlowSpec::new(100, vec![r], 1));
        let first = e.next_event().unwrap();
        assert!(matches!(first, Event::FlowCompleted(c) if c.token == 1));
        e.start_flow(FlowSpec::new(50, vec![r], 2));
        match e.next_event().unwrap() {
            Event::FlowCompleted(c) => {
                assert_eq!(c.token, 2);
                assert!((c.completed_at.as_secs() - 15.0).abs() < 1e-9);
            }
            ev => panic!("unexpected {ev:?}"),
        }
    }

    #[test]
    fn zero_byte_flow_completes_after_latency() {
        let mut e = Engine::new();
        let r = constant(&mut e, 10.0);
        e.start_flow(FlowSpec::new(0, vec![r], 5).with_latency(0.25));
        match e.next_event().unwrap() {
            Event::FlowCompleted(c) => {
                assert_eq!(c.bytes, 0);
                assert!((c.completed_at.as_secs() - 0.25).abs() < 1e-9);
            }
            ev => panic!("unexpected {ev:?}"),
        }
    }

    #[test]
    fn pathless_flow_is_pure_latency() {
        let mut e = Engine::new();
        e.start_flow(FlowSpec::new(1 << 30, vec![], 1).with_latency(1.0));
        match e.next_event().unwrap() {
            Event::FlowCompleted(c) => {
                assert!((c.completed_at.as_secs() - 1.0).abs() < 1e-9);
            }
            ev => panic!("unexpected {ev:?}"),
        }
    }

    #[test]
    fn seek_degradation_slows_contended_disk() {
        // One lone transfer vs. the same transfer alongside five others on a
        // degrading disk: the lone one must be strictly faster than 6x-share.
        let params = |e: &mut Engine| e.add_resource(Resource::disk("sda", 100.0, 0.25, 0.2));
        let mut lone = Engine::new();
        let d = params(&mut lone);
        lone.start_flow(FlowSpec::new(1000, vec![d], 0));
        let lone_done = lone.drain()[0].completed_at.as_secs();
        assert!((lone_done - 10.0).abs() < 1e-9);

        let mut busy = Engine::new();
        let d = params(&mut busy);
        for t in 0..6 {
            busy.start_flow(FlowSpec::new(1000, vec![d], t));
        }
        let completions = busy.drain();
        assert_eq!(completions.len(), 6);
        let last = completions.last().unwrap().completed_at.as_secs();
        // Aggregate at n=6 is 100*(0.2+0.8/2.25)=55.55 B/s for 6000 bytes
        // -> 108 s, far worse than the 60 s a non-degrading disk would take.
        assert!(last > 100.0, "last={last}");
    }

    #[test]
    fn drain_returns_all_completions_in_time_order() {
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        for i in 0..10 {
            e.start_flow(FlowSpec::new(100 * (i + 1), vec![r], i));
        }
        let completions = e.drain();
        assert_eq!(completions.len(), 10);
        for w in completions.windows(2) {
            assert!(w[0].completed_at <= w[1].completed_at);
        }
    }

    #[test]
    fn utilization_accounting_conserves_bytes() {
        let mut e = Engine::new();
        let a = constant(&mut e, 100.0);
        let b = constant(&mut e, 50.0);
        e.start_flow(FlowSpec::new(500, vec![a, b], 1));
        e.start_flow(FlowSpec::new(300, vec![a], 2));
        e.drain();
        // Resource b carried only the first flow; a carried both.
        assert!((e.bytes_through(b) - 500.0).abs() < 1e-6);
        assert!((e.bytes_through(a) - 800.0).abs() < 1e-6);
        // Utilization is bounded by 1 and positive once data moved.
        assert!(e.utilization(a) > 0.0 && e.utilization(a) <= 1.0 + 1e-9);
    }

    #[test]
    fn bytes_through_includes_in_flight_progress() {
        // Virtual-work accounting must not make mid-run utilization reads
        // stale: after 3 of 10 seconds, ~300 of 1000 bytes have traversed.
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        e.start_flow(FlowSpec::new(1000, vec![r], 1));
        e.set_timer(3.0, 7);
        assert!(matches!(e.next_event(), Some(Event::TimerFired { .. })));
        assert!((e.bytes_through(r) - 300.0).abs() < 1e-6);
        assert!((e.utilization(r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut e = Engine::new();
            let a = e.add_resource(Resource::disk("a", 72e6, 0.25, 0.2));
            let b = e.add_resource(Resource::constant("b", 117e6));
            for i in 0..20 {
                let path = if i % 2 == 0 { vec![a] } else { vec![a, b] };
                e.start_flow(FlowSpec::new(64 << 20, path, i).with_latency(0.01 * i as f64));
            }
            e.drain()
                .iter()
                .map(|c| (c.token, c.completed_at.as_secs()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_latency_activations_preserve_submission_order() {
        // Zero-latency flows activate synchronously inside start_flow, and
        // identical flows complete tie-broken by flow id — so completion
        // order must equal submission order, with equal timestamps.
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        for t in [3u64, 1, 2] {
            e.start_flow(FlowSpec::new(200, vec![r], t));
        }
        let done = e.drain();
        assert_eq!(done.iter().map(|c| c.token).collect::<Vec<_>>(), [3, 1, 2]);
        assert!(done.iter().all(|c| c.completed_at == done[0].completed_at));
    }

    #[test]
    fn equal_latency_activations_preserve_submission_order() {
        // Latent flows with the same activation instant are released in
        // submission order (timer sequence numbers break the tie).
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        for t in [9u64, 4, 6] {
            e.start_flow(FlowSpec::new(100, vec![r], t).with_latency(0.5));
        }
        let done = e.drain();
        assert_eq!(done.iter().map(|c| c.token).collect::<Vec<_>>(), [9, 4, 6]);
    }

    #[test]
    fn simultaneous_completions_tie_break_by_flow_id() {
        // Four identical flows on two disjoint resources all finish at the
        // same instant; delivery order must be ascending flow id even
        // though the active-set iteration order is unspecified.
        let mut e = Engine::new();
        let a = constant(&mut e, 100.0);
        let b = constant(&mut e, 100.0);
        let ids: Vec<FlowId> = [(a, 10u64), (b, 11), (a, 12), (b, 13)]
            .into_iter()
            .map(|(r, t)| e.start_flow(FlowSpec::new(400, vec![r], t)))
            .collect();
        let done = e.drain();
        assert_eq!(
            done.iter().map(|c| c.flow).collect::<Vec<_>>(),
            ids,
            "completions must be delivered in flow-id order"
        );
        assert!((done[0].completed_at.as_secs() - 8.0).abs() < 1e-9);
        assert!(done.iter().all(|c| c.completed_at == done[0].completed_at));
    }

    #[test]
    fn uncapped_pathless_flow_completes_instantly() {
        // Infinite rate: all bytes move in zero time, at the current clock.
        let mut e = Engine::new();
        e.start_flow(FlowSpec::new(1 << 40, vec![], 3));
        match e.next_event().unwrap() {
            Event::FlowCompleted(c) => {
                assert_eq!(c.token, 3);
                assert_eq!(c.completed_at.as_secs(), 0.0);
            }
            ev => panic!("unexpected {ev:?}"),
        }
    }

    #[test]
    fn capped_pathless_flow_runs_at_its_cap() {
        // A rate cap makes a pathless flow a fixed-duration transfer that
        // shares nothing: 100 bytes at 50 B/s after 0.5 s latency.
        let mut e = Engine::new();
        e.start_flow(
            FlowSpec::new(100, vec![], 8)
                .with_latency(0.5)
                .with_rate_cap(50.0),
        );
        match e.next_event().unwrap() {
            Event::FlowCompleted(c) => {
                assert!((c.completed_at.as_secs() - 2.5).abs() < 1e-9);
            }
            ev => panic!("unexpected {ev:?}"),
        }
    }

    #[test]
    fn pathless_flows_do_not_disturb_other_components() {
        // A burst of pathless flows must not change the rate of a disk
        // transfer (no shared resources => different components).
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        e.start_flow(FlowSpec::new(1000, vec![r], 1));
        for t in 0..8u64 {
            e.start_flow(FlowSpec::new(1, vec![], 100 + t).with_latency(0.1 * (t + 1) as f64));
        }
        let done = e.drain();
        let disk_done = done.iter().find(|c| c.token == 1).unwrap();
        assert!((disk_done.completed_at.as_secs() - 10.0).abs() < 1e-9);
        let stats = e.stats();
        assert_eq!(stats.completions, 9);
        // The disk flow is rerated exactly once (on activation): pathless
        // activations seed no component.
        assert_eq!(stats.flows_rerated, 1);
    }

    #[test]
    fn component_scoping_limits_rerates() {
        // Two disjoint pairs of flows: completing a flow in one pair must
        // not re-rate the other pair. With global recomputation every
        // event would touch every active flow.
        let mut e = Engine::new();
        let a = constant(&mut e, 100.0);
        let b = constant(&mut e, 100.0);
        e.start_flow(FlowSpec::new(100, vec![a], 0));
        e.start_flow(FlowSpec::new(300, vec![a], 1));
        e.start_flow(FlowSpec::new(100, vec![b], 2));
        e.start_flow(FlowSpec::new(300, vec![b], 3));
        e.drain();
        let stats = e.stats();
        // All four zero-latency activations batch into the first pass
        // (each flow rated once, at 50), then per pair the first
        // completion speeds the survivor up (+1) and the last completion
        // rerates nothing: 4 + 2 = 6 total.
        assert_eq!(stats.flows_rerated, 6);
        assert_eq!(stats.completions, 4);
        assert!(stats.components_recomputed >= 4);
    }

    #[test]
    fn rates_recomputed_emitted_once_per_pass() {
        // Two staggered flows: passes happen at activation(t=0),
        // activation(t=0.5), completion, completion — four total, emitted
        // exactly once each regardless of how many components were solved.
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        e.record_events();
        e.start_flow(FlowSpec::new(100, vec![r], 1));
        e.start_flow(FlowSpec::new(100, vec![r], 2).with_latency(0.5));
        e.drain();
        let recomputes = e
            .take_events()
            .expect("recording")
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::RatesRecomputed { .. }))
            .count();
        assert_eq!(recomputes, 4);
        assert_eq!(e.stats().recompute_passes, 4);
    }

    #[test]
    fn slots_follow_live_flows_not_flows_submitted() {
        use rand::{Rng, SeedableRng};

        // One flow at a time: fifty reads, one slot.
        let mut e = Engine::new();
        let r = constant(&mut e, 100.0);
        for t in 0..50u64 {
            e.start_flow(FlowSpec::new(100, vec![r], t));
            assert!(matches!(e.next_event(), Some(Event::FlowCompleted(c)) if c.token == t));
        }
        assert_eq!(e.flows.len(), 1);

        // Seeded churn over four resources: submissions and deliveries
        // interleave at random, and the table grows only to the most
        // flows ever live at once. Ids stay submission numbers.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5107);
        let mut e = Engine::new();
        let rs: Vec<ResourceId> = (0..4).map(|_| constant(&mut e, 100.0)).collect();
        let (mut submitted, mut live, mut peak) = (0u64, 0usize, 0usize);
        let mut delivered = Vec::new();
        while submitted < 300 || live > 0 {
            if submitted < 300 && (live == 0 || rng.gen_bool(0.55)) {
                let path: Vec<_> = (0..rng.gen_range(0..=3))
                    .map(|_| rs[rng.gen_range(0..4)])
                    .collect();
                let spec = FlowSpec::new(rng.gen_range(1..1_000), path, submitted)
                    .with_latency(rng.gen_range(0.0..0.5));
                assert_eq!(e.start_flow(spec), FlowId(submitted));
                submitted += 1;
                live += 1;
                peak = peak.max(live);
            } else if let Some(Event::FlowCompleted(c)) = e.next_event() {
                assert_eq!(c.flow.index() as u64, c.token);
                delivered.push(c.token);
                live -= 1;
            }
        }
        assert_eq!(e.next_event(), None);
        delivered.sort_unstable();
        assert_eq!(delivered, (0..300).collect::<Vec<_>>());
        assert!(peak < 100, "the churn kept {peak} flows live");
        assert_eq!(e.flows.len(), peak);
    }

    #[test]
    fn recording_does_not_change_results_or_stats() {
        let run = |record: bool| {
            let mut e = Engine::new();
            let a = e.add_resource(Resource::disk("a", 72e6, 0.25, 0.2));
            let b = e.add_resource(Resource::constant("b", 117e6));
            if record {
                e.record_events();
            }
            for i in 0..12 {
                let path = if i % 3 == 0 { vec![a] } else { vec![a, b] };
                e.start_flow(FlowSpec::new(1 << 20, path, i).with_latency(0.02 * i as f64));
            }
            let done = e
                .drain()
                .iter()
                .map(|c| (c.token, c.completed_at.as_secs()))
                .collect::<Vec<_>>();
            (done, e.stats())
        };
        assert_eq!(run(false), run(true));
    }
}

#[cfg(test)]
mod equivalence {
    //! Property tests: the incremental engine must produce the same event
    //! stream as the retained dense reference engine on randomized
    //! workloads — same completion order and tokens, same timestamps (to
    //! float-association dust), same rate extrema at every recompute pass.

    use super::reference::ReferenceEngine;
    use super::*;
    use rand::{Rng, SeedableRng};

    const TIME_TOL: f64 = 1e-6;
    const RATE_TOL: f64 = 1e-9;

    /// A randomized workload as plain spec data, replayable identically
    /// into both engines.
    struct Workload {
        resources: Vec<Resource>,
        specs: Vec<FlowSpec<'static>>,
        timers: Vec<(f64, u64)>,
    }

    fn random_workload(seed: u64) -> Workload {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let nr = rng.gen_range(2usize..10);
        let resources: Vec<Resource> = (0..nr)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Resource::disk("d", rng.gen_range(50.0..200.0), 0.35, 0.15)
                } else {
                    Resource::constant("c", rng.gen_range(80.0..300.0))
                }
            })
            .collect();
        let nf = rng.gen_range(5usize..60);
        let specs = (0..nf)
            .map(|token| {
                let plen = rng.gen_range(0usize..=3);
                let path: Vec<ResourceId> = (0..plen)
                    .map(|_| ResourceId(rng.gen_range(0u32..nr as u32)))
                    .collect();
                let mut spec = FlowSpec::new(rng.gen_range(1u64..200_000), path, token as u64)
                    .with_latency(rng.gen_range(0.0..3.0));
                if rng.gen_bool(0.3) {
                    spec = spec.with_rate_cap(rng.gen_range(5.0..150.0));
                }
                spec
            })
            .collect();
        let timers = (0..rng.gen_range(0usize..5))
            .map(|i| (rng.gen_range(0.0..5.0), 1_000 + i as u64))
            .collect();
        Workload {
            resources,
            specs,
            timers,
        }
    }

    /// Everything observable about a run: delivered events, the recorded
    /// trace (which includes per-pass rate extrema), and final accounting.
    #[derive(Debug)]
    struct RunTrace {
        events: Vec<Event>,
        trace: Vec<TraceEvent>,
        final_now: f64,
        bytes_through: Vec<f64>,
    }

    /// Drives either engine type through a workload (both expose the same
    /// method names, so a macro stands in for a trait).
    macro_rules! drive {
        ($engine:expr, $w:expr) => {{
            let engine = $engine;
            let w = $w;
            engine.record_events();
            let ids: Vec<_> = w
                .resources
                .iter()
                .map(|r| engine.add_resource(r.clone()))
                .collect();
            for spec in &w.specs {
                let mut spec = spec.clone();
                spec.path = spec.path.iter().map(|r| ids[r.index()]).collect();
                engine.start_flow(spec);
            }
            for &(delay, token) in &w.timers {
                engine.set_timer(delay, token);
            }
            let mut events = Vec::new();
            while let Some(ev) = engine.next_event() {
                events.push(ev);
            }
            let bytes_through = ids.iter().map(|&r| engine.bytes_through(r)).collect();
            RunTrace {
                events,
                trace: engine.take_events().expect("recording"),
                final_now: engine.now().as_secs(),
                bytes_through,
            }
        }};
    }

    fn assert_equivalent(seed: u64, inc: &RunTrace, dense: &RunTrace) {
        assert_eq!(
            inc.events.len(),
            dense.events.len(),
            "seed {seed}: event counts differ"
        );
        for (k, (a, b)) in inc.events.iter().zip(&dense.events).enumerate() {
            match (a, b) {
                (Event::FlowCompleted(x), Event::FlowCompleted(y)) => {
                    assert_eq!(x.flow, y.flow, "seed {seed} event {k}: flow order differs");
                    assert_eq!(x.token, y.token, "seed {seed} event {k}");
                    assert_eq!(x.bytes, y.bytes, "seed {seed} event {k}");
                    assert!(
                        (x.completed_at.as_secs() - y.completed_at.as_secs()).abs() <= TIME_TOL,
                        "seed {seed} event {k}: completion times {} vs {}",
                        x.completed_at,
                        y.completed_at
                    );
                }
                (
                    Event::TimerFired { token: ta, at: aa },
                    Event::TimerFired { token: tb, at: ab },
                ) => {
                    assert_eq!(ta, tb, "seed {seed} event {k}");
                    assert_eq!(aa, ab, "seed {seed} event {k}");
                }
                _ => panic!("seed {seed} event {k}: kinds differ ({a:?} vs {b:?})"),
            }
        }
        assert!(
            (inc.final_now - dense.final_now).abs() <= TIME_TOL,
            "seed {seed}: final clocks {} vs {}",
            inc.final_now,
            dense.final_now
        );
        for (r, (x, y)) in inc
            .bytes_through
            .iter()
            .zip(&dense.bytes_through)
            .enumerate()
        {
            let tol = 1e-6 * (1.0 + x.abs());
            assert!(
                (x - y).abs() <= tol,
                "seed {seed}: bytes_through[{r}] {x} vs {y}"
            );
        }
        // Recompute passes line up one-to-one, with identical active counts
        // and rate extrema (expected bit-identical; asserted to 1e-9).
        let recs = |t: &RunTrace| {
            t.trace
                .iter()
                .filter_map(|ev| match ev {
                    TraceEvent::RatesRecomputed {
                        at,
                        active_flows,
                        min_rate,
                        max_rate,
                    } => Some((*at, *active_flows, *min_rate, *max_rate)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let (ri, rd) = (recs(inc), recs(dense));
        assert_eq!(ri.len(), rd.len(), "seed {seed}: recompute pass counts");
        let close = |x: f64, y: f64| {
            (x - y).abs() <= RATE_TOL * (1.0 + x.abs()) || (x.is_infinite() && y.is_infinite())
        };
        for (k, (a, b)) in ri.iter().zip(&rd).enumerate() {
            assert!((a.0 - b.0).abs() <= TIME_TOL, "seed {seed} pass {k}: time");
            assert_eq!(a.1, b.1, "seed {seed} pass {k}: active count");
            assert!(
                close(a.2, b.2),
                "seed {seed} pass {k}: min {} vs {}",
                a.2,
                b.2
            );
            assert!(
                close(a.3, b.3),
                "seed {seed} pass {k}: max {} vs {}",
                a.3,
                b.3
            );
        }
    }

    #[test]
    fn incremental_matches_reference_on_random_workloads() {
        for seed in 0..40 {
            let w = random_workload(seed);
            let inc = drive!(&mut Engine::new(), &w);
            let dense = drive!(&mut ReferenceEngine::new(), &w);
            assert_equivalent(seed, &inc, &dense);
        }
    }

    #[test]
    fn incremental_matches_reference_on_contended_single_resource() {
        // Everything in one component: scoping degenerates to the global
        // solve and must still agree.
        for seed in 100..110 {
            let mut w = random_workload(seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xDEAD);
            for spec in &mut w.specs {
                spec.path = vec![ResourceId(0)].into();
                if rng.gen_bool(0.5) {
                    spec.latency = 0.0;
                }
            }
            let inc = drive!(&mut Engine::new(), &w);
            let dense = drive!(&mut ReferenceEngine::new(), &w);
            assert_equivalent(seed, &inc, &dense);
        }
    }

    #[test]
    fn incremental_matches_reference_with_reactive_submission() {
        // Interleave event consumption with new submissions: exercises
        // dirty-seed accumulation across caller turns.
        macro_rules! reactive_run {
            ($engine:expr) => {{
                let e = $engine;
                let r = e.add_resource(Resource::constant("c", 100.0));
                for t in 0..4u64 {
                    e.start_flow(FlowSpec::new(500 + 100 * t, vec![r], t));
                }
                let mut out = Vec::new();
                let mut next_token = 100u64;
                while let Some(ev) = e.next_event() {
                    if let Event::FlowCompleted(c) = ev {
                        out.push((c.token, c.completed_at.as_secs()));
                        if next_token < 106 {
                            e.start_flow(FlowSpec::new(300, vec![r], next_token).with_latency(0.1));
                            next_token += 1;
                        }
                    }
                }
                out
            }};
        }
        let inc = reactive_run!(&mut Engine::new());
        let dense = reactive_run!(&mut ReferenceEngine::new());
        assert_eq!(inc.len(), dense.len());
        for ((ta, xa), (tb, xb)) in inc.iter().zip(&dense) {
            assert_eq!(ta, tb);
            assert!((xa - xb).abs() <= TIME_TOL, "{xa} vs {xb}");
        }
    }
}
