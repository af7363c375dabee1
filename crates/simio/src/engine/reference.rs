//! The retained dense reference engine.
//!
//! This is the original O(events × flows) implementation: global rate
//! recomputation with fresh allocations on every activation/completion, and
//! a linear scan over all active flows to find the next completion. It is
//! kept verbatim as the behavioral oracle for the incremental engine:
//! property tests assert both produce the same event streams.
//!
//! Compiled only for tests; it is not part of the production event loop.

use super::{Event, BYTES_EPS};
use crate::fairshare::{allocate_rates, FlowPath};
use crate::flow::{FlowCompletion, FlowId, FlowPhase, FlowSpec, FlowState};
use crate::record::TraceEvent;
use crate::resource::{Resource, ResourceId};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    User { token: u64 },
    Activate(FlowId),
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

/// Dense-recompute discrete-event simulator: same public surface and same
/// event semantics as [`crate::Engine`], quadratic behavior.
#[derive(Debug)]
pub struct ReferenceEngine {
    now: SimTime,
    resources: Vec<Resource>,
    flows: Vec<FlowState>,
    /// Indices (into `flows`) of flows in the `Active` phase, kept sorted
    /// for deterministic iteration and tie-breaking.
    active: Vec<usize>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    rates_dirty: bool,
    /// Bytes that have traversed each resource (utilization accounting).
    delivered: Vec<f64>,
    /// The recorded event log; `None` while recording is off.
    events: Option<Vec<TraceEvent>>,
}

impl Default for ReferenceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ReferenceEngine {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        ReferenceEngine {
            now: SimTime::ZERO,
            resources: Vec::new(),
            flows: Vec::new(),
            active: Vec::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            rates_dirty: false,
            delivered: Vec::new(),
            events: None,
        }
    }

    /// Turns event recording on.
    pub fn record_events(&mut self) {
        self.events.get_or_insert_with(Vec::new);
    }

    /// The events recorded so far, leaving the log empty; `None` while
    /// recording is off.
    pub fn take_events(&mut self) -> Option<Vec<TraceEvent>> {
        self.events.as_mut().map(std::mem::take)
    }

    /// Registers a resource and returns its id.
    pub fn add_resource(&mut self, resource: Resource) -> ResourceId {
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(resource);
        self.delivered.push(0.0);
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

    /// Total bytes that have traversed `resource` so far.
    pub fn bytes_through(&self, resource: ResourceId) -> f64 {
        self.delivered[resource.index()]
    }

    /// Mean utilization of `resource` since time zero.
    pub fn utilization(&self, resource: ResourceId) -> f64 {
        let elapsed = self.now.as_secs();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let possible = self.resources[resource.index()].base_capacity * elapsed;
        self.delivered[resource.index()] / possible
    }

    /// Submits a flow. It starts transferring after its startup latency.
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
        let id = FlowId(self.flows.len() as u64);
        let latency = spec.latency;
        let state = FlowState::new(id, &spec, self.now);
        self.flows.push(state);
        if latency > 0.0 {
            self.push_timer(self.now + latency, TimerKind::Activate(id));
        } else {
            self.activate(id);
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

    fn activate(&mut self, id: FlowId) {
        let idx = id.index();
        let flow = &mut self.flows[idx];
        debug_assert_eq!(flow.phase, FlowPhase::Latent);
        flow.phase = FlowPhase::Active;
        // Keep `active` sorted; flow indices are monotonically increasing so
        // a push preserves order, but activation can happen out of submission
        // order when latencies differ.
        let pos = self.active.partition_point(|&x| x < idx);
        self.active.insert(pos, idx);
        self.rates_dirty = true;
    }

    fn recompute_rates(&mut self) {
        // Aggregate capacities depend on per-resource concurrency.
        let mut counts = vec![0usize; self.resources.len()];
        for &fi in &self.active {
            for &r in &self.flows[fi].resources {
                counts[r] += 1;
            }
        }
        let capacities: Vec<f64> = self
            .resources
            .iter()
            .zip(&counts)
            .map(|(res, &n)| res.capacity(n))
            .collect();
        let paths: Vec<FlowPath> = self
            .active
            .iter()
            .map(|&fi| FlowPath {
                resources: self.flows[fi].resources.clone(),
                rate_cap: self.flows[fi].rate_cap,
            })
            .collect();
        let rates = allocate_rates(&paths, &capacities);
        for (&fi, rate) in self.active.iter().zip(rates) {
            self.flows[fi].rate = rate;
        }
        self.rates_dirty = false;
        if let Some(log) = &mut self.events {
            let (mut min_rate, mut max_rate) = (f64::INFINITY, 0.0f64);
            for &fi in &self.active {
                let r = self.flows[fi].rate;
                min_rate = min_rate.min(r);
                max_rate = max_rate.max(r);
            }
            if self.active.is_empty() {
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

    /// Earliest completion among active flows: `(time, flow index)`.
    fn next_completion(&self) -> Option<(SimTime, usize)> {
        let mut best: Option<(SimTime, usize)> = None;
        for &fi in &self.active {
            let flow = &self.flows[fi];
            let eta = if flow.remaining <= BYTES_EPS || flow.rate.is_infinite() {
                self.now
            } else {
                debug_assert!(
                    flow.rate > 0.0,
                    "active flow {fi} has zero rate; resources saturated to zero?"
                );
                if flow.rate <= 0.0 {
                    continue; // defensive: skip stuck flows in release builds
                }
                self.now + flow.remaining / flow.rate
            };
            match best {
                Some((t, _)) if eta >= t => {}
                _ => best = Some((eta, fi)),
            }
        }
        best
    }

    /// Advances all active flows by `dt` seconds of transfer progress.
    fn advance(&mut self, to: SimTime) {
        let dt = to - self.now;
        debug_assert!(dt >= -1e-12, "time must not move backwards (dt={dt})");
        if dt > 0.0 {
            for &fi in &self.active {
                let flow = &mut self.flows[fi];
                if flow.rate.is_finite() {
                    let moved = (flow.rate * dt).min(flow.remaining);
                    flow.remaining -= moved;
                    for &r in &flow.resources {
                        self.delivered[r] += moved;
                    }
                } else {
                    flow.remaining = 0.0;
                }
            }
        }
        self.now = self.now.max(to);
    }

    /// Advances the clock to the next event and returns it, or `None` when
    /// no flows or timers remain.
    pub fn next_event(&mut self) -> Option<Event> {
        loop {
            if self.rates_dirty {
                self.recompute_rates();
            }
            let completion = self.next_completion();
            let timer_at = self.timers.peek().map(|Reverse(e)| e.at);

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
                self.advance(entry.at);
                match entry.kind {
                    TimerKind::Activate(id) => {
                        self.activate(id);
                        continue;
                    }
                    TimerKind::User { token } => {
                        return Some(Event::TimerFired {
                            token,
                            at: self.now,
                        });
                    }
                }
            } else {
                let (at, fi) = completion.expect("completion must exist");
                self.advance(at);
                let flow = &mut self.flows[fi];
                flow.remaining = 0.0;
                flow.phase = FlowPhase::Completed;
                let completion = FlowCompletion {
                    flow: FlowId(fi as u64),
                    token: flow.token,
                    bytes: flow.bytes,
                    issued_at: flow.issued_at,
                    completed_at: self.now,
                };
                let pos = self
                    .active
                    .iter()
                    .position(|&a| a == fi)
                    .expect("completed flow must be active");
                self.active.remove(pos);
                self.rates_dirty = true;
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

    #[test]
    fn single_flow_duration_is_size_over_capacity() {
        let mut e = ReferenceEngine::new();
        let r = e.add_resource(Resource::constant("r", 100.0));
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
    fn two_flows_share_then_speed_up() {
        let mut e = ReferenceEngine::new();
        let r = e.add_resource(Resource::constant("r", 100.0));
        e.start_flow(FlowSpec::new(100, vec![r], 1));
        e.start_flow(FlowSpec::new(300, vec![r], 2));
        let done = e.drain();
        assert_eq!(done.len(), 2);
        assert!((done[0].completed_at.as_secs() - 2.0).abs() < 1e-9);
        assert!((done[1].completed_at.as_secs() - 4.0).abs() < 1e-9);
    }
}
