//! Flow descriptions and lifecycle state.

use crate::resource::ResourceId;
use crate::time::SimTime;
use std::borrow::Cow;

/// Identifies a flow submitted to an [`crate::Engine`]: its submission
/// sequence number (the engine's first flow is 0, its second 1, …).
///
/// Ids order flows — simultaneous completions are delivered in ascending
/// id — but index nothing: the engine keeps a flow's state in a reused
/// slot only while the flow is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub(crate) u64);

impl FlowId {
    /// Returns the submission sequence number as a `usize` (not an index
    /// into anything the engine holds).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Description of a data transfer submitted to the engine.
///
/// The path is borrowed or owned: a caller that issues many flows keeps
/// one path buffer and lends it to each spec, so submitting a flow
/// allocates nothing for its path.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec<'a> {
    /// Payload size in bytes. Zero-byte flows complete after `latency`.
    pub bytes: u64,
    /// Resources traversed, in path order (e.g. source disk, source NIC-out,
    /// destination NIC-in). Duplicates are merged.
    pub path: Cow<'a, [ResourceId]>,
    /// Fixed startup latency (seconds) before the transfer consumes any
    /// bandwidth: request dispatch, positioning, protocol setup.
    pub latency: f64,
    /// Per-flow rate ceiling in bytes/second (`f64::INFINITY` = none) —
    /// end-to-end protocol limits that bind before any shared resource.
    pub rate_cap: f64,
    /// Opaque caller tag, echoed back in the completion event. The runtime
    /// uses it to map completions to (process, task) pairs.
    pub token: u64,
}

impl<'a> FlowSpec<'a> {
    /// Creates a flow spec with zero latency and no rate cap. `path` is a
    /// `Vec` or a borrowed slice.
    pub fn new(bytes: u64, path: impl Into<Cow<'a, [ResourceId]>>, token: u64) -> Self {
        FlowSpec {
            bytes,
            path: path.into(),
            latency: 0.0,
            rate_cap: f64::INFINITY,
            token,
        }
    }

    /// Sets the startup latency.
    pub fn with_latency(mut self, latency: f64) -> Self {
        assert!(
            latency.is_finite() && latency >= 0.0,
            "latency must be finite and non-negative"
        );
        self.latency = latency;
        self
    }

    /// Sets the per-flow rate ceiling (bytes/second).
    pub fn with_rate_cap(mut self, cap: f64) -> Self {
        assert!(cap > 0.0, "rate cap must be positive");
        self.rate_cap = cap;
        self
    }
}

/// Lifecycle phase of a flow inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlowPhase {
    /// Waiting out the startup latency; consumes no bandwidth.
    Latent,
    /// Actively transferring.
    Active,
    /// Done: its completion was delivered (in the engine, the slot is
    /// free for the next flow).
    Completed,
}

/// Internal per-flow state: what the engine keeps of a submitted
/// [`FlowSpec`] (not its path) and the flow's progress.
#[derive(Debug, Clone)]
pub(crate) struct FlowState {
    /// The flow this state belongs to.
    pub id: FlowId,
    /// Caller tag from the spec.
    pub token: u64,
    /// Payload size from the spec.
    pub bytes: u64,
    /// Rate ceiling from the spec.
    pub rate_cap: f64,
    /// Deduplicated resource indices (engine-internal form).
    pub resources: Vec<usize>,
    pub phase: FlowPhase,
    /// Bytes still to transfer *as of* `updated_at` (fluid, hence f64).
    /// Progress between rate changes is virtual: it is settled into this
    /// field only when the rate changes or the flow completes.
    pub remaining: f64,
    /// Current allocated rate in bytes/second.
    pub rate: f64,
    /// Simulated time at which `remaining` was last settled.
    pub updated_at: SimTime,
    /// Generation stamp, bumped on every rate change (and at completion).
    /// Completion-heap entries carry the stamp they were pushed with, so
    /// stale predictions are recognized and discarded lazily.
    pub gen: u32,
    /// When the flow was submitted.
    pub issued_at: SimTime,
}

impl FlowState {
    /// The latent state of flow `id`, submitted at `issued_at`.
    pub fn new(id: FlowId, spec: &FlowSpec<'_>, issued_at: SimTime) -> Self {
        Self::reusing(Vec::new(), id, spec, issued_at)
    }

    /// Like [`FlowState::new`], writing the resource list into `buffer`
    /// (cleared first), so a reused slot keeps its allocation.
    pub fn reusing(
        mut buffer: Vec<usize>,
        id: FlowId,
        spec: &FlowSpec<'_>,
        issued_at: SimTime,
    ) -> Self {
        buffer.clear();
        buffer.extend(spec.path.iter().map(|r| r.index()));
        buffer.sort_unstable();
        buffer.dedup();
        FlowState {
            id,
            token: spec.token,
            bytes: spec.bytes,
            rate_cap: spec.rate_cap,
            resources: buffer,
            phase: FlowPhase::Latent,
            remaining: spec.bytes as f64,
            rate: 0.0,
            updated_at: issued_at,
            gen: 0,
            issued_at,
        }
    }
}

/// A finished transfer, as reported by [`crate::Engine::next_event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowCompletion {
    /// The flow that finished.
    pub flow: FlowId,
    /// Caller tag from the [`FlowSpec`].
    pub token: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Submission time.
    pub issued_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
}

impl FlowCompletion {
    /// End-to-end duration (latency + transfer), in seconds.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.completed_at - self.issued_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_sets_latency() {
        let s = FlowSpec::new(64, vec![], 7).with_latency(0.5);
        assert_eq!(s.latency, 0.5);
        assert_eq!(s.token, 7);
    }

    #[test]
    fn state_dedups_path() {
        let spec = FlowSpec::new(10, vec![ResourceId(2), ResourceId(1), ResourceId(2)], 0);
        let st = FlowState::new(FlowId(0), &spec, SimTime::ZERO);
        assert_eq!(st.resources, vec![1, 2]);
    }

    #[test]
    fn completion_duration() {
        let c = FlowCompletion {
            flow: FlowId(0),
            token: 0,
            bytes: 1,
            issued_at: SimTime::from_secs(1.0),
            completed_at: SimTime::from_secs(3.5),
        };
        assert!((c.duration() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "latency must be finite")]
    fn rejects_bad_latency() {
        let _ = FlowSpec::new(1, vec![], 0).with_latency(-0.1);
    }
}
