//! Structured event recording for the simulator.
//!
//! Every layer of the stack can narrate what it is doing through a
//! [`Recorder`]: the engine reports fair-share rate recomputations and flow
//! completions, [`crate::ClusterIo`] reports read/write submissions with
//! their endpoints, and the `opass-runtime` executor adds task dispatch,
//! per-read locality context, and steal decisions. The
//! default is [`NoopRecorder`]: recording costs one branch per emit site,
//! and a run without a recorder is bit-identical to one that never heard of
//! this module — events observe the simulation, they never perturb it.
//!
//! Events are plain data (`f64` timestamps, `usize` node/process indices)
//! so downstream crates can aggregate or serialize them without pulling in
//! simulator types.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One structured simulation event. Timestamps (`at`) are simulated
/// seconds; node and process identifiers are raw indices.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A chunk read was submitted to the cluster.
    ReadIssued {
        /// Simulated time of submission.
        at: f64,
        /// Caller token (the executor uses the process rank).
        token: u64,
        /// Node the reader runs on.
        reader: usize,
        /// Node serving the data.
        source: usize,
        /// Payload size in bytes.
        bytes: u64,
        /// Whether the read is served from the reader's own disk.
        local: bool,
    },
    /// A replicated write was submitted to the cluster.
    WriteIssued {
        /// Simulated time of submission.
        at: f64,
        /// Caller token.
        token: u64,
        /// Node the writer runs on.
        writer: usize,
        /// Number of replica targets.
        targets: usize,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A flow finished transferring all its bytes (engine level).
    FlowFinished {
        /// Completion time.
        at: f64,
        /// Caller token.
        token: u64,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Max-min fair rates were recomputed because a flow started or
    /// finished — the paper's contention dynamics in the raw.
    RatesRecomputed {
        /// Time of the recompute.
        at: f64,
        /// Flows actively transferring after the recompute.
        active_flows: usize,
        /// Slowest allocated rate (0 when no flows are active).
        min_rate: f64,
        /// Fastest allocated rate (0 when no flows are active).
        max_rate: f64,
    },
    /// The executor handed a task to a process.
    TaskStarted {
        /// Dispatch time.
        at: f64,
        /// Process rank.
        proc: usize,
        /// Task index within the workload.
        task: usize,
    },
    /// A chunk read completed, with full executor context.
    ReadFinished {
        /// Completion time.
        at: f64,
        /// Process rank.
        proc: usize,
        /// Task index within the workload.
        task: usize,
        /// Chunk identifier (raw).
        chunk: u64,
        /// Node that served the data.
        source: usize,
        /// Node the reader ran on.
        reader: usize,
        /// Payload size in bytes.
        bytes: u64,
        /// Whether the read was served locally.
        local: bool,
        /// Degraded-mode read: remote *and* no replica existed on the
        /// reader's node, so no policy could have served it locally.
        degraded: bool,
    },
    /// A compute/render phase began.
    ComputeStarted {
        /// Start time.
        at: f64,
        /// Process rank.
        proc: usize,
        /// Modelled compute duration in seconds.
        seconds: f64,
    },
    /// A process ran out of work.
    ProcFinished {
        /// Time the process went permanently idle.
        at: f64,
        /// Process rank.
        proc: usize,
    },
    /// The dynamic scheduler stole a task from another worker's list.
    TaskStolen {
        /// Time of the steal decision.
        at: f64,
        /// Worker that went idle and stole.
        thief: usize,
        /// Worker whose list the task came from.
        victim: usize,
        /// Task index within the workload.
        task: usize,
    },
}

impl TraceEvent {
    /// The event's timestamp in simulated seconds.
    pub fn at(&self) -> f64 {
        match *self {
            TraceEvent::ReadIssued { at, .. }
            | TraceEvent::WriteIssued { at, .. }
            | TraceEvent::FlowFinished { at, .. }
            | TraceEvent::RatesRecomputed { at, .. }
            | TraceEvent::TaskStarted { at, .. }
            | TraceEvent::ReadFinished { at, .. }
            | TraceEvent::ComputeStarted { at, .. }
            | TraceEvent::ProcFinished { at, .. }
            | TraceEvent::TaskStolen { at, .. } => at,
        }
    }

    /// Shifts the event's timestamp by `offset` seconds — used when runs
    /// are chained end-to-end (bulk-synchronous rounds, render loops) and
    /// their event streams must live on one clock.
    pub fn shift_at(&mut self, offset: f64) {
        match self {
            TraceEvent::ReadIssued { at, .. }
            | TraceEvent::WriteIssued { at, .. }
            | TraceEvent::FlowFinished { at, .. }
            | TraceEvent::RatesRecomputed { at, .. }
            | TraceEvent::TaskStarted { at, .. }
            | TraceEvent::ReadFinished { at, .. }
            | TraceEvent::ComputeStarted { at, .. }
            | TraceEvent::ProcFinished { at, .. }
            | TraceEvent::TaskStolen { at, .. } => *at += offset,
        }
    }

    /// A stable snake_case tag naming the event kind (used by exporters).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ReadIssued { .. } => "read_issued",
            TraceEvent::WriteIssued { .. } => "write_issued",
            TraceEvent::FlowFinished { .. } => "flow_finished",
            TraceEvent::RatesRecomputed { .. } => "rates_recomputed",
            TraceEvent::TaskStarted { .. } => "task_started",
            TraceEvent::ReadFinished { .. } => "read_finished",
            TraceEvent::ComputeStarted { .. } => "compute_started",
            TraceEvent::ProcFinished { .. } => "proc_finished",
            TraceEvent::TaskStolen { .. } => "task_stolen",
        }
    }
}

/// A sink for [`TraceEvent`]s.
///
/// Implementations must be passive observers: recording an event must not
/// change simulation behaviour. The engine only constructs events when a
/// recorder is installed, so the disabled path stays allocation-free.
pub trait Recorder {
    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);
}

/// Discards every event — the default, zero-cost sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&mut self, _event: TraceEvent) {}
}

/// Collects events in memory behind a shared, cloneable handle.
///
/// Clone the recorder, install one clone on the engine, and keep the other
/// to read the log back after the run (the simulator is single-threaded, so
/// an `Rc<RefCell<_>>` suffices).
///
/// # Example
///
/// ```
/// use opass_simio::{ClusterIo, IoParams, MemoryRecorder, MB_U64};
///
/// let log = MemoryRecorder::new();
/// let mut cluster = ClusterIo::new(2, IoParams::marmot());
/// cluster.set_recorder(Box::new(log.clone()));
/// cluster.start_read(1, 0, 64 * MB_U64, 7);
/// while cluster.next_event().is_some() {}
/// assert!(!log.snapshot().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    log: Rc<RefCell<Vec<TraceEvent>>>,
}

impl MemoryRecorder {
    /// Creates an empty shared log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.log.borrow().len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.log.borrow().is_empty()
    }

    /// Copies the current log.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.log.borrow().clone()
    }

    /// Removes and returns the current log, leaving it empty.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        self.log.take()
    }
}

impl Recorder for MemoryRecorder {
    fn record(&mut self, event: TraceEvent) {
        self.log.borrow_mut().push(event);
    }
}

/// The engine's recorder slot: `Debug` even though recorders aren't, and
/// `None` by default so recording stays strictly opt-in.
#[derive(Default)]
pub struct RecorderSlot(Option<Box<dyn Recorder>>);

impl RecorderSlot {
    /// An empty (disabled) slot.
    pub fn empty() -> Self {
        RecorderSlot(None)
    }

    /// Installs a recorder, replacing any previous one.
    pub fn install(&mut self, recorder: Box<dyn Recorder>) {
        self.0 = Some(recorder);
    }

    /// Whether a recorder is installed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Builds the event lazily and records it if a recorder is installed.
    #[inline]
    pub fn emit_with(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(r) = self.0.as_mut() {
            r.record(make());
        }
    }

    /// Records an already-built event if a recorder is installed.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        if let Some(r) = self.0.as_mut() {
            r.record(event);
        }
    }
}

impl fmt::Debug for RecorderSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RecorderSlot")
            .field(&if self.0.is_some() {
                "installed"
            } else {
                "none"
            })
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_shares_its_log() {
        let handle = MemoryRecorder::new();
        let mut writer = handle.clone();
        writer.record(TraceEvent::ProcFinished { at: 1.0, proc: 3 });
        assert_eq!(handle.len(), 1);
        assert_eq!(
            handle.snapshot(),
            vec![TraceEvent::ProcFinished { at: 1.0, proc: 3 }]
        );
        let taken = handle.take_events();
        assert_eq!(taken.len(), 1);
        assert!(handle.is_empty());
    }

    #[test]
    fn slot_skips_event_construction_when_empty() {
        let mut slot = RecorderSlot::empty();
        assert!(!slot.enabled());
        let mut built = false;
        slot.emit_with(|| {
            built = true;
            TraceEvent::ProcFinished { at: 0.0, proc: 0 }
        });
        assert!(!built, "no recorder, so the closure must not run");

        let log = MemoryRecorder::new();
        slot.install(Box::new(log.clone()));
        assert!(slot.enabled());
        slot.emit_with(|| TraceEvent::ProcFinished { at: 2.0, proc: 1 });
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn event_accessors_are_consistent() {
        let ev = TraceEvent::ReadIssued {
            at: 4.5,
            token: 9,
            reader: 1,
            source: 2,
            bytes: 64,
            local: false,
        };
        assert_eq!(ev.at(), 4.5);
        assert_eq!(ev.kind(), "read_issued");
        assert_eq!(
            TraceEvent::RatesRecomputed {
                at: 0.0,
                active_flows: 0,
                min_rate: 0.0,
                max_rate: 0.0
            }
            .kind(),
            "rates_recomputed"
        );
    }
}
