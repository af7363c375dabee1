//! Structured events the simulator records.
//!
//! Every layer of the stack can narrate what it is doing into one event
//! log, kept by the [`crate::Engine`] once [`crate::Engine::record_events`]
//! turns recording on: the engine reports fair-share rate recomputations
//! and flow completions, [`crate::ClusterIo`] reports read/write
//! submissions with their endpoints, and the `opass-runtime` executor adds
//! task dispatch, per-read locality context, and steal decisions.
//! Recording is off by default and then costs one branch per emit site;
//! a recorded run is bit-identical to an unrecorded one — events observe
//! the simulation, they never perturb it.
//!
//! Events are plain data (`f64` timestamps, `usize` node/process indices)
//! so downstream crates can aggregate or serialize them without pulling in
//! simulator types.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    fn finished(at: f64) -> TraceEvent {
        TraceEvent::ProcFinished { at, proc: 1 }
    }

    #[test]
    fn memory_recorder_shares_its_log() {
        // The engine's log is the one memory recorder: every layer emits
        // into it, and `take_events` hands it back drained.
        let mut e = Engine::new();
        e.record_events();
        e.emit(finished(2.0));
        e.emit(finished(3.0));
        assert_eq!(e.take_events(), Some(vec![finished(2.0), finished(3.0)]));
        // Taking drains the log; recording stays on.
        assert!(e.recording());
        assert_eq!(e.take_events(), Some(Vec::new()));
        e.emit(finished(4.0));
        assert_eq!(e.take_events(), Some(vec![finished(4.0)]));
    }

    #[test]
    fn slot_skips_event_construction_when_empty() {
        let mut e = Engine::new();
        assert!(!e.recording());
        let mut built = false;
        if e.recording() {
            built = true;
            e.emit(finished(0.0));
        }
        assert!(!built, "recording is off, so emit sites build no event");
        e.emit(finished(1.0));
        assert_eq!(e.take_events(), None, "nothing is kept before recording");

        e.record_events();
        assert!(e.recording());
        e.emit(finished(2.0));
        assert_eq!(e.take_events(), Some(vec![finished(2.0)]));
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
