//! Execution traces and run-level reports.
//!
//! Every figure in the paper's Section V is a view over these records:
//! per-operation I/O times (Figures 7, 9, 11, 12), per-node served bytes
//! (Figures 8 and 10), and whole-run makespans (the ParaView 167 s vs 98 s
//! comparison).

use opass_dfs::{ChunkId, NodeId};
use opass_simio::{empirical_cdf, CdfPoint, EngineStats, Summary, TraceEvent};

/// One completed chunk read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoRecord {
    /// Reading process rank.
    pub proc: usize,
    /// Task the read belonged to.
    pub task: usize,
    /// The chunk read.
    pub chunk: ChunkId,
    /// Node that served the data.
    pub source: NodeId,
    /// Node the reader ran on.
    pub reader: NodeId,
    /// Payload size, bytes.
    pub bytes: u64,
    /// Simulated issue time, seconds.
    pub issued_at: f64,
    /// Simulated completion time, seconds.
    pub completed_at: f64,
}

impl IoRecord {
    /// Whether the read was served from the reader's own node.
    pub fn is_local(&self) -> bool {
        self.source == self.reader
    }

    /// I/O duration in seconds.
    pub fn duration(&self) -> f64 {
        self.completed_at - self.issued_at
    }
}

/// The outcome of one simulated parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// All reads, in completion order.
    pub records: Vec<IoRecord>,
    /// Wall-clock of the whole run (last event time), seconds.
    pub makespan: f64,
    /// Bytes served by each node (indexed by raw node id).
    pub served_bytes: Vec<u64>,
    /// The simulator's event stream, in simulated-time order, when the
    /// run was recorded ([`crate::exec::execute_instrumented`]); `None`
    /// after plain [`crate::exec::execute`]. [`crate::RunMetrics::from_run`]
    /// derives the observability metrics from it.
    pub events: Option<Vec<TraceEvent>>,
    /// Simulator work counters (recompute passes, rerated flows, ETA
    /// churn). Always populated — the engine counts regardless of
    /// instrumentation; chained runs carry the summed totals.
    pub engine: EngineStats,
}

impl RunResult {
    /// I/O durations in completion order — the series Figures 7(c), 9, 11,
    /// and 12 plot.
    pub fn durations(&self) -> Vec<f64> {
        self.records.iter().map(IoRecord::duration).collect()
    }

    /// Summary of the I/O durations (avg/max/min/σ — Figures 7a, 7b).
    pub fn io_summary(&self) -> Summary {
        Summary::of(&self.durations())
    }

    /// Empirical CDF of I/O durations (Figure 1b).
    pub fn io_cdf(&self) -> Vec<CdfPoint> {
        empirical_cdf(&self.durations())
    }

    /// Fraction of reads served locally.
    pub fn local_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.is_local()).count() as f64 / self.records.len() as f64
    }

    /// Fraction of bytes served locally.
    pub fn local_byte_fraction(&self) -> f64 {
        let total: u64 = self.records.iter().map(|r| r.bytes).sum();
        if total == 0 {
            return 1.0;
        }
        let local: u64 = self
            .records
            .iter()
            .filter(|r| r.is_local())
            .map(|r| r.bytes)
            .sum();
        local as f64 / total as f64
    }

    /// Summary over per-node served bytes, restricted to the first
    /// `n_nodes` entries (Figures 8a/8b report avg/max/min served data).
    pub fn served_summary(&self, n_nodes: usize) -> Summary {
        let served: Vec<f64> = self.served_bytes[..n_nodes]
            .iter()
            .map(|&b| b as f64)
            .collect();
        Summary::of(&served)
    }

    /// Chunks served per node (Figure 1a), assuming `chunk_size`-byte
    /// chunks.
    pub fn chunks_served_per_node(&self, chunk_size: u64) -> Vec<f64> {
        self.served_bytes
            .iter()
            .map(|&b| b as f64 / chunk_size as f64)
            .collect()
    }

    /// Balance indices over the first `n_nodes` served-bytes entries
    /// (Jain/Gini/CoV; see [`crate::monitor::BalanceReport`]).
    pub fn balance(&self, n_nodes: usize) -> crate::monitor::BalanceReport {
        crate::monitor::BalanceReport::of(&self.served_bytes[..n_nodes])
    }

    /// When each process finished its last read, indexed by rank
    /// (`n_procs` sizes the vector; ranks with no reads finish at 0).
    /// The spread of this vector is the barrier wait the paper's
    /// synchronization argument is about.
    pub fn proc_finish_times(&self, n_procs: usize) -> Vec<f64> {
        let mut finish = vec![0.0f64; n_procs];
        for r in &self.records {
            finish[r.proc] = finish[r.proc].max(r.completed_at);
        }
        finish
    }

    /// Straggler metrics: `(last_finish, mean_finish, barrier_waste)` where
    /// `barrier_waste` is the average fraction of the run each process
    /// spends idle at the final barrier (`1 - mean/last`).
    pub fn straggler_report(&self, n_procs: usize) -> (f64, f64, f64) {
        let finish = self.proc_finish_times(n_procs);
        let last = finish.iter().cloned().fold(0.0, f64::max);
        if last == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let mean = finish.iter().sum::<f64>() / n_procs as f64;
        (last, mean, 1.0 - mean / last)
    }

    /// Merges another run into this one, offsetting its records and
    /// events by this run's makespan — used to chain ParaView rendering
    /// steps and bulk-synchronous rounds. The chained run keeps events
    /// only when both parts recorded them.
    pub fn chain(&mut self, mut next: RunResult) {
        self.engine.merge(&next.engine);
        let offset = self.makespan;
        for r in &mut next.records {
            r.issued_at += offset;
            r.completed_at += offset;
        }
        self.records.extend(next.records);
        match (&mut self.events, next.events) {
            (Some(events), Some(more)) => events.extend(more.into_iter().map(|mut ev| {
                ev.shift_at(offset);
                ev
            })),
            (events, _) => *events = None,
        }
        self.makespan += next.makespan;
        if self.served_bytes.len() < next.served_bytes.len() {
            self.served_bytes.resize(next.served_bytes.len(), 0);
        }
        for (acc, b) in self.served_bytes.iter_mut().zip(&next.served_bytes) {
            *acc += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(proc: usize, source: u32, reader: u32, start: f64, end: f64) -> IoRecord {
        IoRecord {
            proc,
            task: proc,
            chunk: ChunkId(proc as u64),
            source: NodeId(source),
            reader: NodeId(reader),
            bytes: 100,
            issued_at: start,
            completed_at: end,
        }
    }

    fn sample() -> RunResult {
        RunResult {
            records: vec![
                record(0, 0, 0, 0.0, 1.0),
                record(1, 2, 1, 0.0, 3.0),
                record(2, 2, 2, 1.0, 2.0),
            ],
            makespan: 3.0,
            served_bytes: vec![100, 0, 200],
            events: None,
            engine: EngineStats::default(),
        }
    }

    #[test]
    fn durations_and_summary() {
        let r = sample();
        assert_eq!(r.durations(), vec![1.0, 3.0, 1.0]);
        let s = r.io_summary();
        assert_eq!(s.max, 3.0);
        assert_eq!(s.min, 1.0);
    }

    #[test]
    fn locality_fractions() {
        let r = sample();
        assert!((r.local_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.local_byte_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn served_views() {
        let r = sample();
        let s = r.served_summary(3);
        assert_eq!(s.max, 200.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(r.chunks_served_per_node(100), vec![1.0, 0.0, 2.0]);
    }

    #[test]
    fn cdf_is_complete() {
        let r = sample();
        let cdf = r.io_cdf();
        assert_eq!(cdf.len(), 3);
        assert!((cdf.last().unwrap().fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn straggler_report_measures_barrier_waste() {
        let r = sample();
        let finish = r.proc_finish_times(3);
        assert_eq!(finish, vec![1.0, 3.0, 2.0]);
        let (last, mean, waste) = r.straggler_report(3);
        assert_eq!(last, 3.0);
        assert!((mean - 2.0).abs() < 1e-12);
        assert!((waste - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
        // Empty run: all zeros.
        let empty = RunResult {
            records: vec![],
            makespan: 0.0,
            served_bytes: vec![],
            events: None,
            engine: EngineStats::default(),
        };
        assert_eq!(empty.straggler_report(4), (0.0, 0.0, 0.0));
    }

    #[test]
    fn balance_reflects_served_spread() {
        let r = sample();
        let b = r.balance(3);
        assert!(b.gini > 0.0, "one idle node implies imbalance");
    }

    #[test]
    fn chain_offsets_and_accumulates() {
        let mut a = sample();
        let b = sample();
        a.chain(b);
        assert_eq!(a.records.len(), 6);
        assert_eq!(a.makespan, 6.0);
        // Second run's records shifted by 3 s.
        assert_eq!(a.records[3].issued_at, 3.0);
        assert_eq!(a.records[4].completed_at, 6.0);
        assert_eq!(a.served_bytes, vec![200, 0, 400]);
    }

    #[test]
    fn chain_shifts_events_and_keeps_them_only_when_both_parts_recorded() {
        let finished = |at| TraceEvent::ProcFinished { at, proc: 0 };
        let recorded = |at| RunResult {
            events: Some(vec![finished(at)]),
            ..sample()
        };
        let mut a = recorded(1.0);
        a.chain(recorded(2.0));
        // The second run's events sit 3 s later, like its records.
        assert_eq!(a.events, Some(vec![finished(1.0), finished(5.0)]));
        a.chain(sample());
        assert_eq!(
            a.events, None,
            "an unrecorded part leaves the whole unrecorded"
        );
    }

    #[test]
    fn empty_run_is_trivially_local() {
        let r = RunResult {
            records: vec![],
            makespan: 0.0,
            served_bytes: vec![],
            events: None,
            engine: EngineStats::default(),
        };
        assert_eq!(r.local_fraction(), 1.0);
        assert_eq!(r.local_byte_fraction(), 1.0);
    }
}
