//! `trace_replay` — the trace pipeline: `opass-trace`'s text parser
//! feeding `serve::replay`'s batch grouping, world build, migrations and
//! per-batch planning. No sockets, no simulator.

use crate::harness::{Fnv, RoundOut, Tracer, Workload};
use opass_serve::{replay_local, ReplayConfig, ReplayReport};
use opass_trace::{generate, parse_text, write_text, BurstSpec, TraceRecord, TraceSpec};
use std::hint::black_box;

/// Records in the generated trace (64 slices).
pub const RECORDS: u64 = 1 << 21;
/// Records per slice; one op parses and replays one slice.
pub const SLICE: usize = 32_768;
/// Ops per round; the slices are cycled.
const OPS: usize = 4;

/// The trace every run and probe generates, from `seed`: 64 clients, 8
/// datasets of 256 chunks, Zipf 1.1 popularity, one flash crowd.
///
/// The world is kept this small on purpose. `replay_local` rebuilds the
/// namenode and starts one session per dataset on every call; at 16
/// datasets of 1024 chunks that fixed cost is ~27 ms per op, the parser
/// is under 5 % of it and a 17 s phase yields fewer than 500 ops. At this
/// size the per-batch pipeline dominates and parsing is about a quarter
/// of an op.
pub fn spec(seed: u64, records: u64) -> TraceSpec {
    TraceSpec {
        name: "bench".to_string(),
        seed,
        records,
        duration_s: 3600.0,
        clients: 64,
        datasets: 8,
        chunks_per_dataset: 256,
        chunk_size: 64 << 20,
        zipf_exponent: 1.1,
        diurnal_amplitude: 0.5,
        diurnal_period_s: 3600.0,
        bursts: vec![BurstSpec {
            start_s: 1200.0,
            duration_s: 300.0,
            dataset: 2,
            multiplier: 8.0,
        }],
    }
}

/// How every op replays its slice.
pub fn replay_config(seed: u64) -> ReplayConfig {
    ReplayConfig {
        n_nodes: 64,
        replication: 3,
        seed,
        batch_records: 8192,
        churn: true,
    }
}

/// Renders `records` as one text trace per [`SLICE`] records.
pub fn render_slices(records: &[TraceRecord]) -> Vec<String> {
    records.chunks(SLICE).map(write_text).collect()
}

/// `(records planned locally, records planned)` of a replay: chunks are
/// one size, so the batch plans' task locality is their byte locality.
fn report_locality(report: &ReplayReport) -> (u64, u64) {
    report.digests.iter().fold((0, 0), |(l, t), d| {
        let chunks = d.distinct_chunks as u64;
        let local = (d.local_task_fraction * chunks as f64).round() as u64;
        (l + local, t + chunks)
    })
}

/// The prepared workload.
pub struct TraceReplay {
    slices: Vec<String>,
    config: ReplayConfig,
    /// Report fingerprint of each slice, the first time it was replayed.
    fingerprints: Vec<Option<u64>>,
    /// Locality summed over the first replay of every slice.
    locality: (u64, u64),
    next: usize,
}

impl TraceReplay {
    /// Set-up: generate the trace from `seed` and render its slices.
    pub fn prepare(seed: u64) -> TraceReplay {
        let records = generate(&spec(seed, RECORDS));
        let slices = render_slices(&records);
        TraceReplay {
            fingerprints: vec![None; slices.len()],
            slices,
            config: replay_config(seed),
            locality: (0, 0),
            next: 0,
        }
    }

    /// Hash of the rendered trace.
    pub fn input_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for s in &self.slices {
            h.bytes(s.as_bytes());
        }
        h.0
    }
}

impl Workload for TraceReplay {
    /// One full cycle over the slices, which records every slice's
    /// fingerprint and the workload's locality.
    fn warm_up(&mut self, tr: &mut Tracer) {
        for _ in 0..self.slices.len() / OPS {
            let mut out = RoundOut::default();
            self.round(tr, &mut out);
            assert_eq!(out.failed, 0, "first replay of a slice cannot fail");
        }
    }

    fn round(&mut self, tr: &mut Tracer, out: &mut RoundOut) {
        for _ in 0..OPS {
            let slice = self.next;
            self.next = (self.next + 1) % self.slices.len();
            let text = &self.slices[slice];
            tr.next_request();
            let mut report = None;
            out.op(SLICE as u64, || {
                let records = tr.span("trace.parse_text", || parse_text(black_box(text)));
                let Ok(records) = records else { return false };
                report = tr
                    .span("serve.replay_local", || {
                        replay_local(&records, &self.config)
                    })
                    .ok();
                report.is_some()
            });
            let Some(report) = report else { continue };
            let fingerprint = report.fingerprint();
            match self.fingerprints[slice] {
                Some(first) => out.failed += u64::from(first != fingerprint),
                None => {
                    self.fingerprints[slice] = Some(fingerprint);
                    let (l, t) = report_locality(&report);
                    self.locality = (self.locality.0 + l, self.locality.1 + t);
                }
            }
        }
    }

    fn locality(&self) -> (u64, u64) {
        self.locality
    }

    fn finish(self: Box<Self>, _tr: &mut Tracer) {}
}
