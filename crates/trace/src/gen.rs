//! Seeded trace generation: Zipfian dataset popularity, a diurnal
//! intensity curve, and flash-crowd bursts.
//!
//! Generation is a pure function of the [`TraceSpec`]: one explicitly
//! seeded [`StdRng`] drives every draw in a fixed order, all float
//! accumulation is sequential, and no wall clock is consulted — equal
//! specs produce byte-identical traces.
//!
//! It runs in two stages. A record's arrival time is the previous one
//! plus an exponential step taken at the intensity of the previous one,
//! so the times form one serial chain, and the dataset pick reads the
//! time. Nothing else does: the RNG draws come in the same order and
//! number whatever the time is, and the step's logarithm reads only its
//! draw. So the calling thread runs the chain over block k while one
//! scoped worker appends block k-1's records to the output and makes the
//! draws and logs of block k+1. The generator and the output move into
//! each worker and come back through its join handle, and each worker is
//! joined before the next is spawned: the RNG stream is the one a single
//! loop would consume.

use crate::binary::{binary_header, put_record};
use crate::parser::{lines_len, put_lines, render_text, text_preamble};
use crate::record::TraceRecord;
use crate::spec::{BurstSpec, TraceSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};

/// The most records [`generate`] reserves room for up front (384 MiB of
/// records); a larger trace grows its vector past that as it goes.
const MAX_RESERVED: u64 = 1 << 24;

/// Records per pipeline block: enough that starting a worker (about
/// 50 µs on a 2-vCPU VM) is a small share of a block's work, few enough
/// that each of the two blocks in flight stays under a MiB.
const BLOCK: usize = 16_384;

/// Generates the spec's records, sorted by time (times are produced
/// monotonically). Panics only if the spec fails
/// [`TraceSpec::validate`] — validate first when the spec comes from
/// user input.
pub fn generate(spec: &TraceSpec) -> Vec<TraceRecord> {
    spec.validate().expect("invalid TraceSpec");
    let mut records = Vec::with_capacity(spec.records.min(MAX_RESERVED) as usize);
    run(spec, &mut records, |_| Ok(())).expect("collecting in memory cannot fail");
    records
}

/// Generates the spec's records and serializes them to the text format,
/// with the spec's name and seed echoed into a comment line after the
/// header.
pub fn generate_text(spec: &TraceSpec) -> String {
    let records = generate(spec);
    render_text(&text_head(spec), &records)
}

/// Streams the bytes of [`generate_text`] to `out` one block at a time,
/// holding a block of records and its text rather than the whole trace.
/// Returns the bytes written. Panics only as [`generate`] does.
///
/// # Errors
///
/// The first error `out` returns; the trace written so far is cut there.
pub fn generate_text_to<W: Write + ?Sized>(spec: &TraceSpec, out: &mut W) -> io::Result<u64> {
    spec.validate().expect("invalid TraceSpec");
    stream(spec, text_head(spec).as_bytes(), out, |block, text| {
        text.resize(lines_len(block), 0);
        put_lines(block, text);
    })
}

/// Streams the spec's trace to `out` in the binary framing — the bytes
/// of [`crate::write_binary`] over [`generate`] — one block at a time.
/// The header's count is `spec.records`, known before the first record.
/// Returns the bytes written. Panics only as [`generate`] does.
///
/// # Errors
///
/// The first error `out` returns; the trace written so far is cut there.
pub fn generate_binary_to<W: Write + ?Sized>(spec: &TraceSpec, out: &mut W) -> io::Result<u64> {
    spec.validate().expect("invalid TraceSpec");
    stream(spec, &binary_header(spec.records), out, |block, bytes| {
        for record in block {
            put_record(record, bytes);
        }
    })
}

/// Writes `head`, then each block of the validated spec's trace as
/// `encode` renders it into an emptied buffer; returns the bytes written.
fn stream<W: Write + ?Sized>(
    spec: &TraceSpec,
    head: &[u8],
    out: &mut W,
    mut encode: impl FnMut(&[TraceRecord], &mut Vec<u8>),
) -> io::Result<u64> {
    out.write_all(head)?;
    let mut written = head.len() as u64;
    let mut bytes = Vec::new();
    let mut block = Vec::with_capacity(block_capacity(spec));
    run(spec, &mut block, |block| {
        bytes.clear();
        encode(block, &mut bytes);
        block.clear();
        written += bytes.len() as u64;
        out.write_all(&bytes)
    })?;
    Ok(written)
}

/// The text preamble plus the provenance comment naming the spec.
fn text_head(spec: &TraceSpec) -> String {
    format!(
        "{}# generated: spec={} seed={} records={}\n",
        text_preamble(),
        spec.name,
        spec.seed,
        spec.records
    )
}

/// Records in the largest block: [`BLOCK`], or the whole trace when it
/// is shorter.
fn block_capacity(spec: &TraceSpec) -> usize {
    spec.records.min(BLOCK as u64) as usize
}

/// The pipeline over a validated spec: each block's records are
/// appended to `out`, then `flush` sees `out` — it may drain it, or
/// leave it to collect the whole trace.
///
/// Block k is placed on the calling thread while one scoped worker
/// appends block k-1 to `out` (taking its first-touch page faults) and
/// draws block k+1. The worker's inputs — the generator, `out` and a
/// block — move into it and come back through its join handle, and it
/// is joined before the next is spawned.
fn run(
    spec: &TraceSpec,
    mut out: &mut Vec<TraceRecord>,
    mut flush: impl FnMut(&mut Vec<TraceRecord>) -> io::Result<()>,
) -> io::Result<()> {
    let (records, clients, chunks) = (spec.records, spec.clients, spec.chunks_per_dataset);
    let bytes = spec.chunk_size as u32;
    let mut chain = Chain::new(spec);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // Both blocks are allocated here and only passed back and forth, so
    // the worker allocates no block.
    let mut mine = Vec::with_capacity(block_capacity(spec));
    let mut theirs = Vec::with_capacity(block_capacity(spec));
    draw_block(
        &mut rng,
        &mut mine,
        0,
        block_capacity(spec),
        clients,
        chunks,
    );
    let mut next = mine.len() as u64;
    std::thread::scope(|scope| {
        // `mine` holds block k's draws, `theirs` block k-1, placed.
        while !mine.is_empty() {
            let first = next;
            let len = (records - first).min(BLOCK as u64) as usize;
            next += len as u64;
            let worker = scope.spawn(move || {
                assemble(&theirs, bytes, out);
                draw_block(&mut rng, &mut theirs, first, len, clients, chunks);
                (rng, out, theirs)
            });
            chain.place(&mut mine);
            (rng, out, theirs) = worker.join().expect("trace worker panicked");
            flush(out)?;
            std::mem::swap(&mut mine, &mut theirs);
        }
        assemble(&theirs, bytes, out);
        flush(out)
    })
}

/// A record in the making: its draws, then what the chain adds.
#[derive(Debug, Clone, Copy)]
struct Partial {
    /// `-ln(1 - u)` of the inter-arrival draw `u`: the step at unit
    /// intensity. `0` for the first record, which draws no step.
    step: f64,
    /// The dataset pick's draw, in `[0, 1)`.
    unit: f64,
    client: u32,
    chunk: u32,
    /// Set by [`Chain::place`].
    time_us: u64,
    /// Set by [`Chain::place`].
    dataset: u32,
}

/// Replaces `block` with the draws of records `first..first + len`
/// (`block`'s capacity holds them).
fn draw_block(
    rng: &mut StdRng,
    block: &mut Vec<Partial>,
    first: u64,
    len: usize,
    clients: u32,
    chunks: u64,
) {
    block.clear();
    for i in first..first + len as u64 {
        // `u` is in [0, 1) so `1 - u` is in (0, 1] and the log is finite.
        let step = if i > 0 {
            let u: f64 = rng.gen_range(0.0..1.0);
            -(1.0 - u).ln()
        } else {
            0.0
        };
        let unit: f64 = rng.gen_range(0.0..1.0);
        let client = rng.gen_range(0..clients);
        // Drawn as `u64`, so the RNG stream does not depend on the
        // column's width; `validate` keeps both values within `u32`.
        let chunk = rng.gen_range(0..chunks) as u32;
        block.push(Partial {
            step,
            unit,
            client,
            chunk,
            time_us: 0,
            dataset: 0,
        });
    }
}

/// Appends a placed block's records to `out`.
fn assemble(block: &[Partial], bytes: u32, out: &mut Vec<TraceRecord>) {
    out.extend(block.iter().map(|p| TraceRecord {
        time_us: p.time_us,
        client: p.client,
        dataset: p.dataset,
        chunk: p.chunk,
        bytes,
    }));
}

/// The serial stage: the arrival-time chain, and the dataset pick that
/// reads its time.
struct Chain<'s> {
    spec: &'s TraceSpec,
    /// Base Zipf weights: dataset d has weight 1/(d+1)^s.
    base_weights: Vec<f64>,
    base_total: f64,
    /// Arrival intensity is `base_rate · diurnal(t) · crowd(t)` where
    /// `crowd` is the total-weight inflation from active bursts, so a
    /// flash crowd both skews popularity and raises the arrival rate.
    base_rate: f64,
    t: f64,
    last_us: u64,
    /// The burst-adjusted weights, valid for times below `until`.
    window: Window,
}

/// What the active bursts make of the weights between two burst edges,
/// where the set of active bursts cannot change.
struct Window {
    /// The first burst edge after the window's start; the window holds
    /// for every time below it.
    until: f64,
    /// Total weight with the active bursts' inflation.
    total: f64,
    /// `total / base_total`, the crowd factor of the intensity.
    crowd: f64,
    /// Per-dataset weights with the active bursts' multipliers.
    weights: Vec<f64>,
}

impl<'s> Chain<'s> {
    fn new(spec: &'s TraceSpec) -> Chain<'s> {
        let base_weights: Vec<f64> = (0..spec.datasets)
            .map(|d| 1.0 / f64::from(d + 1).powf(spec.zipf_exponent))
            .collect();
        let mut base_total = 0.0f64;
        for w in &base_weights {
            base_total += w;
        }
        Chain {
            spec,
            window: Window {
                until: f64::NEG_INFINITY,
                total: base_total,
                crowd: 1.0,
                weights: base_weights.clone(),
            },
            base_weights,
            base_total,
            base_rate: spec.records as f64 / spec.duration_s,
            t: 0.0,
            last_us: 0,
        }
    }

    /// Moves the window to the one holding time `t`, which is at or past
    /// the current window's `until`.
    #[cold]
    fn enter(&mut self, t: f64) {
        let active = |b: &BurstSpec| t >= b.start_s && t < b.start_s + b.duration_s;
        let bursts = &self.spec.bursts;
        let mut total = self.base_total;
        for b in bursts {
            if active(b) {
                total += self.base_weights[b.dataset as usize] * (b.multiplier - 1.0);
            }
        }
        for (d, w) in self.window.weights.iter_mut().enumerate() {
            *w = self.base_weights[d];
            for b in bursts {
                if b.dataset as usize == d && active(b) {
                    *w *= b.multiplier;
                }
            }
        }
        self.window.total = total;
        self.window.crowd = total / self.base_total;
        self.window.until = bursts
            .iter()
            .flat_map(|b| [b.start_s, b.start_s + b.duration_s])
            .filter(|&edge| edge > t)
            .fold(f64::INFINITY, f64::min);
    }

    /// Runs the chain over one block of draws: sets each record's time
    /// and dataset.
    fn place(&mut self, block: &mut [Partial]) {
        let spec = self.spec;
        let (mut t, mut last_us) = (self.t, self.last_us);
        for p in block {
            // The total weight is the one at the time before the step,
            // the per-dataset weights the ones after it. Times only
            // grow, so a window is left once, at its `until`.
            if t >= self.window.until {
                self.enter(t);
            }
            let total = self.window.total;
            let diurnal = 1.0
                + spec.diurnal_amplitude
                    * (2.0 * std::f64::consts::PI * t / spec.diurnal_period_s).sin();
            let intensity = self.base_rate * diurnal * self.window.crowd;
            // Exponential inter-arrival at the current intensity.
            t += p.step / intensity;
            if t >= self.window.until {
                self.enter(t);
            }

            // `gen_range(0.0..total)` is `0.0 + unit * (total - 0.0)`,
            // which is `unit * total` to the bit.
            let mut pick = p.unit * total;
            p.dataset = spec.datasets - 1;
            for (i, &w) in self.window.weights.iter().enumerate() {
                if pick < w {
                    p.dataset = i as u32;
                    break;
                }
                pick -= w;
            }

            // Times are emitted as monotone microseconds: ties collapse
            // to the same microsecond rather than reordering.
            last_us = ((t * 1e6) as u64).max(last_us);
            p.time_us = last_us;
        }
        (self.t, self.last_us) = (t, last_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_text;

    fn small_spec() -> TraceSpec {
        TraceSpec {
            records: 2_000,
            duration_s: 60.0,
            clients: 8,
            datasets: 4,
            chunks_per_dataset: 64,
            bursts: vec![BurstSpec {
                start_s: 20.0,
                duration_s: 10.0,
                dataset: 3,
                multiplier: 50.0,
            }],
            ..TraceSpec::default()
        }
    }

    /// The generator as one sequential loop, every draw in place: the
    /// oracle the two-stage pipeline must match bit for bit.
    fn generate_sequential(spec: &TraceSpec) -> Vec<TraceRecord> {
        spec.validate().expect("invalid TraceSpec");
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let base_weights: Vec<f64> = (0..spec.datasets)
            .map(|d| 1.0 / f64::from(d + 1).powf(spec.zipf_exponent))
            .collect();
        let mut base_total = 0.0f64;
        for w in &base_weights {
            base_total += w;
        }
        let base_rate = spec.records as f64 / spec.duration_s;
        let mut records = Vec::new();
        let mut t = 0.0f64;
        let mut last_us = 0u64;
        for i in 0..spec.records {
            let mut total = base_total;
            for b in &spec.bursts {
                if t >= b.start_s && t < b.start_s + b.duration_s {
                    total += base_weights[b.dataset as usize] * (b.multiplier - 1.0);
                }
            }
            let diurnal = 1.0
                + spec.diurnal_amplitude
                    * (2.0 * std::f64::consts::PI * t / spec.diurnal_period_s).sin();
            let intensity = base_rate * diurnal * (total / base_total);
            if i > 0 {
                let u: f64 = rng.gen_range(0.0..1.0);
                t += -(1.0 - u).ln() / intensity;
            }
            let mut pick: f64 = rng.gen_range(0.0..total);
            let mut dataset = spec.datasets - 1;
            for (d, w) in base_weights.iter().enumerate() {
                let mut w = *w;
                for b in &spec.bursts {
                    if b.dataset as usize == d && t >= b.start_s && t < b.start_s + b.duration_s {
                        w *= b.multiplier;
                    }
                }
                if pick < w {
                    dataset = d as u32;
                    break;
                }
                pick -= w;
            }
            let time_us = ((t * 1e6) as u64).max(last_us);
            last_us = time_us;
            records.push(TraceRecord {
                time_us,
                client: rng.gen_range(0..spec.clients),
                dataset,
                chunk: rng.gen_range(0..spec.chunks_per_dataset) as u32,
                bytes: spec.chunk_size as u32,
            });
        }
        records
    }

    fn burst(start_s: f64, duration_s: f64, dataset: u32, multiplier: f64) -> BurstSpec {
        BurstSpec {
            start_s,
            duration_s,
            dataset,
            multiplier,
        }
    }

    /// Zero to four bursts: overlapping ones, two on one dataset, one
    /// from time 0, one past the horizon.
    fn burst_sets(horizon: f64) -> Vec<Vec<BurstSpec>> {
        let at = |share: f64| share * horizon;
        vec![
            vec![],
            vec![burst(0.0, at(0.25), 1, 6.0)],
            vec![
                burst(at(0.2), at(0.3), 2, 8.0),
                burst(at(0.3), at(0.3), 2, 3.5),
            ],
            vec![
                burst(0.0, at(0.1), 0, 2.0),
                burst(at(0.05), at(0.5), 4, 40.0),
                burst(at(0.4), at(0.2), 1, 1.0),
            ],
            vec![
                burst(at(0.1), at(0.2), 3, 12.0),
                burst(at(0.15), at(0.1), 3, 7.0),
                burst(at(0.5), at(0.7), 0, 2.5),
                burst(at(0.9), at(0.05), 5, 100.0),
            ],
        ]
    }

    #[test]
    fn pipeline_matches_the_sequential_oracle() {
        let mut case = 0u64;
        for bursts in burst_sets(600.0) {
            for records in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
                case += 1;
                let spec = TraceSpec {
                    name: format!("case{case}"),
                    seed: 0x5EED + case,
                    records: records as u64,
                    duration_s: 600.0,
                    // Neither is a power of two: `sample_below`'s
                    // rejection branch draws.
                    clients: 7 + case as u32 % 5,
                    datasets: 6,
                    chunks_per_dataset: 1_000 + case * 37,
                    chunk_size: 1 << 20,
                    zipf_exponent: 0.9 + case as f64 / 50.0,
                    diurnal_amplitude: 0.6,
                    diurnal_period_s: 250.0,
                    bursts: bursts.clone(),
                };
                assert_eq!(
                    generate(&spec),
                    generate_sequential(&spec),
                    "{} bursts, {records} records",
                    spec.bursts.len()
                );
            }
        }
    }

    #[test]
    fn pipeline_matches_the_oracle_where_microseconds_see_every_ulp() {
        // At times near 10⁹ s one microsecond is a few ulps of `t`, so a
        // chain step that rounds differently shows in `time_us`.
        let horizon = 2.0e9;
        for (i, bursts) in burst_sets(horizon).into_iter().enumerate() {
            let spec = TraceSpec {
                seed: 77 + i as u64,
                records: 3 * BLOCK as u64 + 7,
                duration_s: horizon,
                clients: 1_000_003,
                datasets: 6,
                chunks_per_dataset: (1 << 32) - 5,
                diurnal_period_s: 3.3e8,
                bursts,
                ..TraceSpec::default()
            };
            assert_eq!(generate(&spec), generate_sequential(&spec), "set {i}");
        }
    }

    #[test]
    fn streams_write_the_collected_trace() {
        let mut spec = small_spec();
        spec.records = 2 * BLOCK as u64 + 3;
        let mut text = Vec::new();
        let written = generate_text_to(&spec, &mut text).unwrap();
        assert_eq!(written, text.len() as u64);
        assert_eq!(text, generate_text(&spec).into_bytes());
        let mut binary = Vec::new();
        let written = generate_binary_to(&spec, &mut binary).unwrap();
        assert_eq!(written, binary.len() as u64);
        assert_eq!(binary, crate::write_binary(&generate(&spec)));
    }

    #[test]
    fn same_spec_same_bytes() {
        let spec = small_spec();
        assert_eq!(generate_text(&spec), generate_text(&spec));
        let mut other = spec.clone();
        other.seed += 1;
        assert_ne!(generate_text(&other), generate_text(&spec));
    }

    #[test]
    fn output_is_valid_sorted_and_in_range() {
        let spec = small_spec();
        let records = generate(&spec);
        assert_eq!(records.len(), spec.records as usize);
        for pair in records.windows(2) {
            assert!(pair[0].time_us <= pair[1].time_us);
        }
        for r in &records {
            assert!(r.client < spec.clients);
            assert!(r.dataset < spec.datasets);
            assert!(u64::from(r.chunk) < spec.chunks_per_dataset);
            assert_eq!(u64::from(r.bytes), spec.chunk_size);
        }
        // The serialized form parses back to the same records.
        assert_eq!(parse_text(&generate_text(&spec)).unwrap(), records);
    }

    #[test]
    fn zipf_skews_and_burst_spikes() {
        let spec = small_spec();
        let records = generate(&spec);
        let mut per_dataset = vec![0usize; spec.datasets as usize];
        let mut burst_hits = 0usize;
        let mut burst_total = 0usize;
        for r in &records {
            per_dataset[r.dataset as usize] += 1;
            let t = r.time_seconds();
            if (20.0..30.0).contains(&t) {
                burst_total += 1;
                if r.dataset == 3 {
                    burst_hits += 1;
                }
            }
        }
        // Zipf: dataset 0 is the most popular overall.
        assert!(per_dataset[0] > per_dataset[1]);
        // Flash crowd: during the burst window, the burst dataset
        // dominates even though it is the least popular at rest.
        assert!(burst_total > 0);
        assert!(
            burst_hits * 2 > burst_total,
            "burst dataset got {burst_hits}/{burst_total} accesses in its window"
        );
    }
}
