//! Seeded trace generation: Zipfian dataset popularity, a diurnal
//! intensity curve, and flash-crowd bursts.
//!
//! Generation is a pure function of the [`TraceSpec`]: one explicitly
//! seeded [`StdRng`] drives every draw in a fixed order, all float
//! accumulation is sequential, and no wall clock is consulted — equal
//! specs produce byte-identical traces.

use crate::record::TraceRecord;
use crate::spec::TraceSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The most records [`generate`] reserves room for up front (384 MiB of
/// records); a larger trace grows its vector past that as it goes.
const MAX_RESERVED: u64 = 1 << 24;

/// Generates the spec's records, sorted by time (times are produced
/// monotonically). Panics only if the spec fails
/// [`TraceSpec::validate`] — validate first when the spec comes from
/// user input.
pub fn generate(spec: &TraceSpec) -> Vec<TraceRecord> {
    spec.validate().expect("invalid TraceSpec");
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Base Zipf weights: dataset d has weight 1/(d+1)^s.
    let base_weights: Vec<f64> = (0..spec.datasets)
        .map(|d| 1.0 / f64::from(d + 1).powf(spec.zipf_exponent))
        .collect();
    let mut base_total = 0.0f64;
    for w in &base_weights {
        base_total += w;
    }

    // Arrival intensity is `base_rate · diurnal(t) · crowd(t)` where
    // `crowd` is the total-weight inflation from active bursts, so a
    // flash crowd both skews popularity and raises the arrival rate.
    let base_rate = spec.records as f64 / spec.duration_s;

    let mut records = Vec::with_capacity(spec.records.min(MAX_RESERVED) as usize);
    let mut t = 0.0f64;
    let mut last_us = 0u64;
    for i in 0..spec.records {
        // Per-dataset multipliers for bursts active at time t, and the
        // resulting total weight.
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

        // Exponential inter-arrival at the current intensity. `u` is in
        // [0, 1) so `1 - u` is in (0, 1] and the log is finite.
        if i > 0 {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / intensity;
        }

        // Sample the dataset from the burst-adjusted weights.
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

        // Times are emitted as monotone microseconds: ties collapse to
        // the same microsecond rather than reordering.
        let time_us = ((t * 1e6) as u64).max(last_us);
        last_us = time_us;
        records.push(TraceRecord {
            time_us,
            client: rng.gen_range(0..spec.clients),
            dataset,
            // Drawn as `u64`, so the RNG stream does not depend on the
            // column's width; `validate` keeps both values within `u32`.
            chunk: rng.gen_range(0..spec.chunks_per_dataset) as u32,
            bytes: spec.chunk_size as u32,
        });
    }
    records
}

/// Generates the spec's records and serializes them to the text format,
/// with the spec's name and seed echoed into a comment line.
pub fn generate_text(spec: &TraceSpec) -> String {
    let records = generate(spec);
    let mut out = crate::parser::write_text(&records);
    // Splice a provenance comment after the two header lines.
    let insert_at = nth_line_start(&out, 2);
    out.insert_str(
        insert_at,
        &format!(
            "# generated: spec={} seed={} records={}\n",
            spec.name,
            spec.seed,
            records.len()
        ),
    );
    out
}

/// Byte offset where the `n`-th (0-based) line starts.
fn nth_line_start(text: &str, n: usize) -> usize {
    let mut at = 0;
    for _ in 0..n {
        match text[at..].find('\n') {
            Some(off) => at += off + 1,
            None => return text.len(),
        }
    }
    at
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
            bursts: vec![crate::spec::BurstSpec {
                start_s: 20.0,
                duration_s: 10.0,
                dataset: 3,
                multiplier: 50.0,
            }],
            ..TraceSpec::default()
        }
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
