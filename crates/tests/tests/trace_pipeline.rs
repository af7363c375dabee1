//! Cross-crate properties of the trace pipeline: the text parser reads
//! every record of randomized ragged inputs and names the first bad line,
//! generation is a pure function of its spec, and replay-through-planner
//! produces a reproducible fingerprint.

use opass_serve::{replay_local, ReplayConfig};
use opass_trace::{
    generate, generate_text, parse_binary, parse_text, write_binary, write_text, BurstSpec,
    TraceError, TraceRecord, TraceSpec, TEXT_HEADER,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a randomized ragged trace text: valid records interleaved with
/// comments, blank lines, stray whitespace, and (optionally) no trailing
/// newline.
fn ragged_trace(rng: &mut StdRng, records: usize, trailing_newline: bool) -> String {
    let mut out = String::from(TEXT_HEADER);
    out.push('\n');
    for i in 0..records {
        match rng.gen_range(0u32..10) {
            0 => out.push_str("# interleaved comment\n"),
            1 => out.push('\n'),
            2 => out.push_str("   \n"),
            _ => {}
        }
        let pad = if rng.gen_bool(0.2) { "  " } else { "" };
        out.push_str(&format!(
            "{pad}{}.{:06},{},{},{},{}\n",
            i / 7,
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(0u32..64),
            rng.gen_range(0u32..8),
            rng.gen_range(0u64..512),
            1u64 << rng.gen_range(10u32..27),
        ));
    }
    if !trailing_newline {
        // Leave the last record as a partial line (no final newline).
        out.pop();
    }
    out
}

#[test]
fn ragged_text_parses_every_record_line() {
    let mut rng = StdRng::seed_from_u64(0x9A99ED);
    for case in 0..12 {
        let trailing = case % 2 == 0;
        let n = 50 + case * 137;
        let text = ragged_trace(&mut rng, n, trailing);
        let records = parse_text(&text).expect("ragged trace parses");
        assert_eq!(
            records.len(),
            n,
            "case {case}: every record line parses (trailing newline: {trailing})"
        );
    }
}

#[test]
fn ragged_text_reports_the_first_bad_line() {
    let mut rng = StdRng::seed_from_u64(0xE4401);
    for case in 0..8 {
        let mut text = ragged_trace(&mut rng, 400, true);
        // Corrupt one record line somewhere in the middle.
        let victim = text
            .char_indices()
            .filter(|&(_, c)| c == '\n')
            .map(|(i, _)| i)
            .nth(100 + case * 30)
            .expect("enough lines");
        text.insert_str(victim + 1, "bogus,line\n");
        // The inserted line follows the victim's newline: its number is
        // one more than the newlines up to and including that one.
        let line = text[..=victim].matches('\n').count() + 1;
        assert_eq!(
            parse_text(&text),
            Err(TraceError::BadShape { line }),
            "case {case}"
        );
    }
}

#[test]
fn generator_is_a_pure_function_of_its_spec() {
    let spec = TraceSpec {
        records: 30_000,
        datasets: 6,
        clients: 32,
        chunks_per_dataset: 256,
        ..TraceSpec::default()
    };
    // Byte-identical text on repeated generation.
    assert_eq!(generate_text(&spec), generate_text(&spec));
    // A different seed changes the trace; everything else equal.
    let reseeded = TraceSpec {
        seed: spec.seed ^ 1,
        ..spec.clone()
    };
    assert_ne!(generate_text(&reseeded), generate_text(&spec));
    // Text and binary encodings carry the same records.
    let records = generate(&spec);
    let via_text = parse_text(&write_text(&records)).expect("text round-trip");
    let via_binary = parse_binary(&write_binary(&records)).expect("binary round-trip");
    assert_eq!(via_text, records);
    assert_eq!(via_binary, records);
}

#[test]
fn replay_through_planner_is_deterministic() {
    let spec = TraceSpec {
        records: 20_000,
        datasets: 5,
        clients: 48,
        chunks_per_dataset: 200,
        chunk_size: 8 << 20,
        ..TraceSpec::default()
    };
    let records = generate(&spec);
    let config = ReplayConfig {
        n_nodes: 24,
        batch_records: 2_048,
        ..ReplayConfig::default()
    };
    let a = replay_local(&records, &config).expect("replay");
    let b = replay_local(&records, &config).expect("replay rerun");
    assert_eq!(a, b, "identical inputs must produce identical reports");
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.records, 20_000);
    assert!(a.migrations > 0, "churn must move replicas");
    // A different world seed must change the outcome (the fingerprint
    // covers plans, not just record counts).
    let reseeded = ReplayConfig {
        seed: config.seed ^ 1,
        ..config
    };
    let c = replay_local(&records, &reseeded).expect("replay reseeded");
    assert_ne!(a.fingerprint(), c.fingerprint());
}

#[test]
fn replay_locality_improves_under_churn() {
    // Churn migrates hot replicas toward their readers, so the session's
    // locality at the end must be at least as good as the quiet run's.
    let records = generate(&TraceSpec {
        records: 15_000,
        datasets: 3,
        clients: 12,
        chunks_per_dataset: 128,
        ..TraceSpec::default()
    });
    let base = ReplayConfig {
        n_nodes: 12,
        batch_records: 1_024,
        ..ReplayConfig::default()
    };
    let churned = replay_local(&records, &base).expect("churned replay");
    let quiet = replay_local(
        &records,
        &ReplayConfig {
            churn: false,
            ..base
        },
    )
    .expect("quiet replay");
    assert_eq!(quiet.migrations, 0);
    assert!(
        churned.mean_session_locality >= quiet.mean_session_locality,
        "migrating replicas toward readers must not hurt session locality \
         (churned {:.4} vs quiet {:.4})",
        churned.mean_session_locality,
        quiet.mean_session_locality
    );
}

#[test]
fn bench_shaped_replays_repeat_the_recorded_fingerprints() {
    // The `trace_replay` benchmark's trace and replay config at seed 1,
    // cut to two of its 32 768-record slices: 64 clients, 8 datasets of
    // 256 chunks, Zipf 1.1 popularity, one flash crowd on dataset 2, and
    // 64 nodes with batches of 8 192 records. The fingerprint covers every
    // batch plan and every session plan, so a changed world draw,
    // migration or replan anywhere moves it.
    let records = generate(&TraceSpec {
        name: "bench".to_string(),
        seed: 1,
        records: 65_536,
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
    });
    let config = ReplayConfig {
        n_nodes: 64,
        replication: 3,
        seed: 1,
        batch_records: 8192,
        churn: true,
    };
    for (slice, churn, want) in [
        (0, true, 0x0952_f1bd_e957_9e3cu64),
        (1, true, 0xa83a_8c3e_c474_1af9),
        (0, false, 0xe052_1c9a_3a21_4987),
    ] {
        let records = &records[slice * 32_768..(slice + 1) * 32_768];
        let report = replay_local(records, &ReplayConfig { churn, ..config }).expect("replay");
        assert_eq!(report.migrations > 0, churn);
        let fingerprint = report.fingerprint();
        assert_eq!(
            fingerprint, want,
            "slice {slice}, churn {churn}: fingerprint changed: {fingerprint:#018x}"
        );
    }
}

/// A record with every field at its extreme round-trips through both
/// encodings.
#[test]
fn extreme_records_round_trip() {
    let records = vec![
        TraceRecord {
            time_us: 0,
            client: 0,
            dataset: 0,
            chunk: 0,
            bytes: 0,
        },
        TraceRecord {
            time_us: u64::MAX / 2,
            client: u32::MAX,
            dataset: u32::MAX,
            chunk: u32::MAX,
            bytes: u32::MAX,
        },
    ];
    assert_eq!(parse_text(&write_text(&records)).expect("text"), records);
    assert_eq!(
        parse_binary(&write_binary(&records)).expect("binary"),
        records
    );
}

/// A record is 24 bytes in memory: `chunk` and `bytes` are `u32`.
#[test]
fn a_record_is_24_bytes() {
    assert_eq!(std::mem::size_of::<TraceRecord>(), 24);
}

/// 2³² in the `chunk` or `bytes` column is refused as a `BadValue` naming
/// the field, at its line.
#[test]
fn text_refuses_chunk_and_bytes_of_2_pow_32() {
    let body = "0.1,1,0,5,1024\n0.2,1,0,6,1024\n";
    for bad in ["0.3,1,0,4294967296,1024", "0.3,1,0,7,4294967296"] {
        let input = format!("{TEXT_HEADER}\n# c\n{body}{bad}\n{body}");
        assert_eq!(
            parse_text(&input),
            Err(TraceError::BadValue {
                line: 5,
                field: "4294967296".into()
            }),
            "{bad}"
        );
    }
}

/// An `OPTRACE1` record whose `u64` on-disk `chunk` or `bytes` exceeds
/// `u32::MAX` is refused at that field's byte offset.
#[test]
fn binary_refuses_chunk_and_bytes_above_u32() {
    let records = vec![
        TraceRecord {
            time_us: 1,
            client: 2,
            dataset: 3,
            chunk: 4,
            bytes: 5,
        };
        3
    ];
    let good = write_binary(&records);
    // Header 16 bytes, records 32 bytes, `chunk` at +16 and `bytes` at +24.
    for field_at in [16, 24] {
        let offset = 16 + 32 + field_at;
        let mut bad = good.clone();
        bad[offset..offset + 8].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        match parse_binary(&bad) {
            Err(TraceError::BadBinary { offset: at, .. }) => assert_eq!(at, offset),
            other => panic!("field at +{field_at}: expected BadBinary, got {other:?}"),
        }
        bad[offset..offset + 8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
        assert!(parse_binary(&bad).is_ok(), "u32::MAX at +{field_at} fits");
    }
}
