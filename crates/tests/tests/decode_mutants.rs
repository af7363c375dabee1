//! No input the decoders read may panic them. Every truncation prefix
//! and every single-bit flip of each byte of the frames `wire_bytes.rs`
//! pins, of the trace-spec template, and of a slice of the template trace
//! in text and in `OPTRACE1` decodes to a value or a typed error. The
//! scenario half of the check is `scenario::tests` in the CLI, which owns
//! that decoder.

use opass_json::Json;
use opass_serve::{Request, Response};
use opass_trace::{
    generate, parse_binary, parse_text, write_binary, write_text, TraceError, TraceSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every truncation prefix of `bytes` and every single-bit flip of each
/// of its bytes.
fn byte_mutants(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(move |n| bytes[..n].to_vec());
    let flips = (0..bytes.len() * 8).map(move |i| {
        let mut flipped = bytes.to_vec();
        flipped[i / 8] ^= 1 << (i % 8);
        flipped
    });
    cuts.chain(flips)
}

/// [`byte_mutants`] of `input` as text (a flip that breaks UTF-8 reads
/// lossily).
fn mutants(input: &str) -> impl Iterator<Item = String> + '_ {
    byte_mutants(input.as_bytes()).map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Decodes every mutant of `input` with `decode`, which says whether
/// the text was JSON and whether the decoder accepted it. Fails on a
/// panic, naming the mutant; returns how many mutants were JSON the
/// decoder refused and how many it accepted.
fn decode_mutants(input: &str, decode: impl Fn(&str) -> (bool, bool)) -> (usize, usize) {
    let (mut refused, mut accepted) = (0, 0);
    for mutant in mutants(input) {
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&mutant)));
        match outcome {
            Ok((true, false)) => refused += 1,
            Ok((true, true)) => accepted += 1,
            Ok((false, _)) => {}
            Err(_) => panic!("decoding {mutant:?} panicked"),
        }
    }
    (refused, accepted)
}

/// The frame bodies `wire_bytes.rs` pins: its raw string literals, the
/// pieces of each `concat!` joined until they form one JSON document.
fn pinned_frames() -> Vec<String> {
    let source = include_str!("wire_bytes.rs");
    let mut frames = Vec::new();
    let mut frame = String::new();
    for piece in source.split("r#\"").skip(1) {
        let end = piece.find("\"#").expect("a raw literal closes");
        frame.push_str(&piece[..end]);
        if Json::parse(&frame).is_ok() {
            frames.push(std::mem::take(&mut frame));
        }
    }
    frames
}

#[test]
fn mutated_wire_frames_decode_or_are_refused() {
    let frames = pinned_frames();
    // 13 request kinds and shapes, then 9 replies.
    assert_eq!(frames.len(), 22, "{frames:#?}");
    let (mut refused, mut accepted) = (0, 0);
    for frame in &frames {
        let (r, a) = decode_mutants(frame, |text| match Json::parse(text) {
            Ok(v) => (
                true,
                Request::from_json(&v).is_ok() || Response::from_json(&v).is_ok(),
            ),
            Err(_) => (false, false),
        });
        refused += r;
        accepted += a;
    }
    // Both outcomes happen, so the mutants reach the field codec.
    assert!(
        refused > 0 && accepted > 0,
        "{refused} refused, {accepted} accepted"
    );
}

#[test]
fn mutated_trace_specs_decode_or_are_refused() {
    let template = TraceSpec::default().to_json().to_pretty();
    let (refused, accepted) = decode_mutants(&template, |text| {
        let json = Json::parse(text).is_ok();
        (json, TraceSpec::from_json_str(text).is_ok())
    });
    assert!(
        refused > 0 && accepted > 0,
        "{refused} refused, {accepted} accepted"
    );
}

/// The first 64 records of the template trace.
fn template_slice() -> Vec<opass_trace::TraceRecord> {
    let mut records = generate(&TraceSpec::default());
    records.truncate(64);
    records
}

#[test]
fn mutated_text_traces_parse_or_are_refused() {
    let text = write_text(&template_slice());
    let (mut refused, mut accepted) = (0, 0);
    for mutant in mutants(&text) {
        let parsed = catch_unwind(|| parse_text(&mutant))
            .unwrap_or_else(|_| panic!("parsing {mutant:?} panicked"));
        match parsed {
            Ok(_) => accepted += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(
        refused > 0 && accepted > 0,
        "{refused} refused, {accepted} accepted"
    );
}

#[test]
fn mutated_binary_traces_decode_or_are_refused() {
    let bytes = write_binary(&template_slice());
    let (mut accepted, mut out_of_range) = (0, 0);
    for mutant in byte_mutants(&bytes) {
        let decoded = catch_unwind(|| parse_binary(&mutant))
            .unwrap_or_else(|_| panic!("decoding {mutant:?} panicked"));
        match decoded {
            Ok(_) => accepted += 1,
            Err(TraceError::BadBinary { offset, reason }) if reason.contains("2^32") => {
                // A high bit of an on-disk `chunk` (+16) or `bytes` (+24).
                assert!(matches!((offset - 16) % 32, 16 | 24), "{offset}");
                out_of_range += 1;
            }
            Err(_) => {}
        }
    }
    // 64 records, two fields each, 32 high bits per field.
    assert_eq!(out_of_range, 64 * 2 * 32);
    assert!(accepted > 0);
}
