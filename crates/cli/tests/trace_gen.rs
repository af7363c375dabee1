//! `opass trace gen` streams the generator's trace: its text and binary
//! outputs are byte for byte the in-memory `generate_text` and
//! `write_binary(generate)`. A spec it cannot generate is refused with the
//! spec's own error and exit code 1, before it reserves anything.

use opass_trace::{generate, generate_text, write_binary, TraceSpec};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("opass-trace-gen-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `opass trace gen --spec` on a spec file holding `json`, with
/// `extra` arguments.
fn gen_from_spec(dir: &std::path::Path, json: &str, extra: &[&str]) -> Output {
    let spec = dir.join("spec.json");
    std::fs::write(&spec, json).expect("write spec");
    Command::new(env!("CARGO_BIN_EXE_opass"))
        .args(["trace", "gen", "--spec"])
        .arg(&spec)
        .args(extra)
        .output()
        .expect("run opass")
}

/// Runs a spec that should be refused, in a directory of its own.
fn refused(tag: &str, json: &str) -> Output {
    let dir = scratch(tag);
    let out = gen_from_spec(&dir, json, &[]);
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn streamed_traces_equal_the_in_memory_ones() {
    // Four pipeline blocks and a part; clients and chunks not powers of
    // two; two bursts, one from time 0.
    let json = r#"{"name": "cli", "seed": 17, "records": 100003, "duration_s": 900,
        "clients": 37, "datasets": 5, "chunks_per_dataset": 1000,
        "bursts": [{"start_s": 0, "duration_s": 60, "dataset": 4, "multiplier": 9},
                   {"start_s": 300, "duration_s": 200, "dataset": 1, "multiplier": 3}]}"#;
    let spec = TraceSpec::from_json_str(json).expect("valid spec");
    let dir = scratch("stream");
    let cases = [
        ("trace.txt", &[][..], generate_text(&spec).into_bytes()),
        (
            "trace.bin",
            &["--binary"][..],
            write_binary(&generate(&spec)),
        ),
    ];
    for (name, flags, expected) in cases {
        let path = dir.join(name);
        let mut args = vec!["--out", path.to_str().expect("UTF-8 temp path")];
        args.extend_from_slice(flags);
        let out = gen_from_spec(&dir, json, &args);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let written = std::fs::read(&path).expect("read trace");
        assert!(
            written == expected,
            "{name} differs from the in-memory trace"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let summary = format!(
            "trace (100003 records) to {} ({} bytes)",
            path.display(),
            expected.len()
        );
        assert!(stdout.contains(&summary), "{stdout}");
    }
    // Without `--out` the trace goes to stdout, and nothing else does.
    let out = gen_from_spec(&dir, json, &["--binary"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        out.stdout == write_binary(&generate(&spec)),
        "stdout trace differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_spec_asking_for_u64_max_records_is_refused_not_aborted() {
    let out = refused("huge", &format!(r#"{{"records": {}}}"#, u64::MAX));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("field \"records\" must be below 2^53"),
        "{stderr}"
    );
}

#[test]
fn a_misspelt_spec_key_is_refused_by_name() {
    let out = refused("typo", r#"{"records": 10, "sede": 3}"#);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(r#"unknown field "sede""#), "{stderr}");
}
