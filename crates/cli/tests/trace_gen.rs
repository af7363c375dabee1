//! `opass trace gen` refuses a spec it cannot generate with the spec's
//! own error and exit code 1, before it reserves anything.

use std::process::{Command, Output};

/// Runs `opass trace gen --spec` on a spec file holding `json`.
fn gen_from_spec(tag: &str, json: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("opass-trace-gen-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, json).expect("write spec");
    let out = Command::new(env!("CARGO_BIN_EXE_opass"))
        .args(["trace", "gen", "--spec"])
        .arg(&spec)
        .output()
        .expect("run opass");
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn a_spec_asking_for_u64_max_records_is_refused_not_aborted() {
    let out = gen_from_spec("huge", &format!(r#"{{"records": {}}}"#, u64::MAX));
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
    let out = gen_from_spec("typo", r#"{"records": 10, "sede": 3}"#);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(r#"unknown field "sede""#), "{stderr}");
}
