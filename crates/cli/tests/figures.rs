//! `opass figures`: the committed figure record, and refusals that leave
//! nothing behind.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, not yet created directory path unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("opass-figures-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs `opass figures` with `args`; returns the exit code, stdout and
/// stderr.
fn figures(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_opass"))
        .arg("figures")
        .args(args)
        .output()
        .expect("run opass");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("UTF-8 temp path")
}

#[test]
fn all_figures_print_the_committed_record() {
    let record = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../FIGURES.txt"))
        .expect("FIGURES.txt readable");
    let dir = scratch("all");
    let (code, stdout, stderr) = figures(&["--out", path_str(&dir), "all"]);
    let summary = std::fs::read_to_string(dir.join("SUMMARY.txt"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stdout, record, "stdout differs from FIGURES.txt");
    assert_eq!(summary.expect("SUMMARY.txt written"), record);
}

#[test]
fn list_prints_every_id_in_order() {
    let (code, stdout, _) = figures(&["--list"]);
    assert_eq!(code, Some(0));
    let ids: Vec<&str> = stdout.lines().collect();
    assert_eq!(ids.len(), 19, "{stdout}");
    assert_eq!(ids[..3], ["fig1", "fig3", "sec3b"]);
    assert_eq!(ids[18], "ext-matching-prob");
}

#[test]
fn an_unwritable_out_directory_is_one_error_line() {
    let dir = scratch("file");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("a-file");
    std::fs::write(&file, "").expect("write file");
    let (code, stdout, stderr) = figures(&["--out", path_str(&file.join("sub")), "sec3b"]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("cannot write "), "{stderr}");
}

#[test]
fn a_failed_summary_write_is_an_error() {
    let dir = scratch("summary");
    std::fs::create_dir_all(dir.join("SUMMARY.txt")).expect("temp dir");
    let (code, _, stderr) = figures(&["--out", path_str(&dir), "sec3b"]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("cannot write "), "{stderr}");
    assert!(stderr.contains("SUMMARY.txt"), "{stderr}");
}

#[test]
fn bad_arguments_are_refused_before_any_figure_runs() {
    for (tag, args) in [
        ("unknown-id", &["sec3b", "fig99"][..]),
        ("unknown-flag", &["--sede", "3", "sec3b"]),
        ("bad-seed", &["--seed", "x", "sec3b"]),
        ("no-ids", &[]),
    ] {
        let dir = scratch(tag);
        let mut argv = vec!["--out", path_str(&dir)];
        argv.extend_from_slice(args);
        let (code, stdout, stderr) = figures(&argv);
        assert_eq!(code, Some(1), "{tag}: {stderr}");
        assert!(stdout.is_empty(), "{tag}: {stdout}");
        assert!(!dir.exists(), "{tag}: {} was created", dir.display());
    }
}
