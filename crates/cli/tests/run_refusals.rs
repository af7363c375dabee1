//! `opass run` refuses a scenario no experiment can run before anything
//! runs: one line on stderr naming the file and the field, exit code 1.

use std::process::Command;

/// Runs `opass run` on a scenario file holding `json`; returns the exit
/// code, stdout and stderr.
fn run_scenario(name: &str, json: &str) -> (Option<i32>, String, String) {
    let dir = std::env::temp_dir().join(format!("opass-run-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("scenario.json");
    std::fs::write(&path, json).expect("write scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_opass"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("run opass");
    std::fs::remove_dir_all(&dir).ok();
    let stderr =
        String::from_utf8_lossy(&out.stderr).replace(&path.display().to_string(), "<path>");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr,
    )
}

#[test]
fn a_racked_cluster_with_fewer_storage_nodes_than_replicas_is_refused() {
    // Racks {0, 1, 2} and {3}, two late nodes each: nodes 0 and 3 hold
    // data, and three replicas do not fit on two nodes.
    let (code, stdout, stderr) = run_scenario(
        "racked",
        r#"{"experiments": [{"type": "racked", "n_nodes": 4, "nodes_per_rack": 3,
            "strategies": ["opass"]}]}"#,
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert_eq!(
        stderr,
        "<path>: invalid scenario: racked: n_nodes 4 in racks of nodes_per_rack 3 \
         leaves 2 storage nodes for 3 replicas\n"
    );
}

#[test]
fn a_refused_scenario_names_its_error_once() {
    let (code, _, stderr) = run_scenario(
        "zero",
        r#"{"experiments": [{"type": "single_data", "chunks_per_process": 0,
            "strategies": ["opass"]}]}"#,
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "<path>: invalid scenario: single_data: chunks_per_process must be at least 1\n"
    );
    assert_eq!(stderr.matches("invalid scenario").count(), 1);
}

#[test]
fn a_misspelt_experiment_key_is_refused_by_name() {
    let (code, stdout, stderr) = run_scenario(
        "typo",
        r#"{"experiments": [{"type": "single_data", "n_node": 8,
            "strategies": ["opass"]}]}"#,
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert_eq!(
        stderr,
        "<path>: invalid scenario: unknown field \"n_node\" in \"single_data\"\n"
    );
}
