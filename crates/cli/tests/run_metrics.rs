//! `opass run --metrics DIR --json` writes the same bytes run after run
//! and release after release: every file of the metrics bundle and the
//! JSON report are pinned by digest. The scenario covers a chained run
//! (a 3-step ParaView), a dynamic experiment whose workers steal tasks,
//! and a replay of a CSV task trace. `planning_seconds` is host wall
//! clock, so every line naming it is dropped before hashing.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("opass-run-metrics-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// FNV-1a over the text with every `planning_seconds` line removed.
fn digest(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in text.lines().filter(|l| !l.contains("planning_seconds")) {
        for byte in line.bytes().chain([b'\n']) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Writes the scenario and its replay trace under `dir`.
fn write_scenario(dir: &Path) -> PathBuf {
    let trace = dir.join("tasks.csv");
    let mut csv = String::from("size_bytes,compute_seconds\n");
    for i in 0..24u64 {
        csv.push_str(&format!(
            "{},{}\n",
            (16 + i % 5 * 8) << 20,
            (i % 4) as f64 * 0.25
        ));
    }
    std::fs::write(&trace, csv).expect("write trace");
    let scenario = dir.join("scenario.json");
    let json = format!(
        r#"{{"name": "metrics pin", "experiments": [
            {{"type": "paraview", "n_nodes": 8, "n_steps": 3, "seed": 5,
              "strategies": ["rank_interval", "opass"]}},
            {{"type": "dynamic", "n_nodes": 8, "tasks_per_process": 4, "seed": 3,
              "strategies": ["fifo", "delay:16", "opass_guided"]}},
            {{"type": "replay", "trace_file": "{}", "n_nodes": 6, "seed": 2,
              "strategies": ["rank_interval", "opass"]}}
        ]}}"#,
        trace.display()
    );
    std::fs::write(&scenario, json).expect("write scenario");
    scenario
}

/// Every file `opass run --metrics --json` wrote, in file-name order,
/// then the report it printed, under `"report"`.
fn run_bundle(tag: &str) -> Vec<(String, String)> {
    let dir = scratch(tag);
    let scenario = write_scenario(&dir);
    let metrics = dir.join("metrics");
    let out = Command::new(env!("CARGO_BIN_EXE_opass"))
        .arg("run")
        .arg(&scenario)
        .arg("--metrics")
        .arg(&metrics)
        .arg("--json")
        .output()
        .expect("run opass");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut names: Vec<String> = std::fs::read_dir(&metrics)
        .expect("metrics dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort();
    let mut files: Vec<(String, String)> = names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(metrics.join(&name)).expect("read");
            (name, text)
        })
        .collect();
    files.push((
        "report".to_string(),
        String::from_utf8(out.stdout).expect("utf-8 report"),
    ));
    std::fs::remove_dir_all(&dir).ok();
    files
}

#[test]
fn the_metrics_bundle_and_report_repeat_the_recorded_digests() {
    let files = run_bundle("pin");
    let text = |name: &str| &files.iter().find(|(n, _)| n == name).expect("written").1;
    // The scenario covers what it says: the guided workers steal, and the
    // ParaView run chains three steps of 64 block reads.
    assert!(
        !text("1_dynamic_opass_guided_metrics.json").contains("\"steals\": 0,"),
        "the guided run steals"
    );
    assert!(text("0_paraview_opass_metrics.json").contains("\"reads\": 192,"));
    let got: Vec<(String, u64)> = files
        .iter()
        .map(|(name, text)| (name.clone(), digest(text)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("        (\"{name}\", {d:#018x}),\n"))
        .collect();
    let want: &[(&str, u64)] = &[
        ("0_paraview_opass_events.json", 0xba86790b162b56a6),
        ("0_paraview_opass_metrics.json", 0xc29b740558278d51),
        ("0_paraview_opass_node_series.csv", 0x160c547688b7b54f),
        ("0_paraview_opass_per_node.csv", 0xabdb54c481f2be59),
        ("0_paraview_rank_interval_events.json", 0x58ad806c66e0a774),
        ("0_paraview_rank_interval_metrics.json", 0xec82280f1a0e7e7a),
        (
            "0_paraview_rank_interval_node_series.csv",
            0xb208de8581bf1e6f,
        ),
        ("0_paraview_rank_interval_per_node.csv", 0xbb2a5e8131a1c1b9),
        ("1_dynamic_delay_16_events.json", 0xe6a6a992046ab264),
        ("1_dynamic_delay_16_metrics.json", 0xf4635f0c3e3cf8c7),
        ("1_dynamic_delay_16_node_series.csv", 0xb084b729b0310167),
        ("1_dynamic_delay_16_per_node.csv", 0x4c456dc6fa909c38),
        ("1_dynamic_fifo_events.json", 0x85346e01c928726f),
        ("1_dynamic_fifo_metrics.json", 0x4d8b0027671b6f67),
        ("1_dynamic_fifo_node_series.csv", 0x7c5cf7125c329e54),
        ("1_dynamic_fifo_per_node.csv", 0x5a6b7a40ba12e015),
        ("1_dynamic_opass_guided_events.json", 0x123c9225bce449c3),
        ("1_dynamic_opass_guided_metrics.json", 0x05e61f46f21bbe7b),
        ("1_dynamic_opass_guided_node_series.csv", 0xd76421a772f01fa2),
        ("1_dynamic_opass_guided_per_node.csv", 0xda4fa084c39a7a9b),
        ("2_replay_opass_events.json", 0xc216b8977cdb09a9),
        ("2_replay_opass_metrics.json", 0x6ba6ed84027d560e),
        ("2_replay_opass_node_series.csv", 0x0ba385d60ad74217),
        ("2_replay_opass_per_node.csv", 0x625b19997c3c54b1),
        ("2_replay_rank_interval_events.json", 0x55ebf9deb5ca06a9),
        ("2_replay_rank_interval_metrics.json", 0x701394aa79b3b22c),
        ("2_replay_rank_interval_node_series.csv", 0xfe14685565c9324b),
        ("2_replay_rank_interval_per_node.csv", 0x9193200e97969eaf),
        ("report", 0x3b2919951b7583fc),
    ];
    let want: Vec<(String, u64)> = want.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want, "digests changed; now:\n{table}");
}
