//! Flags that were removed are refused, not ignored: the command exits
//! non-zero, names the flag and prints its usage line, which no longer
//! lists it.

use std::path::PathBuf;
use std::process::Command;

/// `opass-lint` lands beside `opass`: a workspace-wide `cargo test`
/// builds both, because each package's integration tests need its binary.
fn lint_binary() -> PathBuf {
    let opass = PathBuf::from(env!("CARGO_BIN_EXE_opass"));
    let lint = opass.with_file_name(format!("opass-lint{}", std::env::consts::EXE_SUFFIX));
    assert!(
        lint.is_file(),
        "{} is missing: run this test from a workspace-wide `cargo test`",
        lint.display()
    );
    lint
}

#[test]
fn removed_flags_are_refused_with_the_usage_line() {
    let dir = std::env::temp_dir().join(format!("opass-removed-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.csv");
    std::fs::write(&trace, "#opass-trace v1\n0.1,1,0,5,1024\n").expect("write trace");
    let scenario = dir.join("scenario.json");
    let init = Command::new(env!("CARGO_BIN_EXE_opass"))
        .arg("init")
        .arg(&scenario)
        .output()
        .expect("run opass init");
    assert!(init.status.success(), "opass init failed");
    let (trace, scenario) = (trace.to_str().unwrap(), scenario.to_str().unwrap());
    let opass = PathBuf::from(env!("CARGO_BIN_EXE_opass"));

    let cases = [
        (
            &opass,
            vec!["trace", "parse", trace, "--threads", "2"],
            "usage: opass trace",
        ),
        (
            &opass,
            vec!["trace", "replay", trace, "--threads", "2"],
            "usage: opass trace",
        ),
        (
            &opass,
            vec!["run", scenario, "--parallel"],
            "usage: opass run",
        ),
        (&lint_binary(), vec!["--threads", "4"], "usage: opass-lint"),
    ];
    for (binary, args, usage) in cases {
        let flag = args.iter().find(|a| a.starts_with("--")).expect("a flag");
        let out = Command::new(binary)
            .args(&args)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded:\n{stderr}");
        let (error, rest) = stderr.split_once('\n').unwrap_or((&stderr, ""));
        assert!(
            error.contains("unknown flag") && error.contains(flag),
            "{args:?}: {stderr}"
        );
        assert!(rest.starts_with(usage), "{args:?}: {stderr}");
        assert!(
            !rest.contains(flag),
            "{args:?}: the usage still lists {flag}: {rest}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
    std::fs::remove_dir_all(&dir).ok();
}
