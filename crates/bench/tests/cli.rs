//! Command-line validation of the `repro` binary: a bad invocation must
//! fail before any target runs, so it exits nonzero with nothing on
//! stdout and the reason on stderr.

use std::process::Command;

fn rejected(args: &[&str], reason: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "{args:?} must fail");
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed before failing:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(reason),
        "{args:?}: stderr lacks {reason:?}:\n{stderr}"
    );
}

#[test]
fn unknown_target_fails_before_an_earlier_target_runs() {
    rejected(&["table1", "nosuch"], "unknown target nosuch");
}

#[test]
fn unknown_target_is_not_swallowed_by_all() {
    rejected(
        &["--episodes", "1", "all", "nosuch"],
        "unknown target nosuch",
    );
}

#[test]
fn checkpoint_flags_need_a_checkpoint_dir() {
    rejected(
        &["--episodes", "1", "--resume", "robustness"],
        "--resume needs --checkpoint-dir",
    );
    rejected(
        &["--episodes", "1", "--checkpoint-every", "2", "robustness"],
        "--checkpoint-every needs --checkpoint-dir",
    );
}

#[test]
fn a_failed_csv_write_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("repro-csv-fail-{}", std::process::id()));
    // A directory where the CSV file should go makes the write fail.
    std::fs::create_dir_all(dir.join("serve_degradation.csv")).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--csv",
            dir.to_str().expect("utf-8 temp path"),
            "serve-bench",
        ])
        .output()
        .expect("repro runs");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        !out.status.success(),
        "a failed --csv write must fail the run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write"), "{stderr}");
}

#[test]
fn resuming_a_checkpoint_ahead_of_the_request_fails() {
    let dir = std::env::temp_dir().join(format!("repro-ckpt-ahead-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let trained = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--episodes",
            "10",
            "--checkpoint-dir",
            dir_arg,
            "robustness",
        ])
        .output()
        .expect("repro runs");
    assert!(trained.status.success(), "the 10-episode run must succeed");
    let resume = [
        "--episodes",
        "5",
        "--checkpoint-dir",
        dir_arg,
        "--resume",
        "robustness",
    ];
    rejected(&resume, "more than the 5 requested");
    std::fs::remove_dir_all(&dir).ok();
}
