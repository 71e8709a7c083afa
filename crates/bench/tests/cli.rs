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
