//! End-to-end output pin: the stdout of `repro --episodes 4 --jobs 1
//! all` (every paper target, the ablations and robustness at a small
//! budget; `all` leaves out serve-bench and profile) as one FNV-1a
//! fingerprint. A change that deletes code without changing behaviour
//! must leave it untouched; a change that moves it is a deliberate
//! re-bless.

use std::process::Command;

/// FNV-1a (64-bit) of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn repro_all_at_four_episodes_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--episodes", "4", "--jobs", "1", "all"])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "repro all must succeed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 125, "{stdout}");
    assert_eq!(fnv1a(&out.stdout), 0x6d7b_e3a4_6478_adbd, "{stdout}");
}
