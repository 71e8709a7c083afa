//! Workspace-pass integration tests.
//!
//! Each `tests/fixtures/ws/<name>` tree is a miniature cargo workspace
//! (umbrella manifest + member crates) seeded with deliberate
//! violations for exactly one v2 rule family. The findings are pinned
//! to exact JSON goldens under `tests/golden/ws_<name>.json`; as with
//! the per-file goldens, `HEVLINT_BLESS=1` regenerates them after a
//! deliberate rule change.
//!
//! The dogfood test at the bottom runs the full workspace pass over
//! this repository itself and asserts it has no findings at all.

use hevlint::diagnostics::findings_to_json;
use hevlint::rules::{explain, known_rule, Explain, RuleInfo, RULES};
use hevlint::workspace::{allowed_deps, CrateInfo, Dep, Workspace};
use hevlint::{lint_workspace, Options, Report};
use std::path::{Path, PathBuf};

fn ws_fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/ws")
        .join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Compares a report's findings against `tests/golden/<golden>`,
/// blessing instead when `HEVLINT_BLESS=1` is set.
fn check_golden(golden: &str, report: &Report) {
    let actual = findings_to_json(&report.findings);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    if std::env::var_os("HEVLINT_BLESS").is_some() {
        std::fs::write(&path, format!("{actual}\n"))
            .unwrap_or_else(|e| panic!("cannot bless {golden}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("golden {golden} unreadable ({e}); run with HEVLINT_BLESS=1 to create it")
    });
    assert_eq!(
        actual,
        expected.trim_end_matches('\n'),
        "{golden}: workspace diagnostics drifted (HEVLINT_BLESS=1 regenerates after a deliberate change)"
    );
}

/// `arch::layering`: the fixture's `hev-model` declares and uses a
/// dependency on `hev-control`, which the layering table forbids. The
/// manifest edge and one `use` are reported; a second `use` sits under
/// a family-prefix allow and must count as suppressed — and, because
/// that allow is consumed only by a workspace-pass rule, it must NOT be
/// reported as `directive::unused-allow` (the regression this fixture
/// pins).
#[test]
fn ws_layering_violation_and_family_allow() {
    let report = lint_workspace(&ws_fixture("layering"), &Options::default());
    assert_eq!(report.crates, 3, "umbrella + 2 members");
    assert_eq!(report.files_scanned, 2);
    assert_eq!(
        report.suppressed, 1,
        "family allow consumed by arch::layering"
    );
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == "directive::unused-allow"),
        "allow consumed by a workspace rule reported stale: {:?}",
        report.findings
    );
    check_golden("ws_layering.json", &report);
}

/// `panic::reachable-from-serve`: panic sites one and two hops below a
/// serve-crate entry are reported; a three-hop site is outside the
/// default budget (its local `panic::macro` still fires), and a
/// depth-0 computed index in the serve entry itself is reported.
#[test]
fn ws_reach_panic_paths() {
    let report = lint_workspace(&ws_fixture("reach"), &Options::default());
    assert_eq!(report.crates, 3);
    assert_eq!(
        report.suppressed, 2,
        "family allow consumes the local panic::unwrap AND the reachability finding on the same line"
    );
    check_golden("ws_reach.json", &report);
}

/// Raising the hop budget pulls the three-hop panic site into range —
/// the CLI exposes this as `--reach-hops`.
#[test]
fn ws_reach_hop_budget_extends_range() {
    let opts = Options {
        reach_hops: 3,
        ..Options::default()
    };
    let deep = lint_workspace(&ws_fixture("reach"), &opts);
    let default = lint_workspace(&ws_fixture("reach"), &Options::default());
    let count = |r: &Report| {
        r.findings
            .iter()
            .filter(|f| f.rule == "panic::reachable-from-serve")
            .count()
    };
    assert!(
        count(&deep) > count(&default),
        "3-hop budget should reach the panic! in `deeper` (default {}, deep {})",
        count(&default),
        count(&deep)
    );
}

/// `determinism::taint`: library fns calling a harness clock source
/// directly, through one hop, and through two hops are all reported;
/// harness callers of the same fns are not.
#[test]
fn ws_taint_propagation() {
    let report = lint_workspace(&ws_fixture("taint"), &Options::default());
    assert_eq!(report.crates, 3);
    let taints: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "determinism::taint")
        .collect();
    assert!(
        taints.iter().all(|f| f.file.contains("crates/core")),
        "taint must only fire in library code: {taints:?}"
    );
    check_golden("ws_taint.json", &report);
}

/// `hygiene::dead-pub` / `hygiene::missing-docs`: exports referenced
/// nowhere else in the corpus are dead; `main`, test-only items, and
/// referenced exports are exempt. A `let` or `let mut` binding, a `fn`
/// parameter or a closure parameter of the same name is no reference.
#[test]
fn ws_deadpub_audit() {
    let report = lint_workspace(&ws_fixture("deadpub"), &Options::default());
    let dead: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "hygiene::dead-pub")
        .map(|f| f.snippet.as_str())
        .collect();
    assert!(
        dead.iter().any(|s| s.contains("dead_helper")),
        "dead_helper should be flagged: {dead:?}"
    );
    assert!(
        !dead.iter().any(|s| s.contains("used_helper")),
        "used_helper is referenced from main.rs: {dead:?}"
    );
    assert!(
        dead.iter().any(|s| s.contains("pub fn off")),
        "main.rs only binds a local named off: {dead:?}"
    );
    assert!(
        dead.iter().any(|s| s.contains("pub fn gain")),
        "main.rs only declares a parameter named gain: {dead:?}"
    );
    assert!(
        dead.iter().any(|s| s.contains("pub fn step")),
        "main.rs only declares a closure parameter named step: {dead:?}"
    );
    check_golden("ws_deadpub.json", &report);
}

/// Every registered rule ships an `--explain` entry with all three
/// sections filled in, and `known_rule` agrees with the registry.
#[test]
fn every_rule_has_a_complete_explain_entry() {
    for rule in RULES {
        let info: &RuleInfo = rule;
        assert!(known_rule(info.id), "{} not known to known_rule", info.id);
        let e: Explain =
            explain(info.id).unwrap_or_else(|| panic!("rule {} has no --explain entry", info.id));
        assert!(!e.rationale.is_empty(), "{}: empty rationale", info.id);
        assert!(!e.example.is_empty(), "{}: empty example", info.id);
        assert!(!e.fix.is_empty(), "{}: empty fix", info.id);
    }
    assert!(!known_rule("no::such-rule"));
}

/// The manifest model exposed by `workspace`: discovery finds the
/// fixture members, `crate_by_ident` resolves `use`-path roots, and the
/// layering table pins the leaf crates.
#[test]
fn workspace_model_resolves_fixture_crates() {
    let ws = Workspace::discover(&ws_fixture("layering"));
    let model: &CrateInfo = ws
        .crate_by_ident("hev_model")
        .expect("hev-model resolves from its use-path ident");
    assert_eq!(model.dir, "crates/hev-model");
    let dep: &Dep = model
        .deps
        .iter()
        .find(|d| d.name == "hev-control")
        .expect("fixture declares the forbidden dependency");
    assert!(dep.line > 0);
    assert_eq!(allowed_deps("hevlint"), Some(&[][..]));
    assert!(allowed_deps("ws-layering-umbrella").is_none());
}

/// Dogfood: the real workspace lints clean under the default options:
/// no finding of any severity. There is no baseline of tolerated
/// findings, so a new one is fixed at its source or carries an in-source
/// `hevlint::allow` directive with its reason.
#[test]
fn dogfood_real_workspace_has_no_findings() {
    let report = lint_workspace(&repo_root(), &Options::default());
    assert!(report.files_scanned > 50, "workspace walk looks broken");
    assert!(
        report.findings.is_empty(),
        "findings in the workspace: {:#?}",
        report.findings
    );
}
