//! `hevlint` — a workspace-specific static analyzer for the HEV
//! joint-control codebase.
//!
//! The repo's core contract is bit-identical Q-tables and stdout at
//! every `--jobs` value, and a serve path that never panics on hostile
//! input. Runtime diff tests guard those contracts after the fact;
//! `hevlint` enforces the *source patterns* that break them — before
//! they run:
//!
//! - **determinism**: no `HashMap`/`HashSet` (hasher-dependent
//!   iteration), no wall-clock/entropy/environment reads outside the
//!   allowlisted harness/bench timing layer, and no library code that
//!   *calls into* such reads within two call-graph hops
//!   (`determinism::taint`);
//! - **panic-freedom**: no `unwrap`/`expect`/`panic!`/`unreachable!` in
//!   library non-test code, and nothing panic-capable reachable within
//!   N call-graph hops of a `hev-serve` request-handling entry point
//!   (`panic::reachable-from-serve`);
//! - **architecture**: the crate graph must respect the declared
//!   layering (`arch::layering`) — `hev-model` below `hev-control`
//!   below `hev-serve`, `hevlint`/`hev-trace` dependency-free,
//!   vendored stand-ins as leaves;
//! - **float discipline**: no exact `==`/`!=` against float literals,
//!   no lossy `as` casts in physics code;
//! - **hygiene**: no `dbg!`/`todo!`/leftover prints in libraries, no
//!   workspace-unreferenced `pub` items (`hygiene::dead-pub`), no
//!   undocumented `pub fn`s (`hygiene::missing-docs`);
//! - **headers**: uniform `#![forbid(unsafe_code)]` +
//!   `#![warn(missing_docs)]` crate roots.
//!
//! Since v2 the analysis is **flow-aware**: a lightweight item parser
//! recovers `fn` bodies, `use` roots, and visibility; the workspace
//! model reads every `Cargo.toml`; and a name-based call graph powers
//! the reachability and taint rules. Deliberate exceptions are
//! declared in-place with `// hevlint::allow(rule, reason)`, and a
//! committed findings baseline (`--baseline`) supports incremental
//! adoption. See DESIGN.md ("Static analysis") for the rule table and
//! the approximation limits.
//!
//! Run it with `cargo run -p hevlint -- --deny-all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod diagnostics;
pub mod directives;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod workspace;

use diagnostics::{Finding, Severity};
use parser::Visibility;
use rules::{FileContext, Role};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Linter options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Enable the opt-in `panic::indexing` rule.
    pub strict_indexing: bool,
    /// Call-graph hop budget for `panic::reachable-from-serve`.
    pub reach_hops: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            strict_indexing: false,
            reach_hops: 2,
        }
    }
}

/// Result of linting a tree: findings plus scan counters.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of workspace crates discovered (manifests parsed).
    pub crates: usize,
    /// Findings suppressed by allow directives.
    pub suppressed: usize,
    /// Findings suppressed by the loaded baseline (set by the CLI).
    pub baseline_suppressed: usize,
}

impl Report {
    /// True when any finding is deny-severity.
    pub fn has_denials(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Deny)
    }
}

/// Derives the role of a file from its workspace-relative path.
///
/// The harness/bench/tooling layer — `crates/bench` (experiment runner,
/// prints reports, measures wall-clock), `crates/core/src/harness`
/// (timing + run-log layer), `crates/hevlint` itself (a CLI tool),
/// `crates/hev-trace/src/sink.rs` (the telemetry file writer, the one
/// hev-trace module allowed to touch the clock and filesystem),
/// `crates/hev-trace/src/wallclock.rs` (the span profiler's optional
/// wall-clock lane: the one module that installs a nanosecond hook —
/// the span module itself reads no machine state), and
/// `crates/hev-serve/src/driver.rs` (the serve-bench driver, the one
/// hev-serve module that times wall-clock throughput) — is exempt from
/// the wall-clock/env/print rules; everything else is library code.
pub fn role_for(rel_path: &str) -> Role {
    let p = rel_path.replace('\\', "/");
    if p.starts_with("crates/bench/")
        || p.starts_with("crates/hevlint/")
        || p.contains("/harness/")
        || p == "crates/hev-trace/src/sink.rs"
        || p == "crates/hev-trace/src/wallclock.rs"
        || p == "crates/hev-serve/src/driver.rs"
    {
        Role::Harness
    } else {
        Role::Library
    }
}

/// Everything the workspace passes need from one analyzed file.
struct FileAnalysis {
    rel: String,
    lines: Vec<String>,
    tokens: Vec<lexer::Token>,
    items: parser::ParsedItems,
    ctx: FileContext,
    local_findings: Vec<Finding>,
    directives: Vec<directives::Directive>,
    directive_findings: Vec<Finding>,
}

fn analyze_source(rel_path: &str, src: &str, opts: &Options) -> FileAnalysis {
    let out = lexer::lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let ctx = FileContext {
        rel_path: rel_path.to_string(),
        role: role_for(rel_path),
        is_crate_root: rel_path.replace('\\', "/").ends_with("src/lib.rs"),
        strict_indexing: opts.strict_indexing,
    };
    let local_findings = rules::check(&out.tokens, &ctx, &lines);
    let parsed = directives::parse(
        &out.comments,
        &out.tokens,
        rel_path,
        &lines,
        rules::known_rule,
    );
    let tmask = rules::test_mask(&out.tokens);
    let items = parser::parse_items(&out.tokens, &out.comments, &tmask);
    FileAnalysis {
        rel: rel_path.to_string(),
        lines: lines.into_iter().map(|l| l.to_string()).collect(),
        tokens: out.tokens,
        items,
        ctx,
        local_findings,
        directives: parsed.directives,
        directive_findings: parsed.findings,
    }
}

/// Lints one source string with the per-file (lexical) rules only.
/// `rel_path` decides the role and whether the crate-root header rule
/// applies. The workspace rules (`arch::*`, `panic::reachable-from-
/// serve`, `determinism::taint`, `hygiene::dead-pub`/`missing-docs`)
/// need the whole tree and run in [`lint_workspace`].
pub fn lint_source(rel_path: &str, src: &str, opts: &Options) -> (Vec<Finding>, usize) {
    let mut fa = analyze_source(rel_path, src, opts);
    let line_refs: Vec<&str> = fa.lines.iter().map(|s| s.as_str()).collect();
    let (mut kept, suppressed) =
        directives::suppress(&mut fa.directives, fa.local_findings.split_off(0));
    kept.extend(directives::stale(&fa.directives, rel_path, &line_refs));
    kept.append(&mut fa.directive_findings);
    kept.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (kept, suppressed)
}

/// Directory names never descended into: build output, vendored
/// stand-ins, and test/bench/example/fixture code (the rules target
/// library and harness *source*; test code is exempt by design).
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "tests", "benches", "examples", "fixtures", ".git",
];

fn collect_rs(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if skip.contains(&name) {
                continue;
            }
            collect_rs(&p, skip, out);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

/// Directories excluded from the *reference corpus* (the ident pool
/// `hygiene::dead-pub` counts usages in). Unlike the lint walk, tests,
/// benches, and examples DO count as references — an item a test
/// exercises is not dead — but deliberately-violating fixtures and
/// build output never do.
const REFERENCE_SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", "golden", ".git"];

/// Names that are never reported dead: binary entry points and the
/// umbrella crate's conventional re-export module.
const DEAD_PUB_EXEMPT: &[&str] = &["main", "prelude"];

/// Lints every `.rs` file under `root`'s `crates/` and `src/` trees
/// (skipping `target/`, `vendor/`, tests, benches, examples,
/// fixtures), then runs the workspace passes: crate layering over the
/// `Cargo.toml` graph, serve-reachability and determinism taint over
/// the call graph, and the public-API audit against a reference
/// corpus that includes tests/benches/examples.
pub fn lint_workspace(root: &Path, opts: &Options) -> Report {
    let ws = workspace::Workspace::discover(root);
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        collect_rs(&root.join(top), SKIP_DIRS, &mut files);
    }

    let mut report = Report {
        crates: ws.crates.len(),
        ..Report::default()
    };
    let mut analyses: Vec<FileAnalysis> = Vec::new();
    for path in files {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        report.files_scanned += 1;
        analyses.push(analyze_source(&rel, &src, opts));
    }

    // ---- Workspace passes ------------------------------------------------
    let snippets: BTreeMap<&str, &[String]> = analyses
        .iter()
        .map(|fa| (fa.rel.as_str(), fa.lines.as_slice()))
        .collect();
    let snippet = |file: &str, line: u32| -> String {
        snippets
            .get(file)
            .and_then(|ls| ls.get((line as usize).saturating_sub(1)))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    let mut ws_findings: Vec<Finding> = ws.layering_findings();
    let mut graph = callgraph::Graph::default();
    for fa in &analyses {
        ws_findings.extend(ws.use_findings(&fa.rel, &fa.items.uses, |l| snippet(&fa.rel, l)));
        let crate_name = ws
            .crate_for_file(&fa.rel)
            .map(|c| c.name.clone())
            .unwrap_or_default();
        let amask = rules::attr_mask(&fa.tokens);
        graph.add_file(
            &fa.rel,
            &crate_name,
            fa.ctx.role,
            &fa.items.fns,
            &fa.tokens,
            &amask,
        );
    }
    ws_findings.extend(graph.reachability_findings(opts.reach_hops, snippet));
    ws_findings.extend(graph.taint_findings(snippet));
    ws_findings.extend(pub_audit(&analyses, root));

    // ---- Directive application (local + workspace findings together) ----
    // Staleness is only decided after BOTH passes, so a family-prefix
    // allow consumed by any member rule — including workspace-pass
    // members like `panic::reachable-from-serve` — is never reported
    // stale.
    let mut per_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in ws_findings {
        // Manifest findings have no host file to carry directives;
        // they go straight to the report.
        if f.file.ends_with("Cargo.toml") {
            report.findings.push(f);
        } else {
            per_file.entry(f.file.clone()).or_default().push(f);
        }
    }
    for fa in &mut analyses {
        let mut all = fa.local_findings.split_off(0);
        if let Some(extra) = per_file.remove(fa.rel.as_str()) {
            all.extend(extra);
        }
        let (mut kept, suppressed) = directives::suppress(&mut fa.directives, all);
        let line_refs: Vec<&str> = fa.lines.iter().map(|s| s.as_str()).collect();
        kept.extend(directives::stale(&fa.directives, &fa.rel, &line_refs));
        kept.append(&mut fa.directive_findings);
        report.suppressed += suppressed;
        report.findings.extend(kept);
    }
    // Workspace findings whose file was not scanned (shouldn't happen,
    // but never silently drop a finding).
    for (_, extra) in per_file {
        report.findings.extend(extra);
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// The public-API audit: `hygiene::dead-pub` (plain-pub items nothing
/// else in the workspace references, tests included) and
/// `hygiene::missing-docs` (plain-pub fns without a doc comment).
fn pub_audit(analyses: &[FileAnalysis], root: &Path) -> Vec<Finding> {
    // Reference corpus: every ident of every .rs file under root
    // (tests/benches/examples included; fixtures/vendor/target not),
    // keyed by name → files containing it.
    let mut corpus_files = Vec::new();
    collect_rs(root, REFERENCE_SKIP_DIRS, &mut corpus_files);
    let mut refs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for path in &corpus_files {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        for t in lexer::lex(&src).tokens {
            if let Some(id) = t.kind.ident() {
                refs.entry(id.to_string()).or_default().insert(rel.clone());
            }
        }
    }

    let mut out = Vec::new();
    for fa in analyses {
        let line = |l: u32| {
            fa.lines
                .get((l as usize).saturating_sub(1))
                .map(|s: &String| s.trim().to_string())
                .unwrap_or_default()
        };
        let dead = |name: &str| {
            !DEAD_PUB_EXEMPT.contains(&name)
                && refs
                    .get(name)
                    .map(|files| files.iter().all(|f| *f == fa.rel))
                    .unwrap_or(true)
        };
        for f in &fa.items.fns {
            if f.in_test || f.vis != Visibility::Public {
                continue;
            }
            if dead(&f.name) {
                out.push(Finding {
                    rule: "hygiene::dead-pub",
                    file: fa.rel.clone(),
                    line: f.line,
                    snippet: line(f.line),
                    severity: Severity::Warn,
                    message: format!(
                        "pub fn `{}` is referenced nowhere else in the workspace (tests included); make it private or remove it",
                        f.name
                    ),
                });
            }
            if !f.has_doc {
                out.push(Finding {
                    rule: "hygiene::missing-docs",
                    file: fa.rel.clone(),
                    line: f.line,
                    snippet: line(f.line),
                    severity: Severity::Warn,
                    message: format!("pub fn `{}` has no doc comment", f.name),
                });
            }
        }
        for n in &fa.items.named {
            if n.in_test || n.vis != Visibility::Public {
                continue;
            }
            // A `pub mod` is namespace organization: its items are
            // typically reached through root re-exports, so the module
            // name itself appearing nowhere else is not dead code.
            if n.kind == "mod" {
                continue;
            }
            if dead(&n.name) {
                out.push(Finding {
                    rule: "hygiene::dead-pub",
                    file: fa.rel.clone(),
                    line: n.line,
                    snippet: line(n.line),
                    severity: Severity::Warn,
                    message: format!(
                        "pub {} `{}` is referenced nowhere else in the workspace (tests included); make it private or remove it",
                        n.kind, n.name
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_by_path() {
        assert_eq!(role_for("crates/bench/src/profile.rs"), Role::Harness);
        assert_eq!(role_for("crates/core/src/harness/mod.rs"), Role::Harness);
        assert_eq!(role_for("crates/hevlint/src/main.rs"), Role::Harness);
        assert_eq!(role_for("crates/hev-trace/src/sink.rs"), Role::Harness);
        assert_eq!(role_for("crates/hev-trace/src/wallclock.rs"), Role::Harness);
        assert_eq!(role_for("crates/hev-trace/src/registry.rs"), Role::Library);
        assert_eq!(role_for("crates/hev-trace/src/span.rs"), Role::Library);
        assert_eq!(role_for("crates/hev-serve/src/driver.rs"), Role::Harness);
        assert_eq!(role_for("crates/hev-serve/src/service.rs"), Role::Library);
        assert_eq!(role_for("crates/core/src/sim.rs"), Role::Library);
        assert_eq!(role_for("src/lib.rs"), Role::Library);
    }

    #[test]
    fn allow_directive_suppresses_one_line() {
        let src = "\
fn f(o: Option<u32>) -> u32 {
    // hevlint::allow(panic::unwrap, demo invariant)
    let a = o.unwrap();
    let b = o.unwrap();
    a + b
}
";
        let (findings, suppressed) = lint_source("crates/x/src/f.rs", src, &Options::default());
        assert_eq!(suppressed, 1);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn dogfood_own_sources_are_clean() {
        // The linter must pass over its own crate (harness role).
        for (name, src) in [
            ("crates/hevlint/src/lib.rs", include_str!("lib.rs")),
            ("crates/hevlint/src/lexer.rs", include_str!("lexer.rs")),
            ("crates/hevlint/src/parser.rs", include_str!("parser.rs")),
            ("crates/hevlint/src/rules.rs", include_str!("rules.rs")),
            (
                "crates/hevlint/src/workspace.rs",
                include_str!("workspace.rs"),
            ),
            (
                "crates/hevlint/src/callgraph.rs",
                include_str!("callgraph.rs"),
            ),
            (
                "crates/hevlint/src/baseline.rs",
                include_str!("baseline.rs"),
            ),
            (
                "crates/hevlint/src/directives.rs",
                include_str!("directives.rs"),
            ),
            (
                "crates/hevlint/src/diagnostics.rs",
                include_str!("diagnostics.rs"),
            ),
            ("crates/hevlint/src/main.rs", include_str!("main.rs")),
        ] {
            let (findings, _) = lint_source(name, src, &Options::default());
            assert!(findings.is_empty(), "{name} has findings: {:?}", findings);
        }
    }
}
