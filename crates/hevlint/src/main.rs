//! CLI for the workspace linter.
//!
//! ```text
//! hevlint [--root PATH] [--format human|json] [--deny-all]
//!         [--strict-indexing] [--reach-hops N] [--list-rules]
//!         [--explain RULE]
//! ```
//!
//! Exit codes: 0 clean, 1 findings at the enforced level, 2 usage or
//! I/O error. `--deny-all` also fails on warn-level findings (CI mode);
//! the default only fails on deny-level findings.
//!
//! `--explain RULE` prints the rationale, a failing example, and the
//! expected fix for one rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hevlint::diagnostics::{findings_to_human, report_to_json, Severity};
use hevlint::rules::{explain, RULES};
use hevlint::{lint_workspace, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: hevlint [--root PATH] [--format human|json] [--deny-all] [--strict-indexing] [--reach-hops N] [--list-rules] [--explain RULE]";

struct Args {
    root: PathBuf,
    json: bool,
    deny_all: bool,
    strict_indexing: bool,
    reach_hops: u32,
    list_rules: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        deny_all: false,
        strict_indexing: false,
        reach_hops: Options::default().reach_hops,
        list_rules: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                args.root = PathBuf::from(v);
            }
            "--format" => match it.next().as_deref() {
                Some("human") => args.json = false,
                Some("json") => args.json = true,
                _ => return Err("--format needs `human` or `json`".to_string()),
            },
            "--deny-all" => args.deny_all = true,
            "--strict-indexing" => args.strict_indexing = true,
            "--reach-hops" => {
                let v = it.next().ok_or("--reach-hops needs a number")?;
                args.reach_hops = v
                    .parse()
                    .map_err(|_| format!("--reach-hops: `{v}` is not a number"))?;
            }
            "--list-rules" => args.list_rules = true,
            "--explain" => {
                let v = it.next().ok_or("--explain needs a rule id")?;
                args.explain = Some(v);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("hevlint: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for r in RULES {
            let opt = if r.opt_in { " (opt-in)" } else { "" };
            println!("{:<34} {:<5}{} {}", r.id, r.severity.as_str(), opt, r.desc);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(rule) = &args.explain {
        let Some(e) = explain(rule) else {
            eprintln!("hevlint: unknown rule `{rule}` (see --list-rules)");
            return ExitCode::from(2);
        };
        println!("{rule}\n");
        println!("{}\n", e.rationale);
        println!("Example (fails):\n{}", indent(e.example));
        println!("Fix:\n{}", indent(e.fix));
        return ExitCode::SUCCESS;
    }

    let opts = Options {
        strict_indexing: args.strict_indexing,
        reach_hops: args.reach_hops,
    };
    let report = lint_workspace(&args.root, &opts);

    if args.json {
        println!("{}", report_to_json(&report));
    } else {
        print!("{}", findings_to_human(&report.findings));
    }

    let denials = report.has_denials();
    let warns = report.findings.iter().any(|f| f.severity == Severity::Warn);
    eprintln!(
        "hevlint: {} file(s) scanned across {} crate(s), {} finding(s), {} suppressed by allow directives",
        report.files_scanned,
        report.crates,
        report.findings.len(),
        report.suppressed
    );
    if denials || (args.deny_all && warns) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Indents every line of `s` by four spaces for the --explain blocks.
fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect::<String>()
}
