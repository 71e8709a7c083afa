//! Finding type plus JSON and human renderers.
//!
//! JSON is emitted by hand (no serde): the schema is four strings and a
//! number per finding, and hand-rolling keeps the linter dependency-free
//! so it builds before anything else in a cold workspace.

use std::fmt::Write as _;

/// How a rule's findings are treated by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, but only fails the run under `--deny-all`.
    Warn,
    /// Violation: always fails the run.
    Deny,
}

impl Severity {
    /// Stable lowercase name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `panic::unwrap`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Effective severity.
    pub severity: Severity,
    /// One-sentence explanation of the violation.
    pub message: String,
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders findings as a JSON array (stable field order, sorted input
/// expected). This is the payload golden tests pin exactly.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (k, f) in findings.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"rule\":\"");
        json_escape(f.rule, &mut out);
        out.push_str("\",\"file\":\"");
        json_escape(&f.file, &mut out);
        let _ = write!(out, "\",\"line\":{},\"snippet\":\"", f.line);
        json_escape(&f.snippet, &mut out);
        out.push_str("\",\"severity\":\"");
        out.push_str(f.severity.as_str());
        out.push_str("\",\"message\":\"");
        json_escape(&f.message, &mut out);
        out.push_str("\"}");
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}

/// Renders the full machine-readable report (findings + summary).
/// Version 3 drops version 2's `baseline_suppressed` count along with
/// the findings baseline.
pub fn report_to_json(report: &crate::Report) -> String {
    let mut out = String::from("{\"version\":3,\"findings\":");
    out.push_str(&findings_to_json(&report.findings));
    let _ = write!(
        out,
        ",\"summary\":{{\"files_scanned\":{},\"crates\":{},\"findings\":{},\"suppressed\":{}}}}}",
        report.files_scanned,
        report.crates,
        report.findings.len(),
        report.suppressed
    );
    out
}

/// Renders findings as human-readable `file:line` lines.
pub fn findings_to_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}: [{}] {} ({})\n    {}",
            f.file,
            f.line,
            f.severity.as_str(),
            f.message,
            f.rule,
            f.snippet
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shapes() {
        let f = Finding {
            rule: "hygiene::print",
            file: "a/b.rs".into(),
            line: 3,
            snippet: "println!(\"x\\t\");".into(),
            severity: Severity::Deny,
            message: "no prints".into(),
        };
        let j = findings_to_json(&[f]);
        assert!(j.contains("\"rule\":\"hygiene::print\""));
        assert!(j.contains("\\\"x\\\\t\\\""));
        assert_eq!(findings_to_json(&[]), "[]");
    }

    #[test]
    fn report_wraps_summary() {
        let r = crate::Report {
            files_scanned: 12,
            crates: 9,
            suppressed: 3,
            ..crate::Report::default()
        };
        let j = report_to_json(&r);
        assert!(j.contains("\"version\":3"));
        assert!(j.contains("\"files_scanned\":12"));
        assert!(j.contains("\"crates\":9"));
        assert!(j.contains("\"suppressed\":3"));
        assert!(!j.contains("baseline"));
    }
}
