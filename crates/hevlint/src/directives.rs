//! The `// hevlint::allow(rule, reason)` suppression directive.
//!
//! A directive suppresses findings of `rule` (a full rule id like
//! `panic::unwrap`, or a whole family like `panic`) on exactly one line:
//! the directive's own line when it trails code, otherwise the next line
//! that contains any token. The reason is mandatory — an exception
//! without a justification is itself a violation — and a directive that
//! suppresses nothing is reported so stale exceptions can't accumulate.

use crate::diagnostics::{Finding, Severity};
use crate::lexer::{Comment, Token};

/// A parsed, well-formed allow directive.
#[derive(Debug, Clone)]
pub struct Directive {
    /// Rule id or family name the directive applies to.
    pub rule: String,
    /// Mandatory human justification.
    pub reason: String,
    /// Line the directive comment starts on.
    pub comment_line: u32,
    /// Line whose findings it suppresses.
    pub target_line: u32,
    /// Set when the directive suppressed at least one finding.
    pub used: bool,
}

/// Directive parse results: well-formed directives plus findings for
/// malformed ones.
#[derive(Debug, Default)]
pub(crate) struct Directives {
    /// Well-formed directives, in source order.
    pub directives: Vec<Directive>,
    /// `directive::malformed` / `directive::unknown-rule` findings.
    pub findings: Vec<Finding>,
}

const MARKER: &str = "hevlint::allow";

/// Extracts directives from comments. `known_rule` reports whether a
/// rule id or family name exists, so typos are caught at the directive.
pub(crate) fn parse(
    comments: &[Comment],
    tokens: &[Token],
    file: &str,
    lines: &[&str],
    known_rule: impl Fn(&str) -> bool,
) -> Directives {
    let mut out = Directives::default();
    for c in comments {
        // Directives live in plain `//` / `/* */` comments only: doc
        // comments *describing* the syntax must not activate it.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = c.text.find(MARKER) else {
            continue;
        };
        let snippet = snippet_at(lines, c.line);
        let rest = &c.text[pos + MARKER.len()..];
        let parsed = parse_args(rest);
        let (rule, reason) = match parsed {
            Some(rr) => rr,
            None => {
                out.findings.push(Finding {
                    rule: "directive::malformed",
                    file: file.to_string(),
                    line: c.line,
                    snippet,
                    severity: Severity::Deny,
                    message: format!(
                        "malformed directive; expected `// {MARKER}(rule, reason)` with a non-empty reason"
                    ),
                });
                continue;
            }
        };
        if !known_rule(&rule) {
            out.findings.push(Finding {
                rule: "directive::unknown-rule",
                file: file.to_string(),
                line: c.line,
                snippet,
                severity: Severity::Deny,
                message: format!("directive names unknown rule `{rule}`"),
            });
            continue;
        }
        let target_line = if c.has_code_before {
            c.line
        } else {
            tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.line)
                .unwrap_or(c.line)
        };
        out.directives.push(Directive {
            rule,
            reason,
            comment_line: c.line,
            target_line,
            used: false,
        });
    }
    out
}

/// Parses `(rule, reason…)` after the marker. Returns `None` when the
/// parens are missing/unclosed, the rule is empty, or the reason is
/// empty.
fn parse_args(rest: &str) -> Option<(String, String)> {
    let rest = rest.trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.rfind(')')?;
    let inner = &inner[..close];
    let (rule, reason) = inner.split_once(',')?;
    let rule = rule.trim();
    let reason = reason.trim();
    if rule.is_empty() || reason.is_empty() {
        return None;
    }
    Some((rule.to_string(), reason.to_string()))
}

/// True when `directive_rule` (id or family) covers `finding_rule`.
fn covers(directive_rule: &str, finding_rule: &str) -> bool {
    finding_rule == directive_rule
        || finding_rule
            .strip_prefix(directive_rule)
            .is_some_and(|rest| rest.starts_with("::"))
}

/// Removes findings covered by a directive on their line, marking the
/// directive used. Callable more than once (e.g. once for the local
/// pass and once for workspace-pass findings); staleness is reported
/// separately by [`stale`] only after every pass has run, so a
/// family-prefix allow consumed by *any* member rule — including a
/// workspace rule — is never reported stale.
pub fn suppress(directives: &mut [Directive], findings: Vec<Finding>) -> (Vec<Finding>, usize) {
    let mut kept = Vec::with_capacity(findings.len());
    let mut suppressed = 0usize;
    for f in findings {
        let mut hit = false;
        for d in directives.iter_mut() {
            if d.target_line == f.line && covers(&d.rule, f.rule) {
                d.used = true;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            kept.push(f);
        }
    }
    (kept, suppressed)
}

/// Reports directives that suppressed nothing across all passes as
/// `directive::unused-allow` warnings.
pub fn stale(directives: &[Directive], file: &str, lines: &[&str]) -> Vec<Finding> {
    directives
        .iter()
        .filter(|d| !d.used)
        .map(|d| Finding {
            rule: "directive::unused-allow",
            file: file.to_string(),
            line: d.comment_line,
            snippet: snippet_at(lines, d.comment_line),
            severity: Severity::Warn,
            message: format!(
                "directive for `{}` suppresses nothing (targets line {})",
                d.rule, d.target_line
            ),
        })
        .collect()
}

/// The trimmed source line at 1-based `line` (empty if out of range).
pub fn snippet_at(lines: &[&str], line: u32) -> String {
    lines
        .get((line as usize).saturating_sub(1))
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    #[test]
    fn parses_rule_and_reason() {
        assert_eq!(
            parse_args("(panic::unwrap, documented invariant)"),
            Some(("panic::unwrap".into(), "documented invariant".into()))
        );
        assert_eq!(parse_args("(panic::unwrap)"), None);
        assert_eq!(parse_args("(panic::unwrap, )"), None);
        assert_eq!(parse_args("panic::unwrap, x"), None);
    }

    #[test]
    fn family_coverage() {
        assert!(covers("panic", "panic::unwrap"));
        assert!(covers("panic::unwrap", "panic::unwrap"));
        assert!(!covers("panic::unwrap", "panic::expect"));
        assert!(!covers("pan", "panic::unwrap"));
    }

    #[test]
    fn trailing_comment_targets_its_own_line() {
        let src = "let x = 1; // hevlint::allow(panic::unwrap, trailing)\nlet y;\n";
        let out = lexer::lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let d = parse(&out.comments, &out.tokens, "f.rs", &lines, |_| true);
        assert_eq!(d.directives.len(), 1);
        assert_eq!(d.directives[0].target_line, 1);
    }

    #[test]
    fn standalone_comment_targets_next_code_line() {
        let src = "// hevlint::allow(panic::unwrap, below)\n\nlet y = 1;\n";
        let out = lexer::lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let d = parse(&out.comments, &out.tokens, "f.rs", &lines, |_| true);
        assert_eq!(d.directives[0].target_line, 3);
    }
}
