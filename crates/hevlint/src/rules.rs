//! Rule registry and the token-stream checks for every rule family.
//!
//! Rules operate on the flat token stream from [`crate::lexer`], so they
//! are *lexical*: deliberately narrow patterns with near-zero false
//! positives rather than full type-aware analysis. Each rule documents
//! exactly what it matches; what a lexical pass cannot see (e.g. `a == b`
//! on two `f64` variables) is out of scope and noted in DESIGN.md.

use crate::diagnostics::{Finding, Severity};
use crate::directives::snippet_at;
use crate::lexer::{Token, TokenKind};

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library code: every rule applies.
    Library,
    /// The allowlisted harness/bench/tooling timing layer: wall-clock,
    /// environment reads, and report printing are part of the job here,
    /// so the `determinism::wall-clock`, `determinism::env-read`, and
    /// `hygiene::print` rules are waived. All other rules still apply.
    Harness,
}

/// Per-file context a lint pass needs.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Library or harness role (derived from the path).
    pub role: Role,
    /// True for `src/lib.rs` crate roots (headers rule).
    pub is_crate_root: bool,
    /// Lint `panic::indexing` too (opt-in; see [`RULES`]).
    pub strict_indexing: bool,
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id, `family::name`.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// True when the rule only runs under an opt-in flag.
    pub opt_in: bool,
    /// One-line description for `--list-rules` and docs.
    pub desc: &'static str,
}

/// Every rule the linter knows, in stable order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "determinism::hash-collection",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no HashMap/HashSet: iteration order depends on hasher state; use BTreeMap/BTreeSet or sorted iteration",
    },
    RuleInfo {
        id: "determinism::wall-clock",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no Instant/SystemTime/thread_rng/from_entropy outside the harness/bench timing layer",
    },
    RuleInfo {
        id: "determinism::env-read",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no std::env reads (env::var, env!, option_env!) outside the harness/bench layer",
    },
    RuleInfo {
        id: "panic::unwrap",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no .unwrap() in library non-test code; propagate a typed error or document the invariant",
    },
    RuleInfo {
        id: "panic::expect",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no .expect() in library non-test code; propagate a typed error or document the invariant",
    },
    RuleInfo {
        id: "panic::macro",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no panic!/unreachable! in library non-test code (assert! is allowed: it states an invariant)",
    },
    RuleInfo {
        id: "panic::indexing",
        severity: Severity::Deny,
        opt_in: true,
        desc: "(opt-in: --strict-indexing) no bracket indexing/slicing; use .get()/.get_mut()",
    },
    RuleInfo {
        id: "float::eq",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no ==/!= against a float literal; compare with a tolerance or justify the exact sentinel",
    },
    RuleInfo {
        id: "float::lossy-cast",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no `as f32`, float-literal `as <int>`, or .ceil()/.floor()/.round()/.trunc() `as <int>`",
    },
    RuleInfo {
        id: "hygiene::print",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no print!/println!/eprint!/eprintln! in library code (harness/report layer is exempt)",
    },
    RuleInfo {
        id: "hygiene::dbg",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no dbg! anywhere",
    },
    RuleInfo {
        id: "hygiene::todo",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no todo!/unimplemented! in committed code",
    },
    RuleInfo {
        id: "headers::crate-lints",
        severity: Severity::Deny,
        opt_in: false,
        desc: "crate roots (src/lib.rs) must carry #![forbid(unsafe_code)] and #![warn(missing_docs)]",
    },
    RuleInfo {
        id: "arch::layering",
        severity: Severity::Deny,
        opt_in: false,
        desc: "crate dependencies must respect the declared layering (hev-model below hev-control below hev-serve; hevlint and hev-trace depend on nothing; vendored crates are leaves)",
    },
    RuleInfo {
        id: "panic::reachable-from-serve",
        severity: Severity::Deny,
        opt_in: false,
        desc: "no unwrap/expect/panic!/unreachable!/indexing reachable within N call-graph hops of a hev-serve request-handling entry point",
    },
    RuleInfo {
        id: "determinism::taint",
        severity: Severity::Deny,
        opt_in: false,
        desc: "library code must not call (within 2 hops) a function whose body reads wall-clock/entropy/environment or iterates a hash collection",
    },
    RuleInfo {
        id: "hygiene::dead-pub",
        severity: Severity::Warn,
        opt_in: false,
        desc: "a plain-pub item referenced nowhere else in the workspace (tests included) should be private or removed",
    },
    RuleInfo {
        id: "hygiene::missing-docs",
        severity: Severity::Warn,
        opt_in: false,
        desc: "every plain-pub fn carries a doc comment (extends rustc missing_docs into private modules)",
    },
    RuleInfo {
        id: "directive::malformed",
        severity: Severity::Deny,
        opt_in: false,
        desc: "a hevlint::allow directive must parse as (rule, reason) with a non-empty reason",
    },
    RuleInfo {
        id: "directive::unknown-rule",
        severity: Severity::Deny,
        opt_in: false,
        desc: "a hevlint::allow directive must name an existing rule or rule family",
    },
    RuleInfo {
        id: "directive::unused-allow",
        severity: Severity::Warn,
        opt_in: false,
        desc: "a hevlint::allow directive that suppresses nothing is stale and must be removed",
    },
];

/// True when `name` is a rule id or a family prefix of one.
pub fn known_rule(name: &str) -> bool {
    RULES.iter().any(|r| {
        r.id == name
            || r.id
                .strip_prefix(name)
                .is_some_and(|rest| rest.starts_with("::"))
    })
}

/// Long-form documentation for one rule: rationale, a minimal
/// violating example, and the expected fix. Printed by `--explain`.
#[derive(Debug, Clone, Copy)]
pub struct Explain {
    /// Why the rule exists in *this* workspace.
    pub rationale: &'static str,
    /// A minimal violating example.
    pub example: &'static str,
    /// How violations are expected to be fixed.
    pub fix: &'static str,
}

/// Returns the `--explain` text for a rule id, if the rule exists.
pub fn explain(id: &str) -> Option<Explain> {
    let e = match id {
        "determinism::hash-collection" => Explain {
            rationale: "HashMap/HashSet iteration order depends on the hasher's per-process seed, so any serialization, reduction, or tie-break that walks one diverges between runs and breaks the bit-identical --jobs contract.",
            example: "let mut m: HashMap<State, f64> = HashMap::new();\nfor (k, v) in &m { write(k, v); }",
            fix: "Use BTreeMap/BTreeSet (ordered, deterministic) or collect-and-sort before iterating.",
        },
        "determinism::wall-clock" => Explain {
            rationale: "Instant/SystemTime/thread_rng/from_entropy read machine state, so two runs of the same seed can diverge; only the harness/bench timing layer is allowed to measure wall time.",
            example: "let t0 = Instant::now(); // in crates/hev-model",
            fix: "Thread time/randomness in as explicit parameters (seeded RNG, virtual eval-count time), or move the measurement into the harness layer.",
        },
        "determinism::env-read" => Explain {
            rationale: "Environment reads make a run's output a function of the host, which silently breaks reproduction of the paper's tables across machines and CI.",
            example: "let jobs = std::env::var(\"JOBS\").ok();",
            fix: "Accept configuration through function parameters or CLI flags parsed in the harness layer.",
        },
        "determinism::taint" => Explain {
            rationale: "The local wall-clock/env rules are waived inside the harness role, but a library function that *calls into* that waived code inherits its nondeterminism; the call-graph pass propagates source taint one-two hops so the waiver cannot leak back into library code.",
            example: "// crates/hev-model (library role)\nfn step() { let dt = bench_timer_elapsed(); } // bench_timer_elapsed reads Instant",
            fix: "Invert the dependency: let the harness measure and pass results down, or move the caller into the harness role with a justified allow.",
        },
        "panic::unwrap" => Explain {
            rationale: "A panicking control path aborts the whole episode and, on the serve path, a whole session shard; library code must degrade through typed errors instead.",
            example: "let gear = table.get(&state).unwrap();",
            fix: "Propagate a typed error (?, let-else) or, for a proven invariant, keep the unwrap with `// hevlint::allow(panic::unwrap, <why it cannot fail>)`.",
        },
        "panic::expect" => Explain {
            rationale: "Same failure mode as panic::unwrap: .expect() turns a recoverable condition into an abort; the message string does not make the abort safer.",
            example: "let cfg = load().expect(\"config present\");",
            fix: "Return a typed error, or justify the invariant with an allow directive.",
        },
        "panic::macro" => Explain {
            rationale: "panic!/unreachable! abort the episode; the supervisor's degradation ladder can only catch what is expressed as a typed error. assert! is allowed because it states an invariant the tests exercise.",
            example: "match mode { Known(m) => step(m), _ => unreachable!() }",
            fix: "Degrade through a typed error (or a documented fallback control), reserving unreachable! for provably dead arms with an allow directive.",
        },
        "panic::indexing" => Explain {
            rationale: "xs[i] panics on out-of-range; in hot library loops the bound is usually provable, so this rule is opt-in (--strict-indexing) rather than part of the default gate.",
            example: "let q = table[state_index];",
            fix: "Use .get()/.get_mut() with an explicit fallback, or keep the indexing where the bound is structural.",
        },
        "panic::reachable-from-serve" => Explain {
            rationale: "hev-serve's contract is that hostile requests produce typed errors, never panics (DESIGN §12). A panic site N call-graph hops below a request-handling entry point is part of that attack surface even when it sits in another crate; this pass mechanizes the PR-8 hostile-panic audit.",
            example: "// crates/hev-serve\npub fn process(req: &Request) { helper(req.soc); }\n// crates/core\nfn helper(soc: f64) { let g = GEARS[idx(soc)]; } // idx can overflow",
            fix: "Convert the reachable site to a typed-error path (.get(), let-else), or justify the invariant on that line with `// hevlint::allow(panic::reachable-from-serve, <why hostile input cannot reach it>)`.",
        },
        "float::eq" => Explain {
            rationale: "Exact float equality against a literal is almost always a latent tolerance bug in physics code, and sentinel comparisons deserve a visible justification.",
            example: "if soc == 0.4 { recharge(); }",
            fix: "Compare with an explicit tolerance, or keep a true sentinel with an allow directive naming it.",
        },
        "float::lossy-cast" => Explain {
            rationale: "as f32 halves precision and float→int as-casts truncate and saturate silently; both have caused table-lookup drift in energy models.",
            example: "let idx = (soc * 100.0) as usize;",
            fix: "Make rounding explicit (.round()/.floor() with bounds) and keep intermediate math in f64.",
        },
        "hygiene::print" => Explain {
            rationale: "Library prints interleave nondeterministically under --jobs N and corrupt the byte-compared stdout; all reporting flows through the harness/report layer.",
            example: "println!(\"step {step}: soc={soc}\");",
            fix: "Return data to the caller or record it through hev-trace; only harness-role code prints.",
        },
        "hygiene::dbg" => Explain {
            rationale: "dbg! is a debugging leftover that prints to stderr and returns its argument — both effects are unwanted in committed code anywhere.",
            example: "let r = dbg!(reward);",
            fix: "Delete it (or replace with a hev-trace metric if the value matters).",
        },
        "hygiene::todo" => Explain {
            rationale: "todo!/unimplemented! are panics with a friendlier name; committed code must not contain known-unfinished paths.",
            example: "fn charge_depleting() { todo!() }",
            fix: "Implement the path or remove the stub.",
        },
        "hygiene::dead-pub" => Explain {
            rationale: "A plain-pub item that nothing else in the workspace (tests and examples included) references is unauditable API surface: rustc's dead_code lint cannot see across crates, so it rots silently.",
            example: "pub fn legacy_entry() {} // no other file mentions legacy_entry",
            fix: "Make it private/pub(crate), delete it, or — for genuinely external API — keep it with `// hevlint::allow(hygiene::dead-pub, <who consumes it>)`.",
        },
        "hygiene::missing-docs" => Explain {
            rationale: "rustc's missing_docs lint stops at private modules; this extends the workspace's #![warn(missing_docs)] discipline to every plain-pub fn a reader can reach in source.",
            example: "pub fn admit(req: &Request) -> Verdict { … } // no /// above",
            fix: "Add a /// doc comment stating contract and failure modes.",
        },
        "headers::crate-lints" => Explain {
            rationale: "Uniform crate roots guarantee the whole workspace forbids unsafe code and warns on undocumented public API, so a new crate cannot silently opt out.",
            example: "// src/lib.rs without #![forbid(unsafe_code)]",
            fix: "Add #![forbid(unsafe_code)] and #![warn(missing_docs)] at the top of src/lib.rs.",
        },
        "arch::layering" => Explain {
            rationale: "The crate DAG is a contract: hev-model must stay below hev-control/hev-serve so the physics stays reusable and the serve path's trust boundary is auditable; hevlint and hev-trace depend on nothing so they build first; vendored stand-ins are leaves. A dependency edge that violates the table couples layers the tests assume independent.",
            example: "# crates/hev-model/Cargo.toml\n[dependencies]\nhev-control = { workspace = true }",
            fix: "Invert the dependency (move the shared type down, or callback up); layering violations are not allow-listable in source — change the architecture or the declared table in hevlint::workspace.",
        },
        "directive::malformed" => Explain {
            rationale: "An exception without a parseable (rule, reason) pair is an exception without an audit trail.",
            example: "// hevlint::allow(panic::unwrap)",
            fix: "Write `// hevlint::allow(rule, reason)` with a non-empty reason.",
        },
        "directive::unknown-rule" => Explain {
            rationale: "A directive naming a non-existent rule suppresses nothing and usually hides a typo that leaves a real finding unsuppressed.",
            example: "// hevlint::allow(panic::unwarp, oops)",
            fix: "Name an existing rule id or family (see --list-rules).",
        },
        "directive::unused-allow" => Explain {
            rationale: "A directive that suppresses nothing is a stale exception; left in place it pre-authorizes a future violation nobody reviewed. A family-prefix allow counts as used when *any* member rule—including workspace-pass rules like panic::reachable-from-serve—consumes it.",
            example: "// hevlint::allow(panic::unwrap, fixed long ago)\nlet v = compute();",
            fix: "Delete the directive (it is re-addable with a fresh reason if the violation returns).",
        },
        _ => return None,
    };
    Some(e)
}

/// Integer types for the lossy-cast rule.
const INT_TYPES: &[&str] = &[
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize",
];

/// Float methods whose integer cast the lossy-cast rule flags.
const TRUNCATING_METHODS: &[&str] = &["ceil", "floor", "round", "trunc"];

/// Marks, per token, whether it is inside test-gated code: an item under
/// `#[cfg(test)]` / `#[cfg(any(.., test, ..))]` or a `#[test]` function.
/// The item is skipped up to its matching close brace (or `;` for
/// brace-less items such as gated `use` statements).
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Pound
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::LBracket)
        {
            // Scan the attribute's bracket group.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_test = false;
            while j < tokens.len() {
                match &tokens[j].kind {
                    TokenKind::LBracket => depth += 1,
                    TokenKind::RBracket => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k if k.is_ident("test") => has_test = true,
                    _ => {}
                }
                j += 1;
            }
            if has_test {
                // Skip the gated item: everything up to the matching `}`
                // of its first brace group, or a top-level `;`.
                let mut k = j + 1;
                let mut brace = 0usize;
                while k < tokens.len() {
                    mask[k] = true;
                    match tokens[k].kind {
                        TokenKind::LBrace => brace += 1,
                        TokenKind::RBrace => {
                            brace -= 1;
                            if brace == 0 {
                                break;
                            }
                        }
                        TokenKind::Semi if brace == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take(j + 1).skip(i) {
                    *m = true;
                }
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Marks tokens inside `#[...]` / `#![...]` attribute groups, so the
/// indexing rules don't fire on attribute brackets.
pub fn attr_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        let at_attr = tokens[i].kind == TokenKind::Pound
            && (tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::LBracket)
                || (tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Not)
                    && tokens
                        .get(i + 2)
                        .is_some_and(|t| t.kind == TokenKind::LBracket)));
        if at_attr {
            let mut depth = 0usize;
            let mut j = i;
            while j < tokens.len() {
                mask[j] = true;
                match tokens[j].kind {
                    TokenKind::LBracket => depth += 1,
                    TokenKind::RBracket => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Runs every applicable rule over one file's token stream.
pub fn check(tokens: &[Token], ctx: &FileContext, lines: &[&str]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let tmask = test_mask(tokens);
    let amask = attr_mask(tokens);
    let mut push = |rule: &'static str, line: u32, message: String| {
        let severity = RULES
            .iter()
            .find(|r| r.id == rule)
            .map(|r| r.severity)
            .unwrap_or(Severity::Deny);
        findings.push(Finding {
            rule,
            file: ctx.rel_path.clone(),
            line,
            snippet: snippet_at(lines, line),
            severity,
            message,
        });
    };

    for (i, t) in tokens.iter().enumerate() {
        if tmask[i] {
            continue;
        }
        let next = tokens.get(i + 1);
        let next2 = tokens.get(i + 2);
        let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
        match &t.kind {
            TokenKind::Ident(name) => {
                let followed_by_bang = next.is_some_and(|n| n.kind == TokenKind::Not);
                match name.as_str() {
                    // determinism::hash-collection — any use of the types.
                    "HashMap" | "HashSet" => push(
                        "determinism::hash-collection",
                        t.line,
                        format!("`{name}` has hasher-dependent iteration order; use the BTree equivalent or sorted iteration"),
                    ),
                    // determinism::wall-clock — outside the harness layer.
                    "Instant" | "SystemTime" | "thread_rng" | "from_entropy"
                        if ctx.role == Role::Library =>
                    {
                        push(
                            "determinism::wall-clock",
                            t.line,
                            format!("`{name}` introduces wall-clock/entropy state outside the harness timing layer"),
                        )
                    }
                    // determinism::env-read — `env::…`, `env!`, `option_env!`.
                    "env" if ctx.role == Role::Library
                        && next.is_some_and(|n| {
                            n.kind == TokenKind::PathSep || n.kind == TokenKind::Not
                        }) =>
                    {
                        push(
                            "determinism::env-read",
                            t.line,
                            "environment reads make runs host-dependent; thread configuration through explicit parameters".to_string(),
                        )
                    }
                    "option_env" if ctx.role == Role::Library && followed_by_bang => push(
                        "determinism::env-read",
                        t.line,
                        "environment reads make runs host-dependent; thread configuration through explicit parameters".to_string(),
                    ),
                    // panic::unwrap / panic::expect — method position only.
                    "unwrap" | "expect"
                        if prev.is_some_and(|p| p.kind == TokenKind::Dot)
                            && next.is_some_and(|n| n.kind == TokenKind::LParen) =>
                    {
                        let rule: &'static str = if name == "unwrap" {
                            "panic::unwrap"
                        } else {
                            "panic::expect"
                        };
                        push(
                            rule,
                            t.line,
                            format!("`.{name}()` can panic; return a typed error or justify the invariant with an allow directive"),
                        )
                    }
                    "panic" | "unreachable" if followed_by_bang => push(
                        "panic::macro",
                        t.line,
                        format!("`{name}!` aborts the episode; degrade through a typed error path instead"),
                    ),
                    "todo" | "unimplemented" if followed_by_bang => push(
                        "hygiene::todo",
                        t.line,
                        format!("`{name}!` must not reach committed code"),
                    ),
                    "dbg" if followed_by_bang => push(
                        "hygiene::dbg",
                        t.line,
                        "`dbg!` is a debugging leftover".to_string(),
                    ),
                    "print" | "println" | "eprint" | "eprintln"
                        if ctx.role == Role::Library && followed_by_bang =>
                    {
                        push(
                            "hygiene::print",
                            t.line,
                            format!("`{name}!` in library code; route output through the caller or the report layer"),
                        )
                    }
                    // float::lossy-cast — `as f32` and float-literal casts.
                    "as" => {
                        if next.is_some_and(|n| n.kind.is_ident("f32")) {
                            push(
                                "float::lossy-cast",
                                t.line,
                                "`as f32` silently halves precision in physics code".to_string(),
                            );
                        } else if let Some(n) = next {
                            let to_int =
                                n.kind.ident().is_some_and(|id| INT_TYPES.contains(&id));
                            if to_int && prev.is_some_and(|p| p.kind == TokenKind::Float) {
                                push(
                                    "float::lossy-cast",
                                    t.line,
                                    "float literal cast to an integer truncates; make the rounding explicit".to_string(),
                                );
                            } else if to_int
                                && prev.is_some_and(|p| p.kind == TokenKind::RParen)
                                && i >= 4
                                && tokens.get(i - 2).is_some_and(|t| t.kind == TokenKind::LParen)
                                && tokens.get(i - 3).is_some_and(|t| {
                                    t.kind
                                        .ident()
                                        .is_some_and(|id| TRUNCATING_METHODS.contains(&id))
                                })
                                && tokens.get(i - 4).is_some_and(|t| t.kind == TokenKind::Dot)
                            {
                                push(
                                    "float::lossy-cast",
                                    t.line,
                                    "rounded float cast straight to an integer; saturate or bound the value explicitly".to_string(),
                                );
                            }
                        }
                    }
                    _ => {}
                }
            }
            // float::eq — a float literal on either side of ==/!=
            // (one unary minus allowed on the right).
            TokenKind::EqEq | TokenKind::Ne => {
                let lhs_float = prev.is_some_and(|p| p.kind == TokenKind::Float);
                let rhs_float = match next {
                    Some(n) if n.kind == TokenKind::Float => true,
                    Some(n) if n.kind == TokenKind::Minus => {
                        next2.is_some_and(|n2| n2.kind == TokenKind::Float)
                    }
                    _ => false,
                };
                if lhs_float || rhs_float {
                    let op = if t.kind == TokenKind::EqEq {
                        "=="
                    } else {
                        "!="
                    };
                    push(
                        "float::eq",
                        t.line,
                        format!("exact `{op}` against a float literal; use a tolerance or justify the sentinel"),
                    );
                }
            }
            // panic::indexing (opt-in) — `expr[...]` outside attributes.
            TokenKind::LBracket if ctx.strict_indexing && !amask[i] => {
                let indexes = prev.is_some_and(|p| {
                    matches!(
                        p.kind,
                        TokenKind::Ident(_)
                            | TokenKind::RParen
                            | TokenKind::RBracket
                            | TokenKind::Question
                    )
                });
                if indexes {
                    push(
                        "panic::indexing",
                        t.line,
                        "bracket indexing can panic on out-of-range; prefer .get()/.get_mut()"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }

    if ctx.is_crate_root {
        let has = |outer: &str, inner: &str| {
            tokens.windows(6).any(|w| {
                w[0].kind == TokenKind::Pound
                    && w[1].kind == TokenKind::Not
                    && w[2].kind == TokenKind::LBracket
                    && w[3].kind.is_ident(outer)
                    && w[4].kind == TokenKind::LParen
                    && w[5].kind.is_ident(inner)
            })
        };
        if !has("forbid", "unsafe_code") {
            push(
                "headers::crate-lints",
                1,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            );
        }
        if !(has("warn", "missing_docs")
            || has("deny", "missing_docs")
            || has("forbid", "missing_docs"))
        {
            push(
                "headers::crate-lints",
                1,
                "crate root is missing `#![warn(missing_docs)]` (or stricter)".to_string(),
            );
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn lint(src: &str) -> Vec<&'static str> {
        lint_role(src, Role::Library)
    }

    fn lint_role(src: &str, role: Role) -> Vec<&'static str> {
        let out = lexer::lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileContext {
            rel_path: "x.rs".into(),
            role,
            is_crate_root: false,
            strict_indexing: false,
        };
        check(&out.tokens, &ctx, &lines)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn flags_core_patterns() {
        assert_eq!(
            lint("let m: HashMap<u32, f64> = x;"),
            vec!["determinism::hash-collection"]
        );
        assert_eq!(lint("let v = o.unwrap();"), vec!["panic::unwrap"]);
        assert_eq!(lint("let v = o.expect(\"m\");"), vec!["panic::expect"]);
        assert_eq!(lint("panic!(\"boom\")"), vec!["panic::macro"]);
        assert_eq!(lint("if x == 0.5 {}"), vec!["float::eq"]);
        assert_eq!(lint("if x != -0.5 {}"), vec!["float::eq"]);
        assert_eq!(lint("let y = x as f32;"), vec!["float::lossy-cast"]);
        assert_eq!(
            lint("let y = x.ceil() as usize;"),
            vec!["float::lossy-cast"]
        );
        assert_eq!(lint("dbg!(x)"), vec!["hygiene::dbg"]);
        assert_eq!(lint("todo!()"), vec!["hygiene::todo"]);
        assert_eq!(lint("println!(\"x\")"), vec!["hygiene::print"]);
        assert_eq!(
            lint("let t = Instant::now();"),
            vec!["determinism::wall-clock"]
        );
        assert_eq!(
            lint("let v = std::env::var(\"X\");"),
            vec!["determinism::env-read"]
        );
    }

    #[test]
    fn narrow_patterns_do_not_overfire() {
        assert!(lint("let v = o.unwrap_or(0);").is_empty());
        assert!(lint("let v = unwrap(x);").is_empty(), "free fn, not method");
        assert!(
            lint("if a == b {}").is_empty(),
            "no literal, lexically unknowable"
        );
        assert!(lint("let n = 1 + 2;").is_empty());
        assert!(lint("let y = x as f64;").is_empty());
        assert!(
            lint("assert!(x > 0.0);").is_empty(),
            "assert! states an invariant"
        );
        assert!(lint("// HashMap unwrap() panic! in a comment").is_empty());
        assert!(lint("let s = \"panic!\";").is_empty());
    }

    #[test]
    fn harness_role_waives_timing_and_prints() {
        let src = "let t = Instant::now(); println!(\"x\"); let v = std::env::var(\"X\");";
        assert!(lint_role(src, Role::Harness).is_empty());
        // …but not panics or hash collections.
        assert_eq!(
            lint_role("let m = HashMap::new(); x.unwrap();", Role::Harness),
            vec!["determinism::hash-collection", "panic::unwrap"]
        );
    }

    #[test]
    fn test_gated_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); panic!(); }\n}\nfn lib() { y.unwrap(); }\n";
        assert_eq!(lint(src), vec!["panic::unwrap"]);
        let src2 = "#[test]\nfn t() { x.unwrap(); }\n";
        assert!(lint(src2).is_empty());
        let src3 = "#[cfg(test)]\nuse std::collections::HashSet;\nfn lib() {}\n";
        assert!(lint(src3).is_empty());
    }

    #[test]
    fn strict_indexing_is_opt_in() {
        let src = "let v = xs[0];";
        assert!(lint(src).is_empty());
        let out = lexer::lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileContext {
            rel_path: "x.rs".into(),
            role: Role::Library,
            is_crate_root: false,
            strict_indexing: true,
        };
        let rules: Vec<_> = check(&out.tokens, &ctx, &lines)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, vec!["panic::indexing"]);
        // Attributes and array types never fire.
        let src2 = "#[derive(Clone)]\nstruct S { a: [f64; 3] }";
        let out2 = lexer::lex(src2);
        let lines2: Vec<&str> = src2.lines().collect();
        assert!(check(&out2.tokens, &ctx, &lines2).is_empty());
    }

    #[test]
    fn crate_root_headers() {
        let ctx = FileContext {
            rel_path: "crates/x/src/lib.rs".into(),
            role: Role::Library,
            is_crate_root: true,
            strict_indexing: false,
        };
        let src = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        let out = lexer::lex(src);
        let lines: Vec<&str> = src.lines().collect();
        assert!(check(&out.tokens, &ctx, &lines).is_empty());
        let bad = "pub fn f() {}\n";
        let outb = lexer::lex(bad);
        let linesb: Vec<&str> = bad.lines().collect();
        assert_eq!(check(&outb.tokens, &ctx, &linesb).len(), 2);
    }

    #[test]
    fn known_rule_accepts_ids_and_families() {
        assert!(known_rule("panic::unwrap"));
        assert!(known_rule("panic"));
        assert!(known_rule("determinism"));
        assert!(!known_rule("panics"));
        assert!(!known_rule("nope::rule"));
    }
}
