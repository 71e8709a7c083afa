//! A name-based intra-workspace call-graph approximation, powering
//! `panic::reachable-from-serve` and `determinism::taint`.
//!
//! Nodes are the `fn` items the parser extracted; edges are name
//! matches between call sites and definitions:
//!
//! - `foo(…)` (unqualified) matches every workspace fn named `foo`;
//! - `.foo(…)` (method position) matches every fn named `foo`;
//! - `Type::foo(…)` matches fns named `foo` defined in an
//!   `impl Type` block, or free fns named `foo` whose defining file's
//!   stem is `Type` (module-qualified calls like `ladder::decide`);
//!   `Self::foo` and `self::foo` match like the unqualified form.
//!
//! This is an **over-approximation** (same-name fns on unrelated types
//! merge; dead branches count) chosen so that reachability never
//! misses a real path, and an **under-approximation** in exactly three
//! known ways (documented in DESIGN.md): calls through function
//! pointers/closures passed as values, calls hidden behind macro
//! expansion, and trait-object dispatch where the call is written on
//! the trait but the panic lives in an impl whose name differs.

use crate::diagnostics::{Finding, Severity};
use crate::lexer::{Token, TokenKind};
use crate::parser::{is_non_call_keyword, FnItem};
use crate::rules::Role;
use std::collections::{BTreeMap, BTreeSet};

/// One function node of the workspace call graph.
#[derive(Debug)]
pub(crate) struct FnNode {
    /// Workspace-relative file the fn is defined in.
    pub file: String,
    /// File stem (`ladder` for `…/ladder.rs`), for module-qualified
    /// call matching.
    pub file_stem: String,
    /// The parsed item.
    pub item: FnItem,
    /// Role of the defining file.
    pub role: Role,
    /// Crate name of the defining file.
    pub crate_name: String,
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
    /// Panic-capable sites inside the body.
    pub panics: Vec<PanicSite>,
    /// Determinism-source kinds found in the body (empty = no source).
    pub sources: Vec<&'static str>,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    /// Called name.
    pub name: String,
    /// `Type::`/`module::` qualifier, when present (never `Self`).
    pub qualifier: Option<String>,
    /// 1-based line.
    pub line: u32,
}

/// One potentially panicking site inside a fn body.
#[derive(Debug, Clone)]
pub(crate) struct PanicSite {
    /// What the site is (`.unwrap()`, `panic!`, `indexing`, …).
    pub what: &'static str,
    /// 1-based line.
    pub line: u32,
    /// True for slice-indexing sites (reported at depth ≤ 1 only —
    /// see [`Graph::reachability_findings`]).
    pub indexing: bool,
}

/// The assembled workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All fn nodes, in file-then-source order (deterministic).
    pub(crate) nodes: Vec<FnNode>,
    /// name → node indices defining that name.
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Wall-clock / entropy source identifiers (mirrors the local
/// `determinism::wall-clock` rule).
const CLOCK_SOURCES: &[&str] = &["Instant", "SystemTime", "thread_rng", "from_entropy"];

/// Extracts call sites, panic sites, and determinism sources from one
/// fn body. `amask` marks attribute tokens (indexing rule).
pub(crate) fn scan_body(
    tokens: &[Token],
    body: std::ops::Range<usize>,
    amask: &[bool],
) -> (Vec<CallSite>, Vec<PanicSite>, Vec<&'static str>) {
    let mut calls = Vec::new();
    let mut panics = Vec::new();
    let mut sources: BTreeSet<&'static str> = BTreeSet::new();
    for i in body.clone() {
        let Some(t) = tokens.get(i) else { break };
        let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
        let next = tokens.get(i + 1);
        match &t.kind {
            TokenKind::Ident(name) => {
                let followed_by_bang = next.is_some_and(|n| n.kind == TokenKind::Not);
                match name.as_str() {
                    "unwrap" | "expect"
                        if prev.is_some_and(|p| p.kind == TokenKind::Dot)
                            && next.is_some_and(|n| n.kind == TokenKind::LParen) =>
                    {
                        panics.push(PanicSite {
                            what: if name == "unwrap" {
                                ".unwrap()"
                            } else {
                                ".expect()"
                            },
                            line: t.line,
                            indexing: false,
                        });
                    }
                    "panic" | "unreachable" if followed_by_bang => {
                        panics.push(PanicSite {
                            what: if name == "panic" {
                                "panic!"
                            } else {
                                "unreachable!"
                            },
                            line: t.line,
                            indexing: false,
                        });
                    }
                    n if CLOCK_SOURCES.contains(&n) => {
                        sources.insert("wall-clock/entropy");
                    }
                    "env"
                        if next.is_some_and(|n| {
                            n.kind == TokenKind::PathSep || n.kind == TokenKind::Not
                        }) =>
                    {
                        sources.insert("environment");
                    }
                    "option_env" if followed_by_bang => {
                        sources.insert("environment");
                    }
                    "HashMap" | "HashSet" => {
                        sources.insert("hash-iteration");
                    }
                    _ => {}
                }
                // Call extraction: `name(` that is not a macro, a
                // declaration, or a control keyword.
                if next.is_some_and(|n| n.kind == TokenKind::LParen)
                    && !is_non_call_keyword(name)
                    && !prev.is_some_and(|p| p.kind.is_ident("fn"))
                {
                    let qualifier = match prev.map(|p| &p.kind) {
                        Some(TokenKind::PathSep) => i
                            .checked_sub(2)
                            .and_then(|q| tokens.get(q))
                            .and_then(|q| q.kind.ident())
                            .filter(|q| *q != "Self" && *q != "self")
                            .map(|q| q.to_string()),
                        _ => None,
                    };
                    calls.push(CallSite {
                        name: name.clone(),
                        qualifier,
                        line: t.line,
                    });
                }
            }
            // Slice indexing: `expr[` outside attributes.
            TokenKind::LBracket if !amask.get(i).copied().unwrap_or(false) => {
                let indexes = prev.is_some_and(|p| match &p.kind {
                    // `for x in [..]`, `return [..]` etc. are array
                    // literals, not indexing.
                    TokenKind::Ident(w) => !is_non_call_keyword(w),
                    TokenKind::RParen | TokenKind::RBracket | TokenKind::Question => true,
                    _ => false,
                });
                // A constant-literal index into a fixed-size array
                // (`rungs[3]`) is statically checkable and reviewed at
                // the site; only computed indices can be driven by
                // hostile input.
                let const_index =
                    matches!(tokens.get(i + 1).map(|n| &n.kind), Some(TokenKind::Int))
                        && matches!(
                            tokens.get(i + 2).map(|n| &n.kind),
                            Some(TokenKind::RBracket)
                        );
                // `vec![`-style macro brackets are preceded by `!`.
                if indexes && !const_index {
                    panics.push(PanicSite {
                        what: "indexing",
                        line: t.line,
                        indexing: true,
                    });
                }
            }
            _ => {}
        }
    }
    (calls, panics, sources.into_iter().collect())
}

impl Graph {
    /// Adds a file's fns to the graph.
    pub fn add_file(
        &mut self,
        rel_path: &str,
        crate_name: &str,
        role: Role,
        fns: &[FnItem],
        tokens: &[Token],
        amask: &[bool],
    ) {
        let stem = std::path::Path::new(rel_path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("")
            .to_string();
        for f in fns {
            if f.in_test {
                continue;
            }
            let (calls, panics, sources) = scan_body(tokens, f.body.clone(), amask);
            let idx = self.nodes.len();
            self.by_name.entry(f.name.clone()).or_default().push(idx);
            self.nodes.push(FnNode {
                file: rel_path.to_string(),
                file_stem: stem.clone(),
                item: f.clone(),
                role,
                crate_name: crate_name.to_string(),
                calls,
                panics,
                sources,
            });
        }
    }

    /// Node indices a call site from `caller` can resolve to.
    ///
    /// Name matches are narrowed shadowing-style: definitions in the
    /// caller's own file win over definitions in the caller's crate,
    /// which win over the rest of the workspace. Without this, every
    /// `parse(…)` in the workspace would edge into every other crate's
    /// private `parse` helper and drown the reachability/taint rules
    /// in cross-crate name collisions.
    fn resolve_from(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let Some(cands) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let filtered: Vec<usize> = match &call.qualifier {
            None => cands.clone(),
            Some(q) => cands
                .iter()
                .copied()
                .filter(|&i| {
                    let n = &self.nodes[i];
                    n.item.impl_type.as_deref() == Some(q.as_str())
                        || (n.item.impl_type.is_none() && n.file_stem == *q)
                })
                .collect(),
        };
        let same = |pick: &dyn Fn(&FnNode) -> &str| -> Vec<usize> {
            filtered
                .iter()
                .copied()
                .filter(|&i| pick(&self.nodes[i]) == pick(&self.nodes[caller]))
                .collect()
        };
        let same_file = same(&|n: &FnNode| n.file.as_str());
        if !same_file.is_empty() {
            return same_file;
        }
        let same_crate = same(&|n: &FnNode| n.crate_name.as_str());
        if !same_crate.is_empty() {
            return same_crate;
        }
        filtered
    }

    /// Deterministic BFS from `entries` (node indices), up to `hops`
    /// edges deep. Returns `(dist, parent)` per node (`u32::MAX` =
    /// unreachable).
    fn bfs(&self, entries: &[usize], hops: u32) -> (Vec<u32>, Vec<usize>) {
        let mut dist = vec![u32::MAX; self.nodes.len()];
        let mut parent = vec![usize::MAX; self.nodes.len()];
        let mut frontier: Vec<usize> = entries.to_vec();
        for &e in entries {
            dist[e] = 0;
        }
        let mut d = 0u32;
        while !frontier.is_empty() && d < hops {
            d += 1;
            let mut next = Vec::new();
            for &n in &frontier {
                for call in &self.nodes[n].calls {
                    for target in self.resolve_from(n, call) {
                        if dist[target] == u32::MAX {
                            dist[target] = d;
                            parent[target] = n;
                            next.push(target);
                        }
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        (dist, parent)
    }

    /// Human-readable qualified name of a node.
    fn qualified(&self, i: usize) -> String {
        match &self.nodes[i].item.impl_type {
            Some(t) => format!("{t}::{}", self.nodes[i].item.name),
            None => self.nodes[i].item.name.clone(),
        }
    }

    /// The entry → … → node call path, as `a → b → c`.
    fn path_to(&self, i: usize, parent: &[usize]) -> String {
        let mut chain = vec![i];
        let mut cur = i;
        while parent[cur] != usize::MAX {
            cur = parent[cur];
            chain.push(cur);
        }
        chain.reverse();
        chain
            .iter()
            .map(|&n| self.qualified(n))
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// `panic::reachable-from-serve`: every panic site in a fn within
    /// `hops` call-graph edges of a hev-serve library fn. Slice
    /// indexing — far noisier and usually bounds-proven in hot loops —
    /// is only reported inside hev-serve entry fns themselves
    /// (depth 0); unwrap/expect/panic!/unreachable! follow the full
    /// hop budget.
    pub fn reachability_findings(
        &self,
        hops: u32,
        snippet: impl Fn(&str, u32) -> String,
    ) -> Vec<Finding> {
        let entries: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.crate_name == "hev-serve" && n.role == Role::Library)
            .map(|(i, _)| i)
            .collect();
        if entries.is_empty() {
            return Vec::new();
        }
        let (dist, parent) = self.bfs(&entries, hops);
        let mut seen: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if dist[i] == u32::MAX {
                continue;
            }
            // Harness-role fns are allowed to panic (consistent with
            // the local `panic::*` rules): a path that crosses into
            // the bench/driver layer is that layer's responsibility.
            if node.role != Role::Library {
                continue;
            }
            for p in &node.panics {
                if p.indexing && dist[i] > 0 {
                    continue;
                }
                if !seen.insert((node.file.clone(), p.line, p.what)) {
                    continue;
                }
                let via = if dist[i] == 0 {
                    format!("in hev-serve entry `{}`", self.qualified(i))
                } else {
                    format!(
                        "{} hop(s) from a hev-serve entry: {}",
                        dist[i],
                        self.path_to(i, &parent)
                    )
                };
                out.push(Finding {
                    rule: "panic::reachable-from-serve",
                    file: node.file.clone(),
                    line: p.line,
                    snippet: snippet(&node.file, p.line),
                    severity: Severity::Deny,
                    message: format!(
                        "{} can panic on hostile input and is {via}; degrade through a typed error or justify the invariant",
                        p.what
                    ),
                });
            }
        }
        out
    }

    /// `determinism::taint`: a library-role fn calling (≤ 2 hops) a fn
    /// whose body holds a wall-clock/entropy/environment/hash source.
    /// Reported at the call site in the library fn; fns that are
    /// themselves sources are already covered by the local rules.
    pub fn taint_findings(&self, snippet: impl Fn(&str, u32) -> String) -> Vec<Finding> {
        // tainted[i] = Some(source description) when node i is a
        // source (depth 0) or calls one within 1 hop — so a library
        // caller of `tainted` is within 2 hops of the source.
        let mut taint: Vec<Option<String>> = self
            .nodes
            .iter()
            .map(|n| (!n.sources.is_empty()).then(|| format!("reads {}", n.sources.join("+"))))
            .collect();
        // One propagation step: a fn calling a source is tainted too.
        let step: Vec<Option<String>> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                if taint[i].is_some() {
                    return taint[i].clone();
                }
                for call in &n.calls {
                    for t in self.resolve_from(i, call) {
                        if let Some(src) = &taint[t] {
                            return Some(format!("{src} via `{}`", self.qualified(t)));
                        }
                    }
                }
                None
            })
            .collect();
        taint = step;
        let mut out = Vec::new();
        let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.role != Role::Library || !node.sources.is_empty() {
                continue;
            }
            for call in &node.calls {
                for t in self.resolve_from(i, call) {
                    let Some(src) = &taint[t] else { continue };
                    if !seen.insert((node.file.clone(), call.line)) {
                        continue;
                    }
                    out.push(Finding {
                        rule: "determinism::taint",
                        file: node.file.clone(),
                        line: call.line,
                        snippet: snippet(&node.file, call.line),
                        severity: Severity::Deny,
                        message: format!(
                            "library fn `{}` calls `{}`, which {}; nondeterminism must not leak out of the harness role",
                            self.qualified_of(node),
                            call.name,
                            src
                        ),
                    });
                }
            }
        }
        out
    }

    fn qualified_of(&self, n: &FnNode) -> String {
        match &n.item.impl_type {
            Some(t) => format!("{t}::{}", n.item.name),
            None => n.item.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser::parse_items;
    use crate::rules::{attr_mask, test_mask};

    fn add(g: &mut Graph, path: &str, crate_name: &str, role: Role, src: &str) {
        let out = lexer::lex(src);
        let mask = test_mask(&out.tokens);
        let amask = attr_mask(&out.tokens);
        let items = parse_items(&out.tokens, &out.comments, &mask);
        g.add_file(path, crate_name, role, &items.fns, &out.tokens, &amask);
    }

    #[test]
    fn two_hop_panic_is_reachable_and_three_hop_is_not() {
        let mut g = Graph::default();
        add(
            &mut g,
            "crates/hev-serve/src/service.rs",
            "hev-serve",
            Role::Library,
            "pub fn handle() { middle(); }\n",
        );
        add(
            &mut g,
            "crates/core/src/a.rs",
            "hev-control",
            Role::Library,
            "pub fn middle() { deep(); }\npub fn deep() { deeper(); x.unwrap(); }\npub fn deeper() { y.unwrap(); }\n",
        );
        let f = g.reachability_findings(2, |_, _| String::new());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("2 hop(s)"));
        assert!(f[0].message.contains("handle → middle → deep"));
        let f3 = g.reachability_findings(3, |_, _| String::new());
        assert_eq!(f3.len(), 2);
    }

    #[test]
    fn indexing_reported_only_in_entry_fns() {
        let mut g = Graph::default();
        add(
            &mut g,
            "crates/hev-serve/src/wire.rs",
            "hev-serve",
            Role::Library,
            "pub fn parse(b: &[u8], i: usize) { let x = b[i]; helper(b, i); }\n",
        );
        add(
            &mut g,
            "crates/core/src/h.rs",
            "hev-control",
            Role::Library,
            "pub fn helper(b: &[u8], i: usize) { let y = b[i]; }\n",
        );
        let f = g.reachability_findings(2, |_, _| String::new());
        assert_eq!(f.len(), 1, "only the entry-fn indexing fires: {f:?}");
        assert_eq!(f[0].file, "crates/hev-serve/src/wire.rs");
    }

    #[test]
    fn qualified_calls_respect_impl_type_and_module_stem() {
        let mut g = Graph::default();
        add(
            &mut g,
            "crates/hev-serve/src/session.rs",
            "hev-serve",
            Role::Library,
            "impl Session { pub fn process(&self) { ladder::decide(); Other::make(); } }\n",
        );
        add(
            &mut g,
            "crates/hev-serve/src/ladder.rs",
            "hev-serve",
            Role::Library,
            "pub fn decide() { a.unwrap(); }\n",
        );
        add(
            &mut g,
            "crates/core/src/other.rs",
            "hev-control",
            Role::Library,
            "impl Wrong { pub fn make() { b.unwrap(); } }\n",
        );
        let f = g.reachability_findings(2, |_, _| String::new());
        // decide's unwrap fires (module-stem match); Wrong::make does
        // not (qualifier `Other` ≠ impl type `Wrong`). decide is also
        // an entry itself, so its unwrap is at depth 0 of another
        // entry — still exactly one finding per site.
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "crates/hev-serve/src/ladder.rs");
    }

    #[test]
    fn taint_propagates_two_hops_into_library_code() {
        let mut g = Graph::default();
        add(
            &mut g,
            "crates/bench/src/timing.rs",
            "hev-bench",
            Role::Harness,
            "pub fn now_ms() -> u64 { Instant::now(); 0 }\npub fn wrapper() -> u64 { now_ms() }\n",
        );
        add(
            &mut g,
            "crates/hev-model/src/battery.rs",
            "hev-model",
            Role::Library,
            "pub fn step() { let t = wrapper(); }\n",
        );
        let f = g.taint_findings(|_, _| String::new());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("wall-clock"));
        assert_eq!(f[0].file, "crates/hev-model/src/battery.rs");
    }

    #[test]
    fn harness_callers_are_not_tainted() {
        let mut g = Graph::default();
        add(
            &mut g,
            "crates/bench/src/timing.rs",
            "hev-bench",
            Role::Harness,
            "pub fn now_ms() -> u64 { Instant::now(); 0 }\npub fn report() { now_ms(); }\n",
        );
        assert!(g.taint_findings(|_, _| String::new()).is_empty());
    }
}
