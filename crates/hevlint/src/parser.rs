//! A lightweight item parser over the flat token stream.
//!
//! hevlint v2's workspace rules (`arch::layering`,
//! `panic::reachable-from-serve`, `determinism::taint`,
//! `hygiene::dead-pub`) need more structure than a flat token stream:
//! which function a token belongs to, what a function calls, which
//! items are `pub`, and what each file `use`s. This module recovers
//! exactly that much structure — `fn` items with brace-matched body
//! spans, `impl` context, `use` roots, visibility, and doc-comment
//! presence — and nothing more. It is still not a Rust parser: no
//! expressions, no types, no name resolution. The over/under
//! approximations this implies are documented in DESIGN.md ("Static
//! analysis v2").

use crate::lexer::{Comment, Token, TokenKind};

/// Visibility of an item, as far as a lexical pass can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// No `pub` keyword.
    Private,
    /// `pub(crate)`, `pub(super)`, or `pub(in …)` — crate-visible at
    /// most, so rustc's own `dead_code` lint already covers it.
    Restricted,
    /// Plain `pub`: visible outside the crate.
    Public,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The inherent/trait-impl type the fn is defined on, when inside
    /// an `impl` block (`impl Foo { fn bar … }` → `Some("Foo")`).
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, exclusive of the outer braces.
    /// Empty for body-less declarations (`fn f();` in traits).
    pub body: std::ops::Range<usize>,
    /// Visibility (trait-impl methods are `Private` — they carry no
    /// `pub` keyword and inherit the trait's visibility).
    pub vis: Visibility,
    /// True when a `///`/`/**` doc comment immediately precedes the
    /// item (attributes allowed in between).
    pub has_doc: bool,
    /// True when the fn is inside `#[cfg(test)]`/`#[test]` code.
    pub in_test: bool,
}

/// Any other named item a `pub`-audit cares about.
#[derive(Debug, Clone)]
pub(crate) struct NamedItem {
    /// Item kind keyword (`struct`, `enum`, `trait`, `mod`, `const`,
    /// `static`, `type`).
    pub kind: &'static str,
    /// The item's name.
    pub name: String,
    /// 1-based line of the kind keyword.
    pub line: u32,
    /// Visibility.
    pub vis: Visibility,
    /// True when inside test-gated code.
    pub in_test: bool,
}

/// One `use` declaration root: `use hev_model::batch::X` → `hev_model`.
#[derive(Debug, Clone)]
pub struct UseRoot {
    /// The first path segment of the `use` (after a leading `::`, if
    /// any).
    pub root: String,
    /// 1-based line of the `use` keyword.
    pub line: u32,
    /// True when the `use` sits in test-gated code.
    pub in_test: bool,
}

/// Parsed structure of one file.
#[derive(Debug, Default)]
pub struct ParsedItems {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Every non-fn named item, in source order.
    pub(crate) named: Vec<NamedItem>,
    /// Every `use` root, in source order (includes fn-body `use`s).
    pub uses: Vec<UseRoot>,
}

/// Item keywords that can directly follow a visibility modifier.
const ITEM_KINDS: &[&str] = &["struct", "enum", "trait", "mod", "const", "static", "type"];

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "move", "ref", "mut", "let", "fn", "where", "impl", "dyn", "unsafe", "async", "await",
];

/// True when `name` can never be a workspace function call target.
pub fn is_non_call_keyword(name: &str) -> bool {
    NON_CALL_KEYWORDS.contains(&name)
}

/// Parses the token stream of one file into items. `test_mask` marks
/// tokens inside `#[cfg(test)]`/`#[test]` items (see
/// [`crate::rules::test_mask`]).
pub fn parse_items(tokens: &[Token], comments: &[Comment], test_mask: &[bool]) -> ParsedItems {
    let mut out = ParsedItems::default();
    // Impl context stack: (type name, brace depth the impl body opened at).
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::LBrace => {
                depth += 1;
                i += 1;
            }
            TokenKind::RBrace => {
                depth = depth.saturating_sub(1);
                while impl_stack.last().is_some_and(|(_, d)| *d > depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            TokenKind::Ident(name) => match name.as_str() {
                "impl" => {
                    if let Some((ty, body_open)) = parse_impl_header(tokens, i) {
                        impl_stack.push((ty, body_open));
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                "fn" => {
                    let vis = visibility_before(tokens, i);
                    let (item, next) = parse_fn(tokens, comments, test_mask, i, vis, &impl_stack);
                    if let Some(f) = item {
                        out.fns.push(f);
                    }
                    i = next;
                }
                "use" => {
                    // `use root::…` — skip a leading `::` for
                    // `use ::foo` paths.
                    let mut j = i + 1;
                    if tokens.get(j).is_some_and(|t| t.kind == TokenKind::PathSep) {
                        j += 1;
                    }
                    if let Some(root) = tokens.get(j).and_then(|t| t.kind.ident()) {
                        out.uses.push(UseRoot {
                            root: root.to_string(),
                            line: tokens[i].line,
                            in_test: test_mask.get(i).copied().unwrap_or(false),
                        });
                    }
                    i += 1;
                }
                kw if ITEM_KINDS.contains(&kw) => {
                    // `const` also appears in `const fn` / `const N:`
                    // generics; requiring an identifier right after the
                    // keyword filters `const fn` (fn is handled above).
                    if let Some(item_name) = tokens.get(i + 1).and_then(|t| t.kind.ident()) {
                        if item_name != "fn" {
                            let kind = ITEM_KINDS
                                .iter()
                                .find(|k| **k == kw)
                                .copied()
                                .unwrap_or("item");
                            out.named.push(NamedItem {
                                kind,
                                name: item_name.to_string(),
                                line: tokens[i].line,
                                vis: visibility_before(tokens, i),
                                in_test: test_mask.get(i).copied().unwrap_or(false),
                            });
                        }
                    }
                    i += 1;
                }
                _ => i += 1,
            },
            _ => i += 1,
        }
    }
    out
}

/// Looks backwards from the item keyword at `i` for a visibility
/// modifier, skipping fn qualifiers (`const`, `unsafe`, `async`,
/// `extern "C"`).
fn visibility_before(tokens: &[Token], i: usize) -> Visibility {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &tokens[j].kind {
            TokenKind::Ident(w)
                if matches!(w.as_str(), "const" | "unsafe" | "async" | "extern") =>
            {
                continue;
            }
            TokenKind::Str => continue, // the ABI string of `extern "C"`
            TokenKind::Ident(w) if w == "pub" => return Visibility::Public,
            TokenKind::RParen => {
                // Possibly `pub(crate)` / `pub(super)` / `pub(in …)`:
                // scan back to the matching `(` and check for `pub`.
                let mut depth = 1usize;
                let mut k = j;
                while k > 0 && depth > 0 {
                    k -= 1;
                    match tokens[k].kind {
                        TokenKind::RParen => depth += 1,
                        TokenKind::LParen => depth -= 1,
                        _ => {}
                    }
                }
                if k > 0 && tokens[k - 1].kind.is_ident("pub") {
                    return Visibility::Restricted;
                }
                return Visibility::Private;
            }
            _ => return Visibility::Private,
        }
    }
    Visibility::Private
}

/// Parses `impl … { …` headers: returns the implemented type's name
/// (the ident after `for` when present, otherwise the first ident
/// after any `<…>` generics) and the brace depth *inside* the body.
fn parse_impl_header(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let mut ty: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut angle = 0i32;
    let mut j = i + 1;
    let mut saw_for = false;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Other('<') => angle += 1,
            TokenKind::Other('>') => angle -= 1,
            TokenKind::LBrace => {
                let name = after_for.or(ty)?;
                return Some((name, open_depth(tokens, j)));
            }
            TokenKind::Semi => return None, // `impl Trait for Ty;` (unused)
            TokenKind::Ident(w) if w == "for" && angle == 0 => saw_for = true,
            TokenKind::Ident(w) if angle == 0 && w != "for" => {
                if saw_for {
                    if after_for.is_none() {
                        after_for = Some(w.clone());
                    }
                } else if ty.is_none() {
                    ty = Some(w.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Brace depth inside the group opened by the `{` at token `open`.
fn open_depth(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for t in tokens.iter().take(open) {
        match t.kind {
            TokenKind::LBrace => depth += 1,
            TokenKind::RBrace => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    depth + 1
}

/// Parses one `fn` starting at the `fn` keyword index. Returns the
/// item (None when malformed) and the token index to resume scanning
/// at (inside the body, so nested fns are found too).
fn parse_fn(
    tokens: &[Token],
    comments: &[Comment],
    test_mask: &[bool],
    fn_idx: usize,
    vis: Visibility,
    impl_stack: &[(String, usize)],
) -> (Option<FnItem>, usize) {
    let Some(name) = tokens.get(fn_idx + 1).and_then(|t| t.kind.ident()) else {
        return (None, fn_idx + 1);
    };
    // Find the body `{` at paren/bracket depth 0, or a `;` (no body).
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut j = fn_idx + 2;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::LParen => paren += 1,
            TokenKind::RParen => paren -= 1,
            TokenKind::LBracket => bracket += 1,
            TokenKind::RBracket => bracket -= 1,
            TokenKind::Semi if paren == 0 && bracket == 0 => {
                // Body-less declaration.
                let item = FnItem {
                    name: name.to_string(),
                    impl_type: impl_stack.last().map(|(t, _)| t.clone()),
                    line: tokens[fn_idx].line,
                    body: j..j,
                    vis,
                    has_doc: doc_before(tokens, comments, fn_idx),
                    in_test: test_mask.get(fn_idx).copied().unwrap_or(false),
                };
                return (Some(item), j + 1);
            }
            TokenKind::LBrace if paren == 0 && bracket == 0 => {
                let close = matching_brace(tokens, j);
                let item = FnItem {
                    name: name.to_string(),
                    impl_type: impl_stack.last().map(|(t, _)| t.clone()),
                    line: tokens[fn_idx].line,
                    body: (j + 1)..close,
                    vis,
                    has_doc: doc_before(tokens, comments, fn_idx),
                    in_test: test_mask.get(fn_idx).copied().unwrap_or(false),
                };
                // Resume AT the body brace so the caller's depth
                // tracking sees it; nested fns are found by the
                // continued scan, and the outer fn's span already
                // covers them for call-graph purposes.
                return (Some(item), j);
            }
            _ => {}
        }
        j += 1;
    }
    (None, fn_idx + 1)
}

/// Index of the `}` matching the `{` at `open` (or `tokens.len()` when
/// unterminated).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::LBrace => depth += 1,
            TokenKind::RBrace => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// True when a doc comment immediately precedes the item whose first
/// token (attributes included) starts the contiguous run ending at
/// `item_idx`.
fn doc_before(tokens: &[Token], comments: &[Comment], item_idx: usize) -> bool {
    // Walk back over qualifiers, visibility, and attribute groups to
    // the first token of the item.
    let mut j = item_idx;
    while let Some(prev) = j.checked_sub(1) {
        match &tokens[prev].kind {
            TokenKind::Ident(w)
                if matches!(w.as_str(), "pub" | "const" | "unsafe" | "async" | "extern") =>
            {
                j = prev;
            }
            TokenKind::Str => j = prev,
            TokenKind::RParen => {
                // `pub(crate)` group: scan to its `(` and require `pub`.
                let mut depth = 1usize;
                let mut k = prev;
                while k > 0 && depth > 0 {
                    k -= 1;
                    match tokens[k].kind {
                        TokenKind::RParen => depth += 1,
                        TokenKind::LParen => depth -= 1,
                        _ => {}
                    }
                }
                if k > 0 && tokens[k - 1].kind.is_ident("pub") {
                    j = k - 1;
                } else {
                    break;
                }
            }
            TokenKind::RBracket => {
                // An attribute `#[…]` group: scan back to its `#`.
                let mut depth = 1usize;
                let mut k = prev;
                while k > 0 && depth > 0 {
                    k -= 1;
                    match tokens[k].kind {
                        TokenKind::RBracket => depth += 1,
                        TokenKind::LBracket => depth -= 1,
                        _ => {}
                    }
                }
                if k > 0 && tokens[k - 1].kind == TokenKind::Pound {
                    j = k - 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    let first_line = tokens.get(j).map(|t| t.line).unwrap_or(0);
    // Walk up through the contiguous comment block directly above the
    // item (doc lines may be interleaved with plain `//` remarks, e.g.
    // a rationale comment between the doc and an attribute): any doc
    // comment in that block documents the item.
    let mut expect = first_line.saturating_sub(1);
    let mut found = false;
    for c in comments.iter().rev() {
        if c.line > expect || c.has_code_before {
            continue;
        }
        if c.line < expect {
            break;
        }
        if c.text.starts_with("///") || c.text.starts_with("/**") {
            found = true;
            break;
        }
        expect = c.line.saturating_sub(1);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::rules::test_mask;

    fn parse(src: &str) -> ParsedItems {
        let out = lexer::lex(src);
        let mask = test_mask(&out.tokens);
        parse_items(&out.tokens, &out.comments, &mask)
    }

    /// `matching_brace` pairs nested bodies correctly — the item parser
    /// leans on it for every fn body extraction.
    #[test]
    fn matching_brace_pairs_nested_bodies() {
        let out = lexer::lex("fn a() { if x { y() } else { z() } }\n");
        let open = out
            .tokens
            .iter()
            .position(|t| t.kind == TokenKind::LBrace)
            .expect("outer brace");
        let close = matching_brace(&out.tokens, open);
        assert_eq!(
            close,
            out.tokens.len() - 1,
            "outer brace pairs with the last token"
        );
    }

    #[test]
    fn fns_with_bodies_and_visibility() {
        let p = parse("pub fn a() -> u32 { 1 }\nfn b() {}\npub(crate) fn c() {}\n");
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].name, "a");
        assert_eq!(p.fns[0].vis, Visibility::Public);
        assert_eq!(p.fns[1].vis, Visibility::Private);
        assert_eq!(p.fns[2].vis, Visibility::Restricted);
        assert!(!p.fns[0].body.is_empty());
    }

    #[test]
    fn impl_context_inherent_and_trait() {
        let p =
            parse("impl Foo { pub fn bar(&self) {} }\nimpl Display for Baz { fn fmt(&self) {} }\n");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Foo"));
        assert_eq!(p.fns[1].impl_type.as_deref(), Some("Baz"));
        let p2 = parse("impl<T: Clone> Wrap<T> { fn get(&self) {} }\n");
        assert_eq!(p2.fns[0].impl_type.as_deref(), Some("Wrap"));
    }

    #[test]
    fn use_roots_and_leading_pathsep() {
        let p = parse("use hev_model::batch::CandidateBatch;\nuse ::serde::Serialize;\nfn f() { use std::fmt; }\n");
        let roots: Vec<&str> = p.uses.iter().map(|u| u.root.as_str()).collect();
        assert_eq!(roots, vec!["hev_model", "serde", "std"]);
    }

    #[test]
    fn named_items_and_docs() {
        let p = parse("/// Doc.\npub struct S;\npub enum E { A }\nconst K: u32 = 1;\n/// Documented.\npub fn d() {}\npub fn undoc() {}\n");
        assert_eq!(p.named[0].name, "S");
        assert_eq!(p.named[0].vis, Visibility::Public);
        assert_eq!(p.named[1].name, "E");
        assert_eq!(p.named[2].vis, Visibility::Private);
        let d = p.fns.iter().find(|f| f.name == "d").unwrap();
        assert!(d.has_doc);
        let u = p.fns.iter().find(|f| f.name == "undoc").unwrap();
        assert!(!u.has_doc);
    }

    #[test]
    fn doc_reaches_over_attributes() {
        let p = parse("/// Doc.\n#[inline]\npub fn f() {}\n");
        assert!(p.fns[0].has_doc);
    }

    #[test]
    fn test_gated_fns_are_marked() {
        let p = parse("#[cfg(test)]\nmod tests {\n fn helper() {}\n}\nfn lib() {}\n");
        let h = p.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(h.in_test);
        let l = p.fns.iter().find(|f| f.name == "lib").unwrap();
        assert!(!l.in_test);
    }

    #[test]
    fn nested_fns_are_found_and_bodies_span() {
        let src = "fn outer() {\n    fn inner() { x.unwrap(); }\n    inner();\n}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "outer");
        assert_eq!(p.fns[1].name, "inner");
        // outer's body span covers inner entirely.
        assert!(p.fns[0].body.start <= p.fns[1].body.start);
        assert!(p.fns[0].body.end >= p.fns[1].body.end);
    }

    #[test]
    fn trait_decl_without_body() {
        let p = parse("pub trait T { fn req(&self); fn def(&self) { self.req() } }\n");
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].body.is_empty());
        assert!(!p.fns[1].body.is_empty());
        assert_eq!(p.named[0].kind, "trait");
        assert_eq!(p.named[0].name, "T");
    }
}
