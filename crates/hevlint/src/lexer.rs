//! A hand-rolled Rust lexer: just enough tokenization for lint rules.
//!
//! The lexer is deliberately *not* a full Rust grammar. It produces a
//! flat token stream (identifiers, literals, a small operator set) with
//! line numbers, while skipping — but recording — comments, and skipping
//! string/char literals entirely so that pattern text inside strings or
//! docs can never trigger a rule. No `syn`/`quote`: the workspace builds
//! against vendored offline stand-ins and the linter must too.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind (identifier text is carried inline).
    pub kind: TokenKind,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// The kinds of token the rules need to distinguish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`as`, `unwrap`, `HashMap`, …).
    Ident(String),
    /// An integer literal.
    Int,
    /// A floating-point literal (has a `.`, an exponent, or an
    /// `f32`/`f64` suffix).
    Float,
    /// A string literal (contents discarded).
    Str,
    /// A char or byte literal (contents discarded).
    Char,
    /// A lifetime (`'a`).
    Lifetime,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `!` (not part of `!=`)
    Not,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `::`
    PathSep,
    /// `#`
    Pound,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `?`
    Question,
    /// `-`
    Minus,
    /// Any other punctuation character.
    Other(char),
}

/// A comment, recorded for directive parsing.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Raw comment text including the `//` / `/*` markers.
    pub text: String,
    /// Whether code tokens precede the comment on its own line
    /// (a trailing comment attaches to that line, not the next).
    pub has_code_before: bool,
}

/// Lexer output: the token stream plus every comment encountered.
#[derive(Debug, Default)]
pub(crate) struct LexOutput {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Lexes `src` into tokens and comments. Never fails: unterminated
/// constructs simply end at end-of-file.
pub(crate) fn lex(src: &str) -> LexOutput {
    Lexer {
        b: src.as_bytes(),
        src,
        i: 0,
        line: 1,
        out: LexOutput::default(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    out: LexOutput,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        self.b.get(self.i + ahead).copied().unwrap_or(0)
    }

    fn push(&mut self, kind: TokenKind, line: u32) {
        self.out.tokens.push(Token { kind, line });
    }

    fn run(mut self) -> LexOutput {
        // A shebang line (`#!/usr/bin/env …`) is valid at the very
        // start of a Rust source file and is not tokens; `#![attr]`
        // inner attributes are NOT shebangs and must still lex.
        if self.b.starts_with(b"#!") && self.peek(2) != b'[' {
            while self.i < self.b.len() && self.b[self.i] != b'\n' {
                self.i += 1;
            }
        }
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' if self.raw_or_byte_prefix() => {}
                c if is_ident_start(c) => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => self.operator(),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let start = self.i;
        let line = self.line;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        let has_code_before = self.out.tokens.last().is_some_and(|t| t.line == line);
        self.out.comments.push(Comment {
            line,
            text: self.src[start..self.i].to_string(),
            has_code_before,
        });
    }

    fn block_comment(&mut self) {
        let start = self.i;
        let line = self.line;
        let has_code_before = self.out.tokens.last().is_some_and(|t| t.line == line);
        self.i += 2;
        let mut depth = 1usize;
        while self.i < self.b.len() && depth > 0 {
            match self.b[self.i] {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'/' if self.peek(1) == b'*' => {
                    depth += 1;
                    self.i += 2;
                }
                b'*' if self.peek(1) == b'/' => {
                    depth -= 1;
                    self.i += 2;
                }
                _ => self.i += 1,
            }
        }
        self.out.comments.push(Comment {
            line,
            text: self.src[start..self.i.min(self.src.len())].to_string(),
            has_code_before,
        });
    }

    /// Consumes a `"…"` literal (escapes honored, newlines tracked).
    fn string(&mut self) {
        let line = self.line;
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    self.i += 1;
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.push(TokenKind::Str, line);
    }

    /// Consumes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'` or a raw
    /// identifier `r#ident`; returns true if it consumed anything.
    fn raw_or_byte_prefix(&mut self) -> bool {
        let c = self.b[self.i];
        // b'x' byte char
        if c == b'b' && self.peek(1) == b'\'' {
            let line = self.line;
            self.i += 1; // consume 'b', then reuse char lexing
            self.char_literal(line);
            return true;
        }
        // b"…"
        if c == b'b' && self.peek(1) == b'"' {
            self.i += 1;
            self.string();
            return true;
        }
        let mut j = self.i + 1;
        if c == b'b' && self.peek(1) == b'r' {
            j += 1;
        } else if c == b'b' {
            return false;
        }
        // r#ident (raw identifier) — only for the plain `r` prefix.
        if c == b'r' && self.peek(1) == b'#' && is_ident_start(self.peek(2)) {
            self.i += 2;
            self.ident();
            return true;
        }
        // r"…" / r#"…"# / br#"…"# with any number of hashes.
        let mut hashes = 0usize;
        while self.b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if self.b.get(j) != Some(&b'"') {
            return false;
        }
        let line = self.line;
        self.i = j + 1;
        // Scan for `"` followed by `hashes` hashes.
        while self.i < self.b.len() {
            if self.b[self.i] == b'\n' {
                self.line += 1;
                self.i += 1;
                continue;
            }
            if self.b[self.i] == b'"' {
                let mut k = 0;
                while k < hashes && self.b.get(self.i + 1 + k) == Some(&b'#') {
                    k += 1;
                }
                if k == hashes {
                    self.i += 1 + hashes;
                    self.push(TokenKind::Str, line);
                    return true;
                }
            }
            self.i += 1;
        }
        self.push(TokenKind::Str, line);
        true
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // 'a  → lifetime unless it closes as a char literal ('a').
        if is_ident_start(self.peek(1)) && self.peek(2) != b'\'' {
            self.i += 1;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
            self.push(TokenKind::Lifetime, line);
            return;
        }
        self.char_literal(line);
    }

    fn char_literal(&mut self, line: u32) {
        self.i += 1; // opening quote
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\'' => {
                    self.i += 1;
                    break;
                }
                b'\n' => break, // malformed; don't eat the file
                _ => self.i += 1,
            }
        }
        self.push(TokenKind::Char, line);
    }

    fn ident(&mut self) {
        let start = self.i;
        let line = self.line;
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        self.push(TokenKind::Ident(self.src[start..self.i].to_string()), line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut float = false;
        if self.b[self.i] == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            self.i += 2;
            while self.i < self.b.len()
                && (self.b[self.i].is_ascii_alphanumeric() || self.b[self.i] == b'_')
            {
                self.i += 1;
            }
            self.push(TokenKind::Int, line);
            return;
        }
        while self.i < self.b.len() && (self.b[self.i].is_ascii_digit() || self.b[self.i] == b'_') {
            self.i += 1;
        }
        // Fractional part — but `1..n` is a range and `1.max()` a method.
        if self.peek(0) == b'.' && self.peek(1) != b'.' && !is_ident_start(self.peek(1)) {
            float = true;
            self.i += 1;
            while self.i < self.b.len()
                && (self.b[self.i].is_ascii_digit() || self.b[self.i] == b'_')
            {
                self.i += 1;
            }
        }
        // Exponent.
        if matches!(self.peek(0), b'e' | b'E')
            && (self.peek(1).is_ascii_digit()
                || (matches!(self.peek(1), b'+' | b'-') && self.peek(2).is_ascii_digit()))
        {
            float = true;
            self.i += 1;
            if matches!(self.peek(0), b'+' | b'-') {
                self.i += 1;
            }
            while self.i < self.b.len()
                && (self.b[self.i].is_ascii_digit() || self.b[self.i] == b'_')
            {
                self.i += 1;
            }
        }
        // Suffix (u32, f64, …).
        let sfx_start = self.i;
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        let sfx = &self.src[sfx_start..self.i];
        if sfx == "f32" || sfx == "f64" {
            float = true;
        }
        self.push(
            if float {
                TokenKind::Float
            } else {
                TokenKind::Int
            },
            line,
        );
    }

    fn operator(&mut self) {
        let line = self.line;
        let c = self.b[self.i];
        let kind = match c {
            b'=' if self.peek(1) == b'=' => {
                self.i += 1;
                TokenKind::EqEq
            }
            b'!' if self.peek(1) == b'=' => {
                self.i += 1;
                TokenKind::Ne
            }
            b':' if self.peek(1) == b':' => {
                self.i += 1;
                TokenKind::PathSep
            }
            b'.' => TokenKind::Dot,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'!' => TokenKind::Not,
            b'#' => TokenKind::Pound,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'?' => TokenKind::Question,
            b'-' => TokenKind::Minus,
            other => TokenKind::Other(other as char),
        };
        self.i += 1;
        self.push(kind, line);
    }
}

impl TokenKind {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when the token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_ops() {
        use TokenKind::*;
        assert_eq!(
            kinds("a.unwrap()"),
            vec![
                Ident("a".into()),
                Dot,
                Ident("unwrap".into()),
                LParen,
                RParen
            ]
        );
        assert_eq!(kinds("a != b == c"), {
            vec![
                Ident("a".into()),
                Ne,
                Ident("b".into()),
                EqEq,
                Ident("c".into()),
            ]
        });
        assert_eq!(
            kinds("std::env"),
            vec![Ident("std".into()), PathSep, Ident("env".into())]
        );
    }

    #[test]
    fn strings_and_comments_do_not_tokenize_contents() {
        let out = lex("let s = \"HashMap.unwrap()\"; // HashMap in comment");
        assert!(out
            .tokens
            .iter()
            .all(|t| !t.kind.is_ident("HashMap") && !t.kind.is_ident("unwrap")));
        assert_eq!(out.comments.len(), 1);
        assert!(out.comments[0].has_code_before);
    }

    #[test]
    fn raw_strings_and_chars() {
        let out = lex("let r = r#\"panic!()\"#; let c = '\\n'; let l: &'a str = x;");
        assert!(out.tokens.iter().all(|t| !t.kind.is_ident("panic")));
        assert!(out.tokens.iter().any(|t| t.kind == TokenKind::Lifetime));
        assert!(out.tokens.iter().any(|t| t.kind == TokenKind::Char));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let out = lex("fn r#type(r#match: u32) -> u32 { r#match }");
        assert_eq!(
            out.tokens
                .iter()
                .filter(|t| t.kind.is_ident("type"))
                .count(),
            1
        );
        assert_eq!(
            out.tokens
                .iter()
                .filter(|t| t.kind.is_ident("match"))
                .count(),
            2
        );
    }

    #[test]
    fn shebang_line_is_skipped_but_inner_attr_is_not() {
        let out = lex("#!/usr/bin/env run-cargo-script\nlet x = 1;\n");
        assert!(!out.tokens.iter().any(|t| t.kind.is_ident("usr")));
        assert_eq!(out.tokens[0].kind, TokenKind::Ident("let".into()));
        assert_eq!(out.tokens[0].line, 2);
        // `#![attr]` at file start is an inner attribute, not a shebang.
        let attr = lex("#![forbid(unsafe_code)]\n");
        assert!(attr.tokens.iter().any(|t| t.kind.is_ident("forbid")));
    }

    #[test]
    fn static_lifetime_is_not_a_char_literal() {
        let out = lex("fn f(s: &'static str) -> char { 's' }");
        assert_eq!(
            out.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            1
        );
        assert_eq!(
            out.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            1
        );
        // The lifetime must not swallow `static str) -> char {`.
        assert!(out.tokens.iter().any(|t| t.kind.is_ident("char")));
    }

    #[test]
    fn numbers() {
        use TokenKind::*;
        assert_eq!(kinds("1.5"), vec![Float]);
        assert_eq!(kinds("1_000"), vec![Int]);
        assert_eq!(kinds("2e-3"), vec![Float]);
        assert_eq!(kinds("3f64"), vec![Float]);
        assert_eq!(kinds("7u32"), vec![Int]);
        assert_eq!(kinds("0xFF"), vec![Int]);
        // Ranges and method calls on ints are not floats.
        assert_eq!(kinds("0..n")[0], Int);
        assert_eq!(kinds("1.max(2)")[0], Int);
    }

    #[test]
    fn multiline_block_comment_tracks_lines() {
        let out = lex("/* a\nb\nc */ x");
        let x = out.tokens.first().expect("token after comment");
        assert_eq!(x.line, 3);
    }
}
