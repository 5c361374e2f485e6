//! A small lossless-enough Rust lexer.
//!
//! `syn` is not available in this offline workspace, so the lint passes run
//! on a token stream produced here. The lexer understands everything that
//! can *hide* lint-relevant tokens — line/block comments (nested), string /
//! raw-string / byte-string / char literals, lifetimes — and classifies
//! numeric literals as integer or float, which the float-compare lint
//! depends on.
//!
//! Comments are not discarded: `// alint: allow(...)` markers are collected
//! per line so lints can honour inline suppressions.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including `as`, `fn`, `pub`, ...).
    Ident,
    /// Lifetime such as `'a` (the tick is included in the text).
    Lifetime,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `2e-3`, `1f64`, `3.`).
    Float,
    /// String, raw-string, byte-string, or C-string literal.
    Str,
    /// Char or byte literal.
    Char,
    /// Punctuation. The multi-character operators `==`, `!=`, `->`, `::`,
    /// `=>`, `<=`, `>=`, `&&`, `||`, `..`, `..=` are single tokens, so L2
    /// sees whole `==`/`!=`, L3 whole `->`, and no compound operator reads
    /// as its halves; shift operators are deliberately left split so
    /// `Vec<Vec<T>>` closes two angle brackets.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

/// Lexer output: tokens plus the text of every comment, keyed by line.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    /// `(line, comment-text-without-delimiters)` in source order. A block
    /// comment contributes one entry at its starting line.
    pub comments: Vec<(u32, String)>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> u8 {
        self.src.get(self.pos).copied().unwrap_or(0)
    }

    fn peek_at(&self, offset: usize) -> u8 {
        self.src.get(self.pos + offset).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn eof(&self) -> bool {
        self.pos >= self.src.len()
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Lex `src`. Unterminated literals are tolerated (consumed to EOF) so a
/// half-edited file still yields diagnostics for its intact prefix.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();

    while !cur.eof() {
        let c = cur.peek();

        // Whitespace.
        if c.is_ascii_whitespace() {
            cur.bump();
            continue;
        }

        // Comments.
        if c == b'/' && cur.peek_at(1) == b'/' {
            let line = cur.line;
            let start = cur.pos + 2;
            while !cur.eof() && cur.peek() != b'\n' {
                cur.bump();
            }
            out.comments
                .push((line, src[start..cur.pos].trim().to_string()));
            continue;
        }
        if c == b'/' && cur.peek_at(1) == b'*' {
            let line = cur.line;
            let start = cur.pos + 2;
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            let mut end = cur.pos;
            while !cur.eof() && depth > 0 {
                if cur.peek() == b'/' && cur.peek_at(1) == b'*' {
                    cur.bump();
                    cur.bump();
                    depth += 1;
                } else if cur.peek() == b'*' && cur.peek_at(1) == b'/' {
                    end = cur.pos;
                    cur.bump();
                    cur.bump();
                    depth -= 1;
                } else {
                    cur.bump();
                }
            }
            if depth > 0 {
                end = cur.pos;
            }
            out.comments
                .push((line, src[start..end].trim().to_string()));
            continue;
        }

        // Raw strings / raw byte strings / raw identifiers.
        if c == b'r' || c == b'b' || c == b'c' {
            if let Some(token) = try_lex_prefixed(&mut cur, src) {
                out.tokens.push(token);
                continue;
            }
        }

        // Identifiers and keywords.
        if is_ident_start(c) {
            let line = cur.line;
            let start = cur.pos;
            while is_ident_continue(cur.peek()) {
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: src[start..cur.pos].to_string(),
                line,
            });
            continue;
        }

        // Numbers.
        if c.is_ascii_digit() {
            out.tokens.push(lex_number(&mut cur, src));
            continue;
        }

        // Lifetimes and char literals.
        if c == b'\'' {
            out.tokens.push(lex_tick(&mut cur, src));
            continue;
        }

        // Strings.
        if c == b'"' {
            out.tokens.push(lex_string(&mut cur, src));
            continue;
        }

        // Punctuation (with the multi-char set the lints care about).
        let line = cur.line;
        let start = cur.pos;
        let two = [c, cur.peek_at(1)];
        let three = [c, cur.peek_at(1), cur.peek_at(2)];
        let len = if &three == b"..=" {
            3
        } else if matches!(
            &two,
            b"==" | b"!=" | b"->" | b"::" | b"=>" | b"<=" | b">=" | b"&&" | b"||" | b".."
        ) {
            2
        } else {
            1
        };
        for _ in 0..len {
            cur.bump();
        }
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: src[start..cur.pos].to_string(),
            line,
        });
    }

    out
}

/// `r".."`, `r#".."#`, `br".."`, `b".."`, `b'.'`, `c".."`, `r#ident`.
/// Returns `None` when the cursor is not actually at one of those (plain
/// identifier starting with r/b/c), leaving the cursor untouched.
fn try_lex_prefixed(cur: &mut Cursor<'_>, src: &str) -> Option<Token> {
    let line = cur.line;
    let start = cur.pos;
    let c0 = cur.peek();

    // Longest prefix of [rbc] then # / " / '.
    let mut offset = 1;
    if (c0 == b'b' && (cur.peek_at(1) == b'r' || cur.peek_at(1) == b'c'))
        || (c0 == b'c' && cur.peek_at(1) == b'r')
    {
        offset = 2;
    }
    let after = cur.peek_at(offset);

    // Raw identifier r#foo (not r#" which is a raw string).
    if c0 == b'r' && after == b'#' && is_ident_start(cur.peek_at(2)) {
        cur.bump();
        cur.bump();
        while is_ident_continue(cur.peek()) {
            cur.bump();
        }
        return Some(Token {
            kind: TokenKind::Ident,
            text: src[start..cur.pos].to_string(),
            line,
        });
    }

    let raw = src[start..start + offset].contains('r');
    if raw && (after == b'#' || after == b'"') {
        for _ in 0..offset {
            cur.bump();
        }
        let mut hashes = 0usize;
        while cur.peek() == b'#' {
            hashes += 1;
            cur.bump();
        }
        if cur.peek() != b'"' {
            // `r#foo` handled above; anything else isn't a raw literal.
            cur.pos = start;
            return None;
        }
        cur.bump();
        // Scan for `"` followed by `hashes` hashes.
        'scan: while !cur.eof() {
            if cur.bump() == b'"' {
                for k in 0..hashes {
                    if cur.peek_at(k) != b'#' {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
        return Some(Token {
            kind: TokenKind::Str,
            text: src[start..cur.pos].to_string(),
            line,
        });
    }

    if !raw && after == b'"' {
        for _ in 0..offset {
            cur.bump();
        }
        let mut token = lex_string(cur, src);
        token.line = line;
        token.text = src[start..cur.pos].to_string();
        return Some(token);
    }

    if c0 == b'b' && cur.peek_at(1) == b'\'' {
        cur.bump();
        let mut token = lex_tick(cur, src);
        token.line = line;
        token.kind = TokenKind::Char;
        token.text = src[start..cur.pos].to_string();
        return Some(token);
    }

    None
}

fn lex_string(cur: &mut Cursor<'_>, src: &str) -> Token {
    let line = cur.line;
    let start = cur.pos;
    cur.bump(); // opening quote
    while !cur.eof() {
        match cur.bump() {
            b'\\' => {
                cur.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
    Token {
        kind: TokenKind::Str,
        text: src[start..cur.pos].to_string(),
        line,
    }
}

/// Lex at a `'`: lifetime (`'a`), loop label (`'outer:`) or char literal.
fn lex_tick(cur: &mut Cursor<'_>, src: &str) -> Token {
    let line = cur.line;
    let start = cur.pos;
    cur.bump(); // '
    if cur.peek() == b'\\' {
        // Escaped char literal.
        cur.bump();
        cur.bump();
        while !cur.eof() && cur.peek() != b'\'' {
            cur.bump(); // \u{...}
        }
        cur.bump();
        return Token {
            kind: TokenKind::Char,
            text: src[start..cur.pos].to_string(),
            line,
        };
    }
    if is_ident_start(cur.peek()) {
        // Could be 'a' (char) or 'a / 'abc (lifetime).
        let mut len = 0usize;
        while is_ident_continue(cur.peek_at(len)) {
            len += 1;
        }
        if cur.peek_at(len) == b'\'' {
            for _ in 0..=len {
                cur.bump();
            }
            return Token {
                kind: TokenKind::Char,
                text: src[start..cur.pos].to_string(),
                line,
            };
        }
        for _ in 0..len {
            cur.bump();
        }
        return Token {
            kind: TokenKind::Lifetime,
            text: src[start..cur.pos].to_string(),
            line,
        };
    }
    // `'(' )` or similar single char literal.
    cur.bump();
    if cur.peek() == b'\'' {
        cur.bump();
    }
    Token {
        kind: TokenKind::Char,
        text: src[start..cur.pos].to_string(),
        line,
    }
}

fn lex_number(cur: &mut Cursor<'_>, src: &str) -> Token {
    let line = cur.line;
    let start = cur.pos;
    let mut is_float = false;

    if cur.peek() == b'0' && matches!(cur.peek_at(1), b'x' | b'o' | b'b') {
        cur.bump();
        cur.bump();
        while cur.peek().is_ascii_alphanumeric() || cur.peek() == b'_' {
            cur.bump();
        }
        return Token {
            kind: TokenKind::Int,
            text: src[start..cur.pos].to_string(),
            line,
        };
    }

    while cur.peek().is_ascii_digit() || cur.peek() == b'_' {
        cur.bump();
    }
    // Fractional part: a `.` NOT followed by another `.` (range) or an
    // identifier start (method call like `1.max(2)`).
    if cur.peek() == b'.' && cur.peek_at(1) != b'.' && !is_ident_start(cur.peek_at(1)) {
        is_float = true;
        cur.bump();
        while cur.peek().is_ascii_digit() || cur.peek() == b'_' {
            cur.bump();
        }
    }
    // Exponent.
    if matches!(cur.peek(), b'e' | b'E') {
        let mut k = 1;
        if matches!(cur.peek_at(1), b'+' | b'-') {
            k = 2;
        }
        if cur.peek_at(k).is_ascii_digit() {
            is_float = true;
            for _ in 0..=k {
                cur.bump();
            }
            while cur.peek().is_ascii_digit() || cur.peek() == b'_' {
                cur.bump();
            }
        }
    }
    // Suffix (u32, f64, ...): a float suffix forces Float kind.
    if is_ident_start(cur.peek()) {
        let suffix_start = cur.pos;
        while is_ident_continue(cur.peek()) {
            cur.bump();
        }
        let suffix = &src[suffix_start..cur.pos];
        if suffix == "f32" || suffix == "f64" {
            is_float = true;
        }
    }

    Token {
        kind: if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        },
        text: src[start..cur.pos].to_string(),
        line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn basic_tokens() {
        let toks = kinds("pub fn f(x: f64) -> u32 { x as u32 }");
        assert!(toks.contains(&(TokenKind::Ident, "as".into())));
        assert!(toks.contains(&(TokenKind::Punct, "->".into())));
    }

    #[test]
    fn float_vs_int_literals() {
        assert_eq!(kinds("1.0")[0].0, TokenKind::Float);
        assert_eq!(kinds("1.")[0].0, TokenKind::Float);
        assert_eq!(kinds("1e-3")[0].0, TokenKind::Float);
        assert_eq!(kinds("1f64")[0].0, TokenKind::Float);
        assert_eq!(kinds("42")[0].0, TokenKind::Int);
        assert_eq!(kinds("0xFF")[0].0, TokenKind::Int);
        assert_eq!(kinds("1_000u64")[0].0, TokenKind::Int);
    }

    #[test]
    fn ranges_do_not_eat_floats() {
        let toks = kinds("0.05f64..5.0");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Float, "0.05f64".into()),
                (TokenKind::Punct, "..".into()),
                (TokenKind::Float, "5.0".into()),
            ]
        );
        let toks = kinds("0..n");
        assert_eq!(toks[0], (TokenKind::Int, "0".into()));
        assert_eq!(toks[1], (TokenKind::Punct, "..".into()));
    }

    #[test]
    fn method_on_literal_is_not_a_float() {
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0], (TokenKind::Int, "1".into()));
        assert_eq!(toks[1], (TokenKind::Punct, ".".into()));
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "a.unwrap() == 1.0";"#);
        assert!(!toks.iter().any(|t| t.1 == "unwrap"));
        assert_eq!(toks.iter().filter(|t| t.0 == TokenKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let toks = kinds(r###"let x = r#"panic!("no")"#; let r#type = 1;"###);
        assert!(!toks.iter().any(|t| t.1 == "panic"));
        assert!(toks.iter().any(|t| t.1 == "r#type"));
    }

    #[test]
    fn comments_are_collected_not_tokenized() {
        let lexed = lex("let a = 1; // alint: allow(L2)\n/* unwrap() */ let b = 2;");
        assert!(!lexed.tokens.iter().any(|t| t.text == "unwrap"));
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0], (1, "alint: allow(L2)".to_string()));
        assert_eq!(lexed.comments[1], (2, "unwrap()".to_string()));
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* a /* b */ c */ fn f() {}");
        assert_eq!(lexed.tokens[0].text, "fn");
        assert_eq!(lexed.comments.len(), 1);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokenKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.0 == TokenKind::Char).count(), 2);
    }

    #[test]
    fn eq_operators_are_single_tokens() {
        let toks = kinds("a == b != c <= d >= e -> f => g");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|t| t.0 == TokenKind::Punct)
            .map(|t| t.1.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "<=", ">=", "->", "=>"]);
    }

    #[test]
    fn shifts_stay_split_for_angle_matching() {
        let toks = kinds("Result<Vec<T>>");
        let gt = toks.iter().filter(|t| t.1 == ">").count();
        assert_eq!(gt, 2);
    }

    #[test]
    fn lines_are_tracked() {
        let lexed = lex("a\nb\n  c");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn byte_strings_and_chars() {
        let toks = kinds(r#"let a = b"bytes"; let c = b'x';"#);
        assert_eq!(toks.iter().filter(|t| t.0 == TokenKind::Str).count(), 1);
        assert_eq!(toks.iter().filter(|t| t.0 == TokenKind::Char).count(), 1);
    }
}
