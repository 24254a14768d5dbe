//! A small, self-contained Rust lexer — just enough structure for the
//! rule engine: identifiers, punctuation, string/char/number literals and
//! comments, with correct handling of escapes, raw strings (`r#"…"#`),
//! byte strings, nested block comments, and the char-literal/lifetime
//! ambiguity.  No rustc internals (the workspace builds offline against
//! vendored shims; this tool must too).
//!
//! The lexer is deliberately lenient: unterminated constructs consume to
//! end of input instead of failing, so a half-edited file still produces
//! diagnostics for everything before the damage.

/// One lexed token.  `line`/`col` are 1-based; `col` counts bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: Tok,
    pub line: usize,
    pub col: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`as`, `use`, `fn`, …).
    Ident(String),
    /// String literal content, escapes left raw (good enough for keyword
    /// and `{}`-interpolation checks; never re-emitted).
    Str(String),
    /// Character or byte literal (content irrelevant to every rule).
    Char,
    /// Numeric literal (value irrelevant to every rule).
    Num,
    /// One byte of punctuation.
    Punct(char),
}

/// A comment, kept out of the token stream (rules never see comments;
/// the pragma scanner reads these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub line: usize,
    pub text: String,
}

#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advance one byte, tracking line/col.
    fn bump(&mut self) {
        if self.peek() == Some(b'\n') {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let mut c = Cursor {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(b) = c.peek() {
        let (line, col) = (c.line, c.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => c.bump(),
            b'/' if c.peek_at(1) == Some(b'/') => {
                let start = c.pos;
                while c.peek().is_some_and(|b| b != b'\n') {
                    c.bump();
                }
                out.comments.push(Comment {
                    line,
                    text: c.src[start..c.pos].to_string(),
                });
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                let start = c.pos;
                c.bump_n(2);
                let mut depth = 1usize;
                while depth > 0 {
                    match (c.peek(), c.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            c.bump_n(2);
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            c.bump_n(2);
                        }
                        (Some(_), _) => c.bump(),
                        (None, _) => break,
                    }
                }
                out.comments.push(Comment {
                    line,
                    text: c.src[start..c.pos].to_string(),
                });
            }
            b'"' => {
                let s = lex_plain_string(&mut c);
                out.tokens.push(Token {
                    kind: Tok::Str(s),
                    line,
                    col,
                });
            }
            b'\'' => lex_quote(&mut c, &mut out, line, col),
            b'0'..=b'9' => {
                lex_number(&mut c);
                out.tokens.push(Token {
                    kind: Tok::Num,
                    line,
                    col,
                });
            }
            _ if is_ident_start(b) => lex_ident_or_prefixed(&mut c, &mut out, line, col),
            _ => {
                out.tokens.push(Token {
                    kind: Tok::Punct(char::from(b)),
                    line,
                    col,
                });
                c.bump();
            }
        }
    }
    out
}

/// A `"…"` string with escapes; cursor on the opening quote.  Returns the
/// raw content (escapes unprocessed).
fn lex_plain_string(c: &mut Cursor) -> String {
    c.bump(); // opening quote
    let start = c.pos;
    loop {
        match c.peek() {
            None | Some(b'"') => break,
            Some(b'\\') => c.bump_n(2),
            Some(_) => c.bump(),
        }
    }
    let content = c.src[start..c.pos.min(c.src.len())].to_string();
    if c.peek() == Some(b'"') {
        c.bump();
    }
    content
}

/// A `'…'` construct: char literal or lifetime; cursor on the quote.
fn lex_quote(c: &mut Cursor, out: &mut Lexed, line: usize, col: usize) {
    // Escaped char ('\n'), or a single scalar followed by a closing quote
    // ('a', including multi-byte scalars) → char literal.  Anything else
    // ('static, '_, 'a as a label) → lifetime, skipped entirely: no rule
    // cares, and emitting it would confuse adjacency checks.
    let is_char = match c.peek_at(1) {
        Some(b'\\') => true,
        Some(b2) => {
            // Find the end of one UTF-8 scalar starting at pos+1.
            let mut end = c.pos + 2;
            if b2 >= 0x80 {
                while c.bytes.get(end).is_some_and(|&x| x & 0xC0 == 0x80) {
                    end += 1;
                }
            }
            c.bytes.get(end) == Some(&b'\'')
        }
        None => false,
    };
    if is_char {
        c.bump(); // quote
        if c.peek() == Some(b'\\') {
            c.bump_n(2);
            // Escapes like \u{1f600} run to the closing brace.
            while c.peek().is_some_and(|b| b != b'\'') {
                c.bump();
            }
        } else {
            while c.peek().is_some_and(|b| b != b'\'') {
                c.bump();
            }
        }
        if c.peek() == Some(b'\'') {
            c.bump();
        }
        out.tokens.push(Token {
            kind: Tok::Char,
            line,
            col,
        });
    } else {
        c.bump(); // quote
        while c.peek().is_some_and(is_ident_continue) {
            c.bump();
        }
    }
}

/// A numeric literal; cursor on the first digit.  Loose: consumes digits,
/// `_`, type suffixes, hex/binary bodies, and a fractional/exponent part.
fn lex_number(c: &mut Cursor) {
    while c
        .peek()
        .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
    {
        c.bump();
    }
    // `1.5`, `1.5e-3` — but not `0..10` or `1.method()`.
    if c.peek() == Some(b'.') && c.peek_at(1).is_some_and(|b| b.is_ascii_digit()) {
        c.bump();
        while c
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            c.bump();
        }
        // Signed exponent (`1.5e-3`): the `e` was consumed above.
        if (c.peek() == Some(b'-') || c.peek() == Some(b'+'))
            && c.bytes
                .get(c.pos.wrapping_sub(1))
                .is_some_and(|&b| b == b'e' || b == b'E')
        {
            c.bump();
            while c.peek().is_some_and(|b| b.is_ascii_digit()) {
                c.bump();
            }
        }
    }
}

/// Identifier, or one of the literal prefixes `r"…"`, `r#"…"#`, `b"…"`,
/// `br#"…"#`, `b'…'`, `r#ident`; cursor on the first byte.
fn lex_ident_or_prefixed(c: &mut Cursor, out: &mut Lexed, line: usize, col: usize) {
    let b = c.peek().unwrap_or(0);
    if b == b'r' || b == b'b' {
        // Count a possible raw-string introducer after the prefix.
        let after_b = if b == b'b' && c.peek_at(1) == Some(b'r') {
            2
        } else {
            1
        };
        let mut hashes = 0usize;
        while c.peek_at(after_b + hashes) == Some(b'#') {
            hashes += 1;
        }
        let quote_at = after_b + hashes;
        let starts_raw = (b == b'r' || after_b == 2) && c.peek_at(quote_at) == Some(b'"');
        let starts_byte_str =
            b == b'b' && after_b == 1 && hashes == 0 && c.peek_at(1) == Some(b'"');
        let starts_byte_char = b == b'b' && c.peek_at(1) == Some(b'\'');
        if starts_raw && hashes == 0 && quote_at == after_b {
            // r"…" / br"…": raw string, no hashes: runs to the next quote.
            c.bump_n(quote_at + 1);
            let start = c.pos;
            while c.peek().is_some_and(|x| x != b'"') {
                c.bump();
            }
            let content = c.src[start..c.pos.min(c.src.len())].to_string();
            if c.peek() == Some(b'"') {
                c.bump();
            }
            out.tokens.push(Token {
                kind: Tok::Str(content),
                line,
                col,
            });
            return;
        }
        if starts_raw {
            // r#"…"# with `hashes` hashes: runs to `"` + hashes `#`s.
            c.bump_n(quote_at + 1);
            let start = c.pos;
            let end;
            loop {
                match c.peek() {
                    None => {
                        end = c.pos;
                        break;
                    }
                    Some(b'"') => {
                        let mut n = 0usize;
                        while n < hashes && c.peek_at(1 + n) == Some(b'#') {
                            n += 1;
                        }
                        if n == hashes {
                            end = c.pos;
                            c.bump_n(1 + hashes);
                            break;
                        }
                        c.bump();
                    }
                    Some(_) => c.bump(),
                }
            }
            out.tokens.push(Token {
                kind: Tok::Str(c.src[start..end].to_string()),
                line,
                col,
            });
            return;
        }
        if starts_byte_str {
            c.bump(); // the `b`
            let s = lex_plain_string(c);
            out.tokens.push(Token {
                kind: Tok::Str(s),
                line,
                col,
            });
            return;
        }
        if starts_byte_char {
            c.bump(); // the `b`
            c.bump(); // the quote
            if c.peek() == Some(b'\\') {
                c.bump_n(2);
            }
            while c.peek().is_some_and(|x| x != b'\'') {
                c.bump();
            }
            if c.peek() == Some(b'\'') {
                c.bump();
            }
            out.tokens.push(Token {
                kind: Tok::Char,
                line,
                col,
            });
            return;
        }
        if b == b'r' && hashes == 1 && c.peek_at(quote_at).is_some_and(is_ident_start) {
            // Raw identifier r#ident: lex as the plain identifier.
            c.bump_n(2);
            let start = c.pos;
            while c.peek().is_some_and(is_ident_continue) {
                c.bump();
            }
            out.tokens.push(Token {
                kind: Tok::Ident(c.src[start..c.pos].to_string()),
                line,
                col,
            });
            return;
        }
    }
    let start = c.pos;
    while c.peek().is_some_and(is_ident_continue) {
        c.bump();
    }
    out.tokens.push(Token {
        kind: Tok::Ident(c.src[start..c.pos].to_string()),
        line,
        col,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // HashMap in a comment
            /* as u16 in /* a nested */ block */
            let s = "as u16 inside a string";
            let r = r#"HashMap "quoted" raw"#;
            let b = b"unwrap()";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"u16".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert_eq!(lex(src).comments.len(), 2);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let u = 'µ'; }";
        let l = lex(src);
        let chars = l.tokens.iter().filter(|t| t.kind == Tok::Char).count();
        assert_eq!(chars, 3);
        // Lifetimes leave no identifier named `a` behind.
        assert!(!idents(src).contains(&"a".to_string()));
    }

    #[test]
    fn positions_are_one_based_lines() {
        let src = "let a = 1;\nlet b = 2;";
        let l = lex(src);
        let b = l
            .tokens
            .iter()
            .find(|t| t.kind == Tok::Ident("b".into()))
            .expect("b lexed");
        assert_eq!(b.line, 2);
        assert_eq!(b.col, 5);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let src = "for i in 0..10 { let x = 1.5e-3; let s = 2.to_string(); }";
        let l = lex(src);
        let nums = l.tokens.iter().filter(|t| t.kind == Tok::Num).count();
        assert_eq!(nums, 4); // 0, 10, 1.5e-3, 2
        assert!(idents(src).contains(&"to_string".to_string()));
    }

    #[test]
    fn raw_strings_with_hashes_terminate_correctly() {
        let src = r###"let x = r##"contains "# inside"## ; let after = 1;"###;
        assert!(idents(src).contains(&"after".to_string()));
    }

    #[test]
    fn string_content_is_captured() {
        let l = lex("panic!(\"field {x} bad\");");
        let s = l
            .tokens
            .iter()
            .find_map(|t| match &t.kind {
                Tok::Str(s) => Some(s.clone()),
                _ => None,
            })
            .expect("string lexed");
        assert_eq!(s, "field {x} bad");
    }
}
