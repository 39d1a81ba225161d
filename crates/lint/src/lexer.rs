//! A minimal, dependency-free Rust lexer.
//!
//! The linter's rules are token-sequence matchers, so the lexer only has to
//! get the *boundaries* right: comments (line, nested block, doc), string
//! literals (plain, raw, byte, with escapes decoded), char literals vs.
//! lifetimes, numbers, identifiers, and single-character punctuation. It
//! does not classify keywords or build a syntax tree — rules that need
//! structure (function spans, statement ends) recover it from the token
//! stream with brace/paren counting.
//!
//! Pragma comments (`// qpgc-lint: allow(<rule>) -- <justification>`) are
//! collected during lexing so the engine never has to re-scan raw text.

/// Token classification — just enough for sequence matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`for`, `fn`, `q_edges`, `HashMap`, ...).
    Ident,
    /// String literal; [`Token::text`] holds the *decoded* value.
    Str,
    /// Char or byte literal (value not decoded — no rule needs it).
    Char,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal (integers, floats, any radix; value not parsed).
    Num,
    /// Single punctuation character; [`Token::text`] is that character.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// Classification.
    pub kind: Kind,
    /// Identifier text, decoded string value, or punctuation character.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

/// A `// qpgc-lint: ...` comment found during lexing.
#[derive(Clone, Debug)]
pub struct PragmaComment {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Comment body after the `qpgc-lint:` marker, trimmed.
    pub body: String,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All pragma comments in source order.
    pub pragmas: Vec<PragmaComment>,
}

/// Lexes `src`, never failing: unterminated constructs run to end-of-file,
/// which is the forgiving behaviour a linter wants (rustc will report the
/// real error).
pub fn lex(src: &str) -> Lexed {
    Lexer {
        cs: src.chars().collect(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    cs: Vec<char>,
    i: usize,
    line: usize,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.cs.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.cs.get(self.i).copied();
        if c == Some('\n') {
            self.line += 1;
        }
        self.i += 1;
        c
    }

    fn push(&mut self, kind: Kind, text: String, line: usize) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if c.is_alphabetic() || c == '_' {
                self.ident_or_prefixed_string();
            } else if c == '"' {
                self.string(false);
            } else if c == '\'' {
                self.char_or_lifetime();
            } else if c.is_ascii_digit() {
                self.number();
            } else {
                let line = self.line;
                self.bump();
                self.push(Kind::Punct, c.to_string(), line);
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.i + 2;
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
        let text: String = self.cs[start..self.i].iter().collect();
        // Accept the pragma marker in plain and doc comments alike.
        let body = text.trim_start_matches(['/', '!']).trim();
        if let Some(rest) = body.strip_prefix("qpgc-lint:") {
            self.out.pragmas.push(PragmaComment {
                line,
                body: rest.trim().to_string(),
            });
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 && self.peek(0).is_some() {
            if self.peek(0) == Some('/') && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == Some('*') && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
    }

    fn ident_or_prefixed_string(&mut self) {
        let line = self.line;
        let start = self.i;
        while self
            .peek(0)
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            self.bump();
        }
        let word: String = self.cs[start..self.i].iter().collect();
        match word.as_str() {
            // Raw / byte string prefixes glue onto a following quote.
            "r" | "br" | "rb" if matches!(self.peek(0), Some('"') | Some('#')) => {
                self.string(true);
            }
            "b" if self.peek(0) == Some('"') => {
                self.string(false);
            }
            "b" if self.peek(0) == Some('\'') => {
                // Byte char literal: delegate to the char path.
                self.char_or_lifetime();
            }
            _ => self.push(Kind::Ident, word, line),
        }
    }

    /// Lexes a string literal starting at the current position (`"` or the
    /// `#`s of a raw string). `raw` selects raw-string rules (no escapes,
    /// terminated by `"` plus the same number of `#`s).
    fn string(&mut self, raw: bool) {
        let line = self.line;
        let mut hashes = 0usize;
        if raw {
            while self.peek(0) == Some('#') {
                hashes += 1;
                self.bump();
            }
        }
        self.bump(); // opening quote
        let mut value = String::new();
        while let Some(c) = self.peek(0) {
            if c == '"' {
                if !raw || (0..hashes).all(|k| self.peek(1 + k) == Some('#')) {
                    self.bump();
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
                value.push(c);
                self.bump();
            } else if c == '\\' && !raw {
                self.bump();
                self.escape(&mut value);
            } else {
                value.push(c);
                self.bump();
            }
        }
        self.push(Kind::Str, value, line);
    }

    /// Decodes one escape sequence (the leading `\` is already consumed).
    fn escape(&mut self, value: &mut String) {
        match self.bump() {
            Some('n') => value.push('\n'),
            Some('t') => value.push('\t'),
            Some('r') => value.push('\r'),
            Some('0') => value.push('\0'),
            Some('\\') => value.push('\\'),
            Some('"') => value.push('"'),
            Some('\'') => value.push('\''),
            Some('x') => {
                let mut v = 0u32;
                for _ in 0..2 {
                    if let Some(d) = self.peek(0).and_then(|c| c.to_digit(16)) {
                        v = v * 16 + d;
                        self.bump();
                    }
                }
                value.push(char::from_u32(v).unwrap_or('\u{FFFD}'));
            }
            Some('u') => {
                let mut v = 0u32;
                if self.peek(0) == Some('{') {
                    self.bump();
                    while let Some(c) = self.peek(0) {
                        if c == '}' {
                            self.bump();
                            break;
                        }
                        if let Some(d) = c.to_digit(16) {
                            v = v * 16 + d;
                        }
                        self.bump();
                    }
                }
                value.push(char::from_u32(v).unwrap_or('\u{FFFD}'));
            }
            // Line continuation: swallow the newline and leading whitespace.
            Some('\n') => {
                while self.peek(0).is_some_and(|c| c.is_whitespace() && c != '\n') {
                    self.bump();
                }
            }
            Some(other) => value.push(other),
            None => {}
        }
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // Current char is `'` (a `b` byte-char prefix was already consumed).
        let next = self.peek(1);
        if next.is_some_and(|c| c.is_alphanumeric() || c == '_')
            && next != Some('\\')
            && self.peek(2) != Some('\'')
        {
            // Lifetime: `'a`, `'static`, ...
            self.bump(); // '
            let start = self.i;
            while self
                .peek(0)
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                self.bump();
            }
            let name: String = self.cs[start..self.i].iter().collect();
            self.push(Kind::Lifetime, name, line);
            return;
        }
        // Char literal.
        self.bump(); // '
        if self.peek(0) == Some('\\') {
            self.bump();
            if self.peek(0) == Some('u') {
                self.bump();
                while self.peek(0).is_some_and(|c| c != '}' && c != '\'') {
                    self.bump();
                }
                self.bump(); // }
            } else {
                self.bump(); // escaped char (also covers \xNN's x; hex eaten below)
                while self.peek(0).is_some_and(|c| c != '\'') {
                    self.bump();
                }
            }
        } else {
            self.bump();
        }
        if self.peek(0) == Some('\'') {
            self.bump();
        }
        self.push(Kind::Char, String::new(), line);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.i;
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` continues the number; `0..n` leaves the range alone.
                self.bump();
            } else {
                break;
            }
        }
        let text: String = self.cs[start..self.i].iter().collect();
        self.push(Kind::Num, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_are_skipped_and_nested_blocks_close() {
        let toks = kinds("a // line\nb /* x /* y */ z */ c");
        let idents: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(idents, ["a", "b", "c"]);
    }

    #[test]
    fn strings_decode_escapes_and_raw_strings_do_not() {
        let toks = kinds(r#"let s = "  \"serve\": {\n"; let r = r"a\n";"#);
        let strs: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == Kind::Str)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(strs, ["  \"serve\": {\n", "a\\n"]);
    }

    #[test]
    fn hashed_raw_strings_terminate_on_matching_hashes() {
        let toks = kinds("r#\"quote \" inside\"# after");
        assert_eq!(toks[0], (Kind::Str, "quote \" inside".to_string()));
        assert_eq!(toks[1], (Kind::Ident, "after".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; }");
        let lifetimes = toks.iter().filter(|(k, _)| *k == Kind::Lifetime).count();
        let chars = toks.iter().filter(|(k, _)| *k == Kind::Char).count();
        assert_eq!((lifetimes, chars), (2, 2));
    }

    #[test]
    fn pragmas_are_collected_with_lines() {
        let src = "fn a() {}\n// qpgc-lint: allow(timing-gate) -- demo only\nfn b() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.pragmas.len(), 1);
        assert_eq!(lexed.pragmas[0].line, 2);
        assert_eq!(lexed.pragmas[0].body, "allow(timing-gate) -- demo only");
    }

    #[test]
    fn tokens_carry_lines_across_multiline_strings() {
        let src = "let s = \"one\ntwo\";\nlet t = 1;";
        let lexed = lex(src);
        let t_ident = lexed
            .tokens
            .iter()
            .find(|t| t.text == "t")
            .expect("ident t");
        assert_eq!(t_ident.line, 3);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let toks = kinds("for i in 0..n { let f = 1.5; }");
        assert!(toks.contains(&(Kind::Num, "0".to_string())));
        assert!(toks.contains(&(Kind::Num, "1.5".to_string())));
    }
}
