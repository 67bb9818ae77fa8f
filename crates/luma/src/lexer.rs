//! Tokenizer for the Luma language.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Numeric literal.
    Num(f64),
    /// Identifier.
    Ident(String),
    // keywords
    /// `fn`.
    Fn,
    /// `var`.
    Var,
    /// `if`.
    If,
    /// `else`.
    Else,
    /// `while`.
    While,
    /// `for`.
    For,
    /// `return`.
    Return,
    /// `break`.
    Break,
    /// `true`.
    True,
    /// `false`.
    False,
    /// `nil`.
    Nil,
    /// `and`.
    And,
    /// `or`.
    Or,
    /// `not`.
    Not,
    // punctuation
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `,`.
    Comma,
    /// `;`.
    Semi,
    /// `=`.
    Assign,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `==`.
    EqEq,
    /// `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Num(n) => write!(f, "number {n}"),
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// Lexing / parsing error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line of the error.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Tokenizes a source string.
///
/// # Errors
/// Returns a [`ParseError`] on malformed numbers or unknown characters.
pub fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    let err = |line: u32, message: String| ParseError { line, message };

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                // exponent
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let n: f64 =
                    text.parse().map_err(|_| err(line, format!("malformed number `{text}`")))?;
                out.push(Spanned { tok: Tok::Num(n), line });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                let tok = match word {
                    "fn" => Tok::Fn,
                    "var" => Tok::Var,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "for" => Tok::For,
                    "return" => Tok::Return,
                    "break" => Tok::Break,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "nil" => Tok::Nil,
                    "and" => Tok::And,
                    "or" => Tok::Or,
                    "not" => Tok::Not,
                    _ => Tok::Ident(word.to_string()),
                };
                out.push(Spanned { tok, line });
            }
            _ => {
                let two = if i + 1 < bytes.len() { &src[i..i + 2] } else { "" };
                let (tok, len) = match two {
                    "==" => (Tok::EqEq, 2),
                    "!=" => (Tok::NotEq, 2),
                    "<=" => (Tok::Le, 2),
                    ">=" => (Tok::Ge, 2),
                    _ => {
                        let t = match c {
                            b'(' => Tok::LParen,
                            b')' => Tok::RParen,
                            b'{' => Tok::LBrace,
                            b'}' => Tok::RBrace,
                            b'[' => Tok::LBracket,
                            b']' => Tok::RBracket,
                            b',' => Tok::Comma,
                            b';' => Tok::Semi,
                            b'=' => Tok::Assign,
                            b'+' => Tok::Plus,
                            b'-' => Tok::Minus,
                            b'*' => Tok::Star,
                            b'/' => Tok::Slash,
                            b'%' => Tok::Percent,
                            b'<' => Tok::Lt,
                            b'>' => Tok::Gt,
                            other => {
                                return Err(err(
                                    line,
                                    format!("unexpected character `{}`", other as char),
                                ))
                            }
                        };
                        (t, 1)
                    }
                };
                out.push(Spanned { tok, line });
                i += len;
            }
        }
    }
    out.push(Spanned { tok: Tok::Eof, line });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("1 2.5 1e3 1.5e-2"),
            vec![Tok::Num(1.0), Tok::Num(2.5), Tok::Num(1000.0), Tok::Num(0.015), Tok::Eof]
        );
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("fn foo var x"),
            vec![Tok::Fn, Tok::Ident("foo".into()), Tok::Var, Tok::Ident("x".into()), Tok::Eof]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("== != <= >= < > = + - * / %"),
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::Assign,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Percent,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let ts = lex("x # comment\ny").unwrap();
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].line, 2);
    }

    #[test]
    fn unknown_character_errors() {
        assert!(lex("a ~ b").is_err());
    }
}
