//! Tokenizer for the statement language.
//!
//! Produces identifiers/keywords, numeric literals, and punctuation,
//! each carrying its byte span so the parser can report exact error
//! locations. `--` starts a comment running to the end of the line
//! (SQL convention), which is what lets workload-replay files carry
//! annotations without a separate preprocessor.
//!
//! Tokens are produced on demand and borrow their text from the
//! statement, so lexing allocates nothing. A lexical error ends the
//! stream and waits in the [`Lexer`] until [`Lexer::finish`], which
//! lexes whatever the parser left unread: the first lexical error of a
//! statement is reported ahead of any parse error, as if the statement
//! had been tokenized whole before parsing.

use crate::error::ParseError;

/// One token kind. Keywords are lexed as [`Tok::Ident`] and resolved
/// case-insensitively by the parser, so error messages can echo the
/// user's original spelling. An identifier borrows its text from the
/// statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Tok<'s> {
    Ident(&'s str),
    Number(f64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
}

impl Tok<'_> {
    /// How the token reads in an error message.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Number(n) => format!("`{n:?}`"),
            Tok::LParen => "`(`".to_string(),
            Tok::RParen => "`)`".to_string(),
            Tok::LBracket => "`[`".to_string(),
            Tok::RBracket => "`]`".to_string(),
            Tok::Comma => "`,`".to_string(),
        }
    }
}

/// A token plus its byte span in the source statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'s> {
    pub kind: Tok<'s>,
    pub start: usize,
    pub end: usize,
}

/// Tokenizes a statement on demand, skipping whitespace and `--`
/// comments.
pub(crate) struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    /// The lexical error that ended the stream, if one has.
    error: Option<ParseError>,
}

impl<'s> Lexer<'s> {
    pub(crate) fn new(src: &'s str) -> Self {
        Lexer {
            src,
            pos: 0,
            error: None,
        }
    }

    /// The next token; `None` at the end of the statement or once a
    /// lexical error has ended the stream.
    pub(crate) fn next_token(&mut self) -> Option<Token<'s>> {
        if self.error.is_some() {
            return None;
        }
        match lex_one(self.src, &mut self.pos) {
            Ok(tok) => tok,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    /// Lexes the rest of the statement and returns its first lexical
    /// error, if it has one.
    pub(crate) fn finish(mut self) -> Result<(), ParseError> {
        while self.next_token().is_some() {}
        self.error.map_or(Ok(()), Err)
    }
}

/// Lexes the token at or after `*i`, advancing `*i` past it; `None` at
/// the end of the statement.
fn lex_one<'s>(src: &'s str, i: &mut usize) -> Result<Option<Token<'s>>, ParseError> {
    let bytes = src.as_bytes();
    loop {
        let Some(&b) = bytes.get(*i) else {
            return Ok(None);
        };
        if b.is_ascii_whitespace() {
            *i += 1;
        } else if b == b'-' && bytes.get(*i + 1) == Some(&b'-') {
            while *i < bytes.len() && bytes[*i] != b'\n' {
                *i += 1;
            }
        } else {
            break;
        }
    }
    let b = bytes[*i];
    let start = *i;
    let punct = |i: &mut usize, tok| {
        *i += 1;
        tok
    };
    let kind = match b {
        b'(' => punct(i, Tok::LParen),
        b')' => punct(i, Tok::RParen),
        b'[' => punct(i, Tok::LBracket),
        b']' => punct(i, Tok::RBracket),
        b',' => punct(i, Tok::Comma),
        b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
            while *i < bytes.len() && (bytes[*i] == b'_' || bytes[*i].is_ascii_alphanumeric()) {
                *i += 1;
            }
            Tok::Ident(&src[start..*i])
        }
        b'0'..=b'9' | b'.' => lex_number(src, bytes, i)?,
        b'-' | b'+' if matches!(bytes.get(*i + 1), Some(b'0'..=b'9' | b'.')) => {
            lex_number(src, bytes, i)?
        }
        _ => {
            let ch = src[start..].chars().next().unwrap_or('?');
            return Err(ParseError::new(
                src,
                start,
                start + ch.len_utf8(),
                format!("unexpected character `{ch}`"),
            ));
        }
    };
    Ok(Some(Token {
        kind,
        start,
        end: *i,
    }))
}

/// Lexes one numeric literal starting at `*i` (sign already vetted by
/// the caller). Accepts `[+-]?digits[.digits][eE[+-]digits]`.
fn lex_number<'s>(src: &str, bytes: &[u8], i: &mut usize) -> Result<Tok<'s>, ParseError> {
    let start = *i;
    if matches!(bytes[*i], b'-' | b'+') {
        *i += 1;
    }
    while *i < bytes.len() && bytes[*i].is_ascii_digit() {
        *i += 1;
    }
    if *i < bytes.len() && bytes[*i] == b'.' {
        *i += 1;
        while *i < bytes.len() && bytes[*i].is_ascii_digit() {
            *i += 1;
        }
    }
    if *i < bytes.len() && matches!(bytes[*i], b'e' | b'E') {
        *i += 1;
        if *i < bytes.len() && matches!(bytes[*i], b'-' | b'+') {
            *i += 1;
        }
        while *i < bytes.len() && bytes[*i].is_ascii_digit() {
            *i += 1;
        }
    }
    let text = &src[start..*i];
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Tok::Number(v)),
        Ok(_) => Err(ParseError::new(
            src,
            start,
            *i,
            format!("numeric literal `{text}` overflows f64"),
        )),
        Err(_) => Err(ParseError::new(
            src,
            start,
            *i,
            format!("invalid number literal `{text}`"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole statement's tokens, or its first lexical error.
    fn lex(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
        let mut lexer = Lexer::new(src);
        let toks = std::iter::from_fn(|| lexer.next_token()).collect();
        lexer.finish().map(|()| toks)
    }

    #[test]
    fn lexes_punctuation_idents_and_numbers() {
        let toks = lex("SELECT mean(d0), p95(d1)").unwrap();
        assert_eq!(toks.len(), 10);
        assert_eq!(toks[0].kind, Tok::Ident("SELECT"));
        assert_eq!(toks[2].kind, Tok::LParen);
        assert_eq!((toks[0].start, toks[0].end), (0, 6));
    }

    #[test]
    fn lexes_signed_and_scientific_numbers() {
        let toks = lex("[-5.5, 1e3]").unwrap();
        assert_eq!(toks[1].kind, Tok::Number(-5.5));
        assert_eq!(toks[3].kind, Tok::Number(1000.0));
    }

    #[test]
    fn comments_run_to_end_of_line() {
        let toks = lex("count() -- trailing note\n").unwrap();
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn rejects_unknown_characters_with_span() {
        let err = lex("SELECT %").unwrap_err();
        assert_eq!((err.start, err.end), (7, 8));
        assert!(err.message.contains('%'), "{}", err.message);
    }

    #[test]
    fn rejects_overflowing_literals() {
        let err = lex("1e999").unwrap_err();
        assert!(err.message.contains("overflows"), "{}", err.message);
    }
}
