//! Hand-written recursive-descent parser for the statement language.
//!
//! Grammar (EBNF; keywords case-insensitive — the full reference with
//! examples lives in `docs/QUERYLANG.md`):
//!
//! ```text
//! statement := "SELECT" agg { "," agg } [ where ] [ mode ] [ "EXPLAIN" ]
//! where     := "WHERE" pred { "AND" pred }
//! pred      := dim "IN" "[" number "," number "]"
//!            | "WITHIN" "BALL" "(" "(" number { "," number } ")" "," number ")"
//! mode      := "WITH" "MODE" ( "exact" | "predict" | "auto" )
//! agg       := "count" "(" ")"
//!            | fn1 "(" dim ")"
//!            | "quantile" "(" dim "," number ")"
//!            | fn2 "(" dim "," dim ")"
//! fn1       := "sum" | "mean" | "avg" | "variance" | "var" | "min"
//!            | "max" | "median" | "p50" | "p95" | "p99"
//! fn2       := "corr" | "correlation" | "regress" | "regression"
//! dim       := "d" digits
//! ```
//!
//! An aggregate call parses straight to the engine's
//! [`sea_common::AggregateKind`], its sugar normalised on the way (`avg`
//! → `Mean`, `var` → `Variance`, `p95(d)` → `Quantile { q: 0.95 }`).
//!
//! Semantic rules enforced here (not just shape): quantile levels lie in
//! `[0, 1]`, range bounds are ordered, ball radii are positive, at most
//! one ball, no duplicate range dimensions, and ranges and balls never
//! mix (the core [`sea_common::Region`] is a box *or* a ball).

use sea_common::AggregateKind;

use crate::ast::{BallPred, LogicalPlan, ModeHint, RangePred, Selection};
use crate::error::ParseError;
use crate::lexer::{Lexer, Tok, Token};

/// Parses one statement into a [`LogicalPlan`].
///
/// # Errors
///
/// A span-annotated [`ParseError`] on the first violation; the error's
/// `Display` form is stable (golden-tested) and converts into
/// [`sea_common::SeaError::InvalidArgument`] via `From`.
///
/// ```
/// use sea_common::AggregateKind;
///
/// let plan = sea_lang::parse("SELECT mean(d0) WHERE d0 IN [0.0, 10.0]").unwrap();
/// assert_eq!(plan.aggregates, vec![AggregateKind::Mean { dim: 0 }]);
/// ```
pub fn parse(src: &str) -> Result<LogicalPlan, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut p = Parser {
        src,
        next: lexer.next_token(),
        lexer,
        prev_end: src.len(),
    };
    let plan = p.statement().and_then(|plan| match p.peek() {
        Some(tok) => Err(p.err_at(
            tok.start,
            tok.end,
            format!(
                "unexpected trailing input starting at {}",
                tok.kind.describe()
            ),
        )),
        None => Ok(plan),
    });
    // A lexical error anywhere in the statement wins over a parse error.
    p.lexer.finish()?;
    plan
}

/// Bytes in the longest aggregate name (`correlation`).
const LONGEST_AGGREGATE_NAME: usize = 11;

/// `name` in lower case, written into `buf`; empty when it is longer
/// than every aggregate name, so it matches none of them.
fn lowercase<'b>(name: &str, buf: &'b mut [u8; LONGEST_AGGREGATE_NAME]) -> &'b str {
    let Some(out) = buf.get_mut(..name.len()) else {
        return "";
    };
    for (o, b) in out.iter_mut().zip(name.bytes()) {
        *o = b.to_ascii_lowercase();
    }
    std::str::from_utf8(out).unwrap_or("")
}

struct Parser<'s> {
    src: &'s str,
    lexer: Lexer<'s>,
    /// The token after the last one consumed (`None` at the end).
    next: Option<Token<'s>>,
    /// End offset of the most recently consumed token.
    prev_end: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<Token<'s>> {
        self.next
    }

    /// Consumes the next token.
    fn bump(&mut self) {
        if let Some(t) = self.next {
            self.prev_end = t.end;
        }
        self.next = self.lexer.next_token();
    }

    fn err_at(&self, start: usize, end: usize, message: impl Into<String>) -> ParseError {
        ParseError::new(self.src, start, end, message)
    }

    /// Error at the current token, or at end of input.
    fn err_here(&self, expected: &str) -> ParseError {
        match self.peek() {
            Some(t) => self.err_at(
                t.start,
                t.end,
                format!("expected {expected}, found {}", t.kind.describe()),
            ),
            None => self.err_at(
                self.src.len(),
                self.src.len(),
                format!("expected {expected}, found end of statement"),
            ),
        }
    }

    /// Consumes the next token if it is the given keyword
    /// (case-insensitive).
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token {
            kind: Tok::Ident(s),
            ..
        }) = self.peek()
        {
            if s.eq_ignore_ascii_case(kw) {
                self.bump();
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err_here(&format!("keyword `{}`", kw)))
        }
    }

    fn expect_punct(&mut self, kind: Tok<'_>, what: &str) -> Result<Token<'s>, ParseError> {
        match self.peek() {
            Some(t) if t.kind == kind => {
                self.bump();
                Ok(t)
            }
            _ => Err(self.err_here(what)),
        }
    }

    fn expect_number(&mut self) -> Result<(f64, Token<'s>), ParseError> {
        match self.peek() {
            Some(
                t @ Token {
                    kind: Tok::Number(v),
                    ..
                },
            ) => {
                self.bump();
                Ok((v, t))
            }
            _ => Err(self.err_here("a number")),
        }
    }

    /// `d<digits>`, e.g. `d0`.
    fn expect_dim(&mut self) -> Result<usize, ParseError> {
        match self.peek() {
            Some(Token {
                kind: Tok::Ident(s),
                start,
                end,
            }) => {
                let digits = s.strip_prefix('d').unwrap_or("");
                if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                    self.bump();
                    digits.parse::<usize>().map_err(|_| {
                        self.err_at(start, end, format!("dimension index `{s}` is out of range"))
                    })
                } else {
                    Err(self.err_at(
                        start,
                        end,
                        format!("expected a dimension like `d0`, found `{s}`"),
                    ))
                }
            }
            _ => Err(self.err_here("a dimension like `d0`")),
        }
    }

    fn statement(&mut self) -> Result<LogicalPlan, ParseError> {
        if self.next.is_none() {
            return Err(self.err_at(0, self.src.len(), "empty statement"));
        }
        self.expect_keyword("SELECT")?;
        let mut aggregates = vec![self.aggregate()?];
        while matches!(
            self.peek(),
            Some(Token {
                kind: Tok::Comma,
                ..
            })
        ) {
            self.bump();
            aggregates.push(self.aggregate()?);
        }
        let selection = if self.eat_keyword("WHERE") {
            self.where_clause()?
        } else {
            Selection::All
        };
        let mode = if self.eat_keyword("WITH") {
            self.expect_keyword("MODE")?;
            self.mode_keyword()?
        } else {
            ModeHint::Auto
        };
        let explain = self.eat_keyword("EXPLAIN");
        Ok(LogicalPlan {
            aggregates,
            selection,
            mode,
            explain,
        })
    }

    fn mode_keyword(&mut self) -> Result<ModeHint, ParseError> {
        for (kw, mode) in [
            ("exact", ModeHint::Exact),
            ("predict", ModeHint::Predict),
            ("auto", ModeHint::Auto),
        ] {
            if self.eat_keyword(kw) {
                return Ok(mode);
            }
        }
        Err(self.err_here("a query mode: `exact`, `predict`, or `auto`"))
    }

    fn aggregate(&mut self) -> Result<AggregateKind, ParseError> {
        let Some(Token {
            kind: Tok::Ident(name),
            start,
            end,
        }) = self.peek()
        else {
            return Err(self.err_here("an aggregate function"));
        };
        self.bump();
        self.expect_punct(Tok::LParen, "`(`")?;
        let mut buf = [0; LONGEST_AGGREGATE_NAME];
        let kind = match lowercase(name, &mut buf) {
            "count" => {
                if !matches!(
                    self.peek(),
                    Some(Token {
                        kind: Tok::RParen,
                        ..
                    })
                ) {
                    let (s, e) = self
                        .peek()
                        .map_or((self.src.len(), self.src.len()), |t| (t.start, t.end));
                    return Err(self.err_at(s, e, "count() takes no arguments"));
                }
                AggregateKind::Count
            }
            "sum" => AggregateKind::Sum {
                dim: self.expect_dim()?,
            },
            "mean" | "avg" => AggregateKind::Mean {
                dim: self.expect_dim()?,
            },
            "variance" | "var" => AggregateKind::Variance {
                dim: self.expect_dim()?,
            },
            "min" => AggregateKind::Min {
                dim: self.expect_dim()?,
            },
            "max" => AggregateKind::Max {
                dim: self.expect_dim()?,
            },
            "median" => AggregateKind::Median {
                dim: self.expect_dim()?,
            },
            "p50" => AggregateKind::Quantile {
                dim: self.expect_dim()?,
                q: 0.5,
            },
            "p95" => AggregateKind::Quantile {
                dim: self.expect_dim()?,
                q: 0.95,
            },
            "p99" => AggregateKind::Quantile {
                dim: self.expect_dim()?,
                q: 0.99,
            },
            "quantile" => {
                let dim = self.expect_dim()?;
                self.expect_punct(Tok::Comma, "`,`")?;
                let (q, qtok) = self.expect_number()?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(self.err_at(
                        qtok.start,
                        qtok.end,
                        format!("quantile level must be within [0, 1], got {q:?}"),
                    ));
                }
                AggregateKind::Quantile { dim, q }
            }
            "corr" | "correlation" => {
                let x = self.expect_dim()?;
                self.expect_punct(Tok::Comma, "`,`")?;
                AggregateKind::Correlation {
                    x,
                    y: self.expect_dim()?,
                }
            }
            "regress" | "regression" => {
                let x = self.expect_dim()?;
                self.expect_punct(Tok::Comma, "`,`")?;
                AggregateKind::Regression {
                    x,
                    y: self.expect_dim()?,
                }
            }
            _ => {
                return Err(self.err_at(
                    start,
                    end,
                    format!(
                        "expected aggregate function, found `{}`",
                        name.to_ascii_lowercase()
                    ),
                ))
            }
        };
        self.expect_punct(Tok::RParen, "`)`")?;
        Ok(kind)
    }

    fn where_clause(&mut self) -> Result<Selection, ParseError> {
        let mut ranges: Vec<RangePred> = Vec::new();
        let mut ball: Option<(BallPred, (usize, usize))> = None;
        loop {
            let pred_start = self
                .peek()
                .map_or((self.src.len(), self.src.len()), |t| (t.start, t.end));
            if self.eat_keyword("WITHIN") {
                let b = self.ball_pred()?;
                let span = (pred_start.0, self.prev_end);
                if ball.is_some() {
                    return Err(self.err_at(
                        span.0,
                        span.1,
                        "at most one ball predicate is allowed",
                    ));
                }
                ball = Some((b, span));
            } else {
                let dim = self.expect_dim().map_err(|_| {
                    self.err_here("a predicate: `d<i> IN [lo, hi]` or `WITHIN BALL((…), r)`")
                })?;
                self.expect_keyword("IN")?;
                let open = self.expect_punct(Tok::LBracket, "`[`")?;
                let (lo, _) = self.expect_number()?;
                self.expect_punct(Tok::Comma, "`,`")?;
                let (hi, _) = self.expect_number()?;
                let close = self.expect_punct(Tok::RBracket, "`]`")?;
                if lo > hi {
                    return Err(self.err_at(
                        open.start,
                        close.end,
                        format!("empty range: lower bound {lo:?} exceeds upper bound {hi:?}"),
                    ));
                }
                if ranges.iter().any(|r| r.dim == dim) {
                    return Err(self.err_at(
                        pred_start.0,
                        self.prev_end,
                        format!("duplicate range predicate for `d{dim}`"),
                    ));
                }
                ranges.push(RangePred { dim, lo, hi });
            }
            if !self.eat_keyword("AND") {
                break;
            }
        }
        match (ranges.is_empty(), ball) {
            (true, Some((b, _))) => Ok(Selection::Ball(b)),
            (false, None) => {
                ranges.sort_by_key(|r| r.dim);
                Ok(Selection::Ranges(ranges))
            }
            (false, Some((_, span))) => Err(self.err_at(
                span.0,
                span.1,
                "range and ball predicates cannot be combined: a selection is one box or one ball",
            )),
            (true, None) => Err(self.err_here("a predicate after `WHERE`")),
        }
    }

    /// `BALL ( ( n {, n} ) , n )` — `WITHIN` already consumed.
    fn ball_pred(&mut self) -> Result<BallPred, ParseError> {
        self.expect_keyword("BALL")?;
        self.expect_punct(Tok::LParen, "`(`")?;
        self.expect_punct(Tok::LParen, "`(`")?;
        let mut center = vec![self.expect_number()?.0];
        while matches!(
            self.peek(),
            Some(Token {
                kind: Tok::Comma,
                ..
            })
        ) {
            self.bump();
            center.push(self.expect_number()?.0);
        }
        self.expect_punct(Tok::RParen, "`)`")?;
        self.expect_punct(Tok::Comma, "`,`")?;
        let (radius, rtok) = self.expect_number()?;
        if radius <= 0.0 {
            return Err(self.err_at(
                rtok.start,
                rtok.end,
                format!("ball radius must be positive, got {radius:?}"),
            ));
        }
        self.expect_punct(Tok::RParen, "`)`")?;
        Ok(BallPred { center, radius })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_headline_statement() {
        let plan = parse(
            "SELECT mean(d0), p95(d1) WHERE d0 IN [0.0, 10.0] AND d1 IN [5.0, 6.0] \
             WITH MODE exact EXPLAIN",
        )
        .unwrap();
        assert_eq!(
            plan.aggregates,
            vec![
                AggregateKind::Mean { dim: 0 },
                AggregateKind::Quantile { dim: 1, q: 0.95 }
            ]
        );
        assert_eq!(plan.mode, ModeHint::Exact);
        assert!(plan.explain);
        let Selection::Ranges(r) = &plan.selection else {
            panic!("expected ranges");
        };
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn keywords_are_case_insensitive_and_ranges_sort() {
        let plan = parse("select Count() where d1 in [1.0, 2.0] and d0 in [3.0, 4.0]").unwrap();
        let Selection::Ranges(r) = &plan.selection else {
            panic!("expected ranges");
        };
        assert_eq!((r[0].dim, r[1].dim), (0, 1));
    }

    #[test]
    fn sugar_normalizes() {
        let plan = parse("SELECT avg(d2), var(d0), p50(d1), correlation(d0, d1)").unwrap();
        assert_eq!(
            plan.aggregates,
            vec![
                AggregateKind::Mean { dim: 2 },
                AggregateKind::Variance { dim: 0 },
                AggregateKind::Quantile { dim: 1, q: 0.5 },
                AggregateKind::Correlation { x: 0, y: 1 },
            ]
        );
    }

    #[test]
    fn ball_selection_parses() {
        let plan = parse("SELECT count() WHERE WITHIN BALL((50.0, 50.0), 10.0)").unwrap();
        assert_eq!(
            plan.selection,
            Selection::Ball(BallPred {
                center: vec![50.0, 50.0],
                radius: 10.0,
            })
        );
    }

    #[test]
    fn structural_errors_have_spans() {
        for (stmt, needle) in [
            ("", "empty statement"),
            ("FETCH count()", "expected keyword `SELECT`"),
            ("SELECT frob(d0)", "expected aggregate function"),
            ("SELECT count(d0)", "count() takes no arguments"),
            ("SELECT mean(x)", "expected a dimension like `d0`"),
            ("SELECT quantile(d0, 1.5)", "quantile level must be within"),
            ("SELECT count() WHERE d0 IN [5.0, 2.0]", "empty range"),
            (
                "SELECT count() WHERE d0 IN [0.0, 1.0] AND d0 IN [2.0, 3.0]",
                "duplicate range predicate",
            ),
            (
                "SELECT count() WHERE d0 IN [0.0, 1.0] AND WITHIN BALL((0.0), 1.0)",
                "cannot be combined",
            ),
            (
                "SELECT count() WHERE WITHIN BALL((0.0), 1.0) AND WITHIN BALL((2.0), 1.0)",
                "at most one ball",
            ),
            (
                "SELECT count() WHERE WITHIN BALL((0.0), -1.0)",
                "radius must be positive",
            ),
            ("SELECT count() WITH MODE turbo", "a query mode"),
            ("SELECT count() garbage", "unexpected trailing input"),
            ("SELECT mean(d0", "expected `)`"),
        ] {
            let err = parse(stmt).unwrap_err();
            assert!(
                err.message.contains(needle) || err.to_string().contains(needle),
                "statement {stmt:?}: expected {needle:?} in {:?}",
                err.to_string()
            );
            assert!(err.end <= stmt.len() || err.start >= stmt.len());
        }
    }
}
