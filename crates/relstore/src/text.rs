//! The text layer every `.exq` grammar shares: source spans, coded
//! faults, comment stripping, the one token stream of the predicate and
//! `expr` languages, and the did-you-mean helper.
//!
//! There is one grammar per DSL, owned by the engine: the schema and
//! predicate grammars in [`crate::parse`], the question and `expr`
//! grammars in `exq_core::qparse`. Each has a *syntax layer* (text →
//! unresolved AST with spans, plus every syntax [`Fault`]) and a
//! *lowering* (AST → engine value, plus every semantic [`Fault`]). The
//! strict entry points return the first fault as an [`Error`]; the
//! `exq-analyze` checker renders all of them.

use crate::error::Error;
use crate::predicate::CmpOp;

/// A source region on one line (1-based line and column, counted in
/// chars; `len` is the caret width, at least 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line. Line 0 means "whole file" (e.g. a missing
    /// directive).
    pub line: usize,
    /// 1-based char column; 0 when unknown.
    pub col: usize,
    /// Caret width in chars.
    pub len: usize,
}

impl Span {
    /// Span covering `len` chars starting at `line:col`.
    pub fn new(line: usize, col: usize, len: usize) -> Span {
        Span {
            line,
            col,
            len: len.max(1),
        }
    }

    /// Whole-file span (no line/col known).
    pub fn file() -> Span {
        Span {
            line: 0,
            col: 0,
            len: 1,
        }
    }

    /// Span of the subslice `sub` of `line` on line `line_no`.
    pub fn of(line_no: usize, line: &str, sub: &str) -> Span {
        Span::new(line_no, col_of(line, sub), sub.chars().count())
    }
}

/// One fault found in `.exq` text: a stable code from the
/// `exq-analyze` catalogue, where, what, and — when there is a concrete
/// fix — how to fix it.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Stable `E0xx` code.
    pub code: &'static str,
    /// Where in the file.
    pub span: Span,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: Option<String>,
}

impl Fault {
    /// A fault without help.
    pub fn new(code: &'static str, span: Span, message: impl Into<String>) -> Fault {
        Fault {
            code,
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a help suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Fault {
        self.help = Some(help.into());
        self
    }

    /// Attach "did you mean `…`?" when `suggestion` is `Some`.
    pub fn with_suggestion(self, suggestion: Option<impl std::fmt::Display>) -> Fault {
        match suggestion {
            Some(s) => self.with_help(format!("did you mean `{s}`?")),
            None => self,
        }
    }

    /// This fault as the strict entry points' error.
    pub fn into_error(self) -> Error {
        Error::Parse {
            code: self.code,
            line: self.span.line,
            col: self.span.col,
            message: self.message,
        }
    }
}

/// The strict entry points' rule: of a failed layer's faults (never
/// empty), the first is the error.
pub fn first_error(mut faults: Vec<Fault>) -> Error {
    faults.swap_remove(0).into_error()
}

/// 1-based column of `sub` within `line`. `sub` must be a subslice of
/// `line` (the grammars only ever slice, never reallocate), so the
/// pointer offset is the byte offset; columns count chars so multi-byte
/// characters earlier in the line don't skew the caret.
pub fn col_of(line: &str, sub: &str) -> usize {
    let offset = (sub.as_ptr() as usize).saturating_sub(line.as_ptr() as usize);
    if offset > line.len() || !line.is_char_boundary(offset) {
        return 1;
    }
    line[..offset].chars().count() + 1
}

/// Cut a `#` comment (outside single- or double-quoted strings) off the
/// end of `line`.
pub fn strip_comment(line: &str) -> &str {
    let mut in_quote: Option<char> = None;
    for (i, c) in line.char_indices() {
        match in_quote {
            Some(q) if c == q => in_quote = None,
            Some(_) => {}
            None if c == '\'' || c == '"' => in_quote = Some(c),
            None if c == '#' => return &line[..i],
            None => {}
        }
    }
    line
}

/// The non-blank lines of a DSL file, comments cut: `(line number, raw
/// line, trimmed content)`.
pub fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, raw, strip_comment(raw).trim()))
        .filter(|(_, _, line)| !line.is_empty())
}

/// Levenshtein edit distance (small inputs only — identifier lengths).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// "Did you mean …?" — the closest candidate within an edit distance
/// budget of one third of the name (minimum 1, maximum 3), ties broken
/// by first occurrence. Case-insensitive exact matches always win.
pub fn suggest<'a>(name: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let budget = (name.chars().count() / 3).clamp(1, 3);
    let mut best: Option<(usize, &str)> = None;
    for c in candidates {
        if c == name {
            continue;
        }
        let d = if c.eq_ignore_ascii_case(name) {
            0
        } else {
            edit_distance(name, c)
        };
        if d <= budget && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, c));
        }
    }
    best.map(|(_, c)| c)
}

// ---------------------------------------------------------------------
// The token stream of the predicate and `expr` languages
// ---------------------------------------------------------------------

/// One token. Keywords (`and`, `log`, …) are [`Tok::Word`]s; each
/// grammar decides which words it reserves. Numbers keep their text so
/// each grammar picks its own numeric type; a leading `-` is a separate
/// [`Tok::Minus`].
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (letters, digits, `_`, `.`).
    Word(String),
    /// String literal, quotes removed, doubled quotes unescaped.
    Str(String),
    /// Numeric literal text (digits and dots).
    Num(String),
    /// Comparison operator.
    Op(CmpOp),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
}

/// A lexed token stream with a cursor.
#[derive(Debug)]
pub struct Tokens {
    toks: Vec<(Tok, Span)>,
    pos: usize,
    /// Span just past the end of the text (end-of-input faults).
    end: Span,
}

impl Tokens {
    /// Lex `text`, found on line `line` at 0-based char offset `col0`.
    /// Lexical faults are `E011` and stop the lexer: one unlexable
    /// character would only cascade into parse faults.
    pub fn lex(text: &str, line: usize, col0: usize) -> Result<Tokens, Fault> {
        let mut toks = Vec::with_capacity(text.len() / 4 + 1);
        let mut chars = text.char_indices().peekable();
        // 0-based char column of the next char, in source coordinates.
        let mut col = col0;
        while let Some((start, c)) = chars.next() {
            let start_col = col;
            col += 1;
            let next = chars.peek().map(|&(_, n)| n);
            // Consume the following chars while `more` holds; the text
            // from `start` through them.
            let mut run = |more: fn(char) -> bool| {
                while chars.next_if(|&(_, n)| more(n)).is_some() {
                    col += 1;
                }
                let end = chars.peek().map_or(text.len(), |&(i, _)| i);
                text[start..end].to_string()
            };
            let tok = match c {
                c if c.is_whitespace() => continue,
                '(' => Tok::LParen,
                ')' => Tok::RParen,
                '+' => Tok::Plus,
                '-' => Tok::Minus,
                '*' => Tok::Star,
                '/' => Tok::Slash,
                '=' => Tok::Op(CmpOp::Eq),
                '!' | '<' | '>' => {
                    let op = match (c, next) {
                        ('!', Some('=')) | ('<', Some('>')) => CmpOp::Ne,
                        ('<', Some('=')) => CmpOp::Le,
                        ('>', Some('=')) => CmpOp::Ge,
                        ('<', _) => CmpOp::Lt,
                        ('>', _) => CmpOp::Gt,
                        _ => {
                            return Err(Fault::new(
                                "E011",
                                Span::new(line, start_col + 1, 1),
                                "unexpected character `!`",
                            ))
                        }
                    };
                    if matches!(op, CmpOp::Ne | CmpOp::Le | CmpOp::Ge) {
                        chars.next();
                        col += 1;
                    }
                    Tok::Op(op)
                }
                '\'' | '"' => {
                    let mut s = String::new();
                    loop {
                        let Some((_, q)) = chars.next() else {
                            return Err(Fault::new(
                                "E011",
                                Span::new(line, start_col + 1, col - start_col),
                                "unterminated string literal",
                            ));
                        };
                        col += 1;
                        if q != c {
                            s.push(q);
                        } else if chars.next_if(|&(_, n)| n == c).is_some() {
                            // A doubled quote is an escaped quote.
                            col += 1;
                            s.push(c);
                        } else {
                            break;
                        }
                    }
                    Tok::Str(s)
                }
                c if c.is_ascii_digit() || c == '.' => {
                    Tok::Num(run(|n| n.is_ascii_digit() || n == '.'))
                }
                c if c.is_alphanumeric() || c == '_' => {
                    Tok::Word(run(|n| n.is_alphanumeric() || n == '_' || n == '.'))
                }
                other => {
                    return Err(Fault::new(
                        "E011",
                        Span::new(line, start_col + 1, 1),
                        format!("unexpected character `{other}`"),
                    ))
                }
            };
            toks.push((tok, Span::new(line, start_col + 1, col - start_col)));
        }
        Ok(Tokens {
            toks,
            pos: 0,
            end: Span::new(line, col + 1, 1),
        })
    }

    /// The current token.
    pub fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    /// Is the current token the word `kw` (ASCII case-insensitive)?
    pub fn peek_word(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    /// Span of the current token, or of end-of-input.
    pub fn here(&self) -> Span {
        self.toks.get(self.pos).map_or(self.end, |&(_, span)| span)
    }

    /// Advance, returning the token passed over and its span. The
    /// cursor never moves back, so the token is moved out, not cloned.
    pub fn bump(&mut self) -> (Option<Tok>, Span) {
        let span = self.here();
        let tok = self
            .toks
            .get_mut(self.pos)
            .map(|(t, _)| std::mem::replace(t, Tok::RParen));
        if tok.is_some() {
            self.pos += 1;
        }
        (tok, span)
    }

    /// No tokens at all?
    pub fn is_empty(&self) -> bool {
        self.toks.is_empty()
    }

    /// Parse the whole stream with `item`, recovering from each fault at
    /// the next clause separator (a token for which `sep` holds, outside
    /// the parentheses open at the fault) so one run reports every
    /// clause's fault. `Ok` only when the stream parsed cleanly.
    pub fn parse_clauses<T>(
        mut self,
        mut item: impl FnMut(&mut Tokens) -> Result<T, Fault>,
        sep: impl Fn(&Tok) -> bool,
        trailing: &str,
    ) -> Result<T, Vec<Fault>> {
        let mut faults = Vec::new();
        loop {
            match item(&mut self) {
                Ok(v) if self.at_end() && faults.is_empty() => return Ok(v),
                Ok(_) if self.at_end() => break,
                Ok(_) => faults.push(Fault::new("E011", self.here(), trailing)),
                Err(f) => faults.push(f),
            }
            // Skip to the next separator outside the fault's parentheses.
            let mut depth = 0i64;
            loop {
                match self.bump().0 {
                    None => break,
                    Some(Tok::LParen) => depth += 1,
                    Some(Tok::RParen) => depth -= 1,
                    Some(t) if depth <= 0 && sep(&t) => break,
                    Some(_) => {}
                }
            }
            if self.at_end() {
                break;
            }
        }
        Err(faults)
    }

    fn at_end(&self) -> bool {
        self.pos == self.toks.len()
    }
}

/// How a message names a token: `` `x` ``, `a string literal`, or
/// `end of input`.
pub fn describe(tok: Option<&Tok>) -> String {
    let text = match tok {
        None => return "end of input".to_string(),
        Some(Tok::Str(_)) => return "a string literal".to_string(),
        Some(Tok::Word(w) | Tok::Num(w)) => w.as_str(),
        Some(Tok::Op(op)) => return format!("`{op}`"),
        Some(Tok::LParen) => "(",
        Some(Tok::RParen) => ")",
        Some(Tok::Plus) => "+",
        Some(Tok::Minus) => "-",
        Some(Tok::Star) => "*",
        Some(Tok::Slash) => "/",
    };
    format!("`{text}`")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_of_counts_chars_not_bytes() {
        let line = "αβγ rest";
        let sub = &line[line.find("rest").unwrap()..];
        assert_eq!(col_of(line, sub), 5);
    }

    #[test]
    fn col_of_is_total_on_foreign_slices() {
        // Not a subslice: must not panic, falls back to column 1.
        assert_eq!(col_of("abc", "zzzzzzzz"), 1);
    }

    #[test]
    fn strip_comment_respects_quotes() {
        assert_eq!(strip_comment("a = 1 # note"), "a = 1 ");
        assert_eq!(strip_comment("s = '#' # real"), "s = '#' ");
        assert_eq!(strip_comment("s = \"x # y\""), "s = \"x # y\"");
        assert_eq!(strip_comment("no comment"), "no comment");
    }

    fn lex(text: &str) -> Vec<(Tok, usize, usize)> {
        let mut t = Tokens::lex(text, 3, 10).unwrap();
        let mut out = Vec::new();
        while let (Some(tok), span) = t.bump() {
            out.push((tok, span.col, span.len));
        }
        out
    }

    #[test]
    fn tokens_carry_offset_spans() {
        assert_eq!(
            lex("year >= -5 and n <> 'O''Neil'"),
            [
                (Tok::Word("year".into()), 11, 4),
                (Tok::Op(CmpOp::Ge), 16, 2),
                (Tok::Minus, 19, 1),
                (Tok::Num("5".into()), 20, 1),
                (Tok::Word("and".into()), 22, 3),
                (Tok::Word("n".into()), 26, 1),
                (Tok::Op(CmpOp::Ne), 28, 2),
                (Tok::Str("O'Neil".into()), 31, 9),
            ]
        );
        assert_eq!(lex("(a/2.5)*b")[2], (Tok::Slash, 13, 1));
    }

    #[test]
    fn lexical_faults_point_at_the_offender() {
        let f = Tokens::lex("a @ b", 2, 4).unwrap_err();
        assert_eq!((f.code, f.span), ("E011", Span::new(2, 7, 1)));
        let f = Tokens::lex("x = 'open", 1, 0).unwrap_err();
        assert_eq!(f.span, Span::new(1, 5, 5));
        assert!(f.message.contains("unterminated"));
    }

    #[test]
    fn describe_names_tokens_not_debug_output() {
        assert_eq!(describe(None), "end of input");
        assert_eq!(describe(Some(&Tok::RParen)), "`)`");
        assert_eq!(describe(Some(&Tok::Str("x".into()))), "a string literal");
        assert_eq!(describe(Some(&Tok::Op(CmpOp::Le))), "`<=`");
    }
}
