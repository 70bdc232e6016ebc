use std::fmt;

use crate::db::SqlError;

/// A SQL token, borrowing its text from the statement it was lexed from.
///
/// Nothing is copied or case-folded while lexing: an identifier is folded
/// only when the parser turns it into an AST name ([`Token::name`]), and a
/// string literal is unescaped only when it becomes a value
/// ([`Token::text`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// Keyword or identifier. Unquoted words match and name
    /// case-insensitively (upper-cased, mirroring SQL folding); a quoted
    /// identifier keeps its case.
    Word {
        /// The word as written, without quotes.
        text: &'a str,
        /// Whether it was a `"quoted"` identifier.
        quoted: bool,
    },
    /// A string literal: single-quoted (`''` still doubled in `body`) or a
    /// `$$`-quoted body (verbatim).
    Str {
        /// The text between the quotes.
        body: &'a str,
        /// Whether `''` in `body` stands for one quote.
        doubled_quotes: bool,
    },
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// An operator or punctuation symbol (e.g. `=`, `<=`, `>>>`, `(`).
    Sym(&'a str),
}

/// A word's spelling as AST names see it — upper-cased unless quoted —
/// kept on the stack for matching against keywords. Anything longer than
/// [`Folded::MAX`] bytes, or not a word, folds to the empty string, which
/// no keyword is.
#[derive(Debug, Clone, Copy)]
pub struct Folded {
    len: u8,
    bytes: [u8; Folded::MAX],
}

impl Folded {
    /// Longer than every keyword.
    const MAX: usize = 16;

    /// The folded spelling.
    pub fn as_str(&self) -> &str {
        let bytes = self.bytes.get(..usize::from(self.len)).unwrap_or(&[]);
        std::str::from_utf8(bytes).unwrap_or("")
    }
}

impl<'a> Token<'a> {
    /// This token's spelling for keyword matching (see [`Folded`]).
    pub fn keyword(&self) -> Folded {
        let mut folded = Folded {
            len: 0,
            bytes: [0; Folded::MAX],
        };
        if let Token::Word { text, quoted } = *self {
            if let Some(spelling) = folded.bytes.get_mut(..text.len()) {
                spelling.copy_from_slice(text.as_bytes());
                if !quoted {
                    spelling.make_ascii_uppercase();
                }
                folded.len = text.len() as u8;
            }
        }
        folded
    }

    /// Whether this token is the given keyword (case-insensitive, quoted or
    /// not).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Word { text, .. } if text.eq_ignore_ascii_case(kw))
    }

    /// Whether this token is the given symbol.
    pub fn is_sym(&self, sym: &str) -> bool {
        matches!(self, Token::Sym(s) if *s == sym)
    }

    /// The AST name of a word: upper-cased unless quoted.
    pub fn name(&self) -> Option<String> {
        match *self {
            Token::Word {
                text,
                quoted: false,
            } => Some(text.to_ascii_uppercase()),
            Token::Word { text, quoted: true } => Some(text.to_string()),
            _ => None,
        }
    }

    /// The value of a string literal, `''` unescaped.
    pub fn text(&self) -> Option<String> {
        match *self {
            Token::Str {
                body,
                doubled_quotes: true,
            } => Some(body.replace("''", "'")),
            Token::Str { body, .. } => Some(body.to_string()),
            _ => None,
        }
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word { .. } => f.write_str(&self.name().unwrap_or_default()),
            Token::Str { .. } => write!(f, "'{}'", self.text().unwrap_or_default()),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Sym(s) => f.write_str(s),
        }
    }
}

const OPERATOR_CHARS: &[u8] = b"+-*/<>=~!@#%^&|`?";

/// Tokenizes a SQL string.
///
/// Supports `--` line comments, `/* */` block comments, dollar-quoted
/// strings (`$$ ... $$`, used by the CVE exploit listings for function
/// bodies), and multi-character user-defined operators such as `>>>`.
///
/// # Errors
///
/// Returns [`SqlError::Parse`] on unterminated strings/comments or stray
/// bytes.
pub fn tokenize(sql: &str) -> Result<Vec<Token<'_>>, SqlError> {
    let bytes = sql.as_bytes();
    // About one token per four bytes, so a short statement allocates once.
    let mut tokens = Vec::with_capacity(sql.len() / 4 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let close = sql[i + 2..]
                    .find("*/")
                    .ok_or_else(|| SqlError::Parse("unterminated block comment".into()))?;
                i += close + 4;
            }
            b'\'' => {
                let (token, consumed) = read_quoted(&sql[i..])?;
                tokens.push(token);
                i += consumed;
            }
            b'$' if bytes.get(i + 1) == Some(&b'$') => {
                let close = sql[i + 2..]
                    .find("$$")
                    .ok_or_else(|| SqlError::Parse("unterminated $$ string".into()))?;
                tokens.push(Token::Str {
                    body: &sql[i + 2..i + 2 + close],
                    doubled_quotes: false,
                });
                i += close + 4;
            }
            b'"' => {
                // Quoted identifier: preserved case, no folding.
                let close = sql[i + 1..]
                    .find('"')
                    .ok_or_else(|| SqlError::Parse("unterminated quoted identifier".into()))?;
                tokens.push(Token::Word {
                    text: &sql[i + 1..i + 1 + close],
                    quoted: true,
                });
                i += close + 2;
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() {
                    match bytes[i] {
                        b'0'..=b'9' => i += 1,
                        b'.' if !is_float && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                            is_float = true;
                            i += 1;
                        }
                        _ => break,
                    }
                }
                let text = &sql[start..i];
                if is_float {
                    tokens.push(Token::Float(text.parse().map_err(|_| {
                        SqlError::Parse(format!("bad float literal {text:?}"))
                    })?));
                } else {
                    tokens.push(Token::Int(text.parse().map_err(|_| {
                        SqlError::Parse(format!("bad integer literal {text:?}"))
                    })?));
                }
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token::Word {
                    text: &sql[start..i],
                    quoted: false,
                });
            }
            b'(' | b')' | b',' | b';' | b'.' => {
                tokens.push(Token::Sym(&sql[i..i + 1]));
                i += 1;
            }
            _ if OPERATOR_CHARS.contains(&b) => {
                let start = i;
                while i < bytes.len() && OPERATOR_CHARS.contains(&bytes[i]) {
                    // Stop a run before "--" or "/*" so trailing comments lex.
                    if i > start
                        && (bytes[i - 1] == b'-' && bytes[i] == b'-'
                            || bytes[i - 1] == b'/' && bytes[i] == b'*')
                    {
                        i -= 1;
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token::Sym(&sql[start..i]));
            }
            other => {
                return Err(SqlError::Parse(format!(
                    "unexpected byte {:?} at offset {i}",
                    other as char
                )))
            }
        }
    }
    Ok(tokens)
}

/// The string literal at the front of `s` (which starts with its opening
/// quote) and the bytes it spans, quotes included.
fn read_quoted(s: &str) -> Result<(Token<'_>, usize), SqlError> {
    debug_assert!(s.starts_with('\''));
    let bytes = s.as_bytes();
    let mut doubled_quotes = false;
    let mut i = 1;
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            if bytes.get(i + 1) == Some(&b'\'') {
                doubled_quotes = true;
                i += 2;
            } else {
                let token = Token::Str {
                    body: &s[1..i],
                    doubled_quotes,
                };
                return Ok((token, i + 1));
            }
        } else {
            i += 1;
        }
    }
    Err(SqlError::Parse("unterminated string literal".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(sql: &str) -> Vec<Token<'_>> {
        tokenize(sql).unwrap()
    }

    fn word(text: &str) -> Token<'_> {
        Token::Word {
            text,
            quoted: false,
        }
    }

    #[test]
    fn words_fold_to_uppercase() {
        let t = toks("select Name");
        assert_eq!(t, vec![word("select"), word("Name")]);
        assert_eq!(t[1].name().as_deref(), Some("NAME"));
        assert_eq!(t[0].keyword().as_str(), "SELECT");
        assert!(t[0].is_kw("select"));
    }

    #[test]
    fn quoted_identifiers_keep_their_case() {
        let t = toks("\"Mixed Case\"");
        assert_eq!(t[0].name().as_deref(), Some("Mixed Case"));
        assert_eq!(toks("\"select\"")[0].keyword().as_str(), "select");
        assert_eq!(toks("an_identifier_past_16")[0].keyword().as_str(), "");
        assert!(toks("\"select\"")[0].is_kw("SELECT"));
    }

    #[test]
    fn strings_preserve_case_and_escapes() {
        let t = toks("'it''s'");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].text().as_deref(), Some("it's"));
        assert_eq!(t[0].to_string(), "'it's'");
    }

    #[test]
    fn numbers_int_and_float() {
        assert_eq!(toks("42 2.75"), vec![Token::Int(42), Token::Float(2.75)]);
    }

    #[test]
    fn custom_operator_lexes_as_one_symbol() {
        let t = toks("col_to_leak >>> 0");
        assert_eq!(t[1], Token::Sym(">>>"));
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("SELECT 1 -- trailing\n+ 2 /* block */ ;"),
            vec![
                word("SELECT"),
                Token::Int(1),
                Token::Sym("+"),
                Token::Int(2),
                Token::Sym(";"),
            ]
        );
    }

    #[test]
    fn dollar_quoted_function_body() {
        let t = toks("AS $$BEGIN RAISE NOTICE 'leak % %', $1, $2; END$$ LANGUAGE plpgsql");
        assert_eq!(t[0], word("AS"));
        assert!(t[1]
            .text()
            .is_some_and(|s| s.contains("RAISE NOTICE 'leak")));
        assert_eq!(t[2], word("LANGUAGE"));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn qualified_names_lex_with_dot() {
        let t = toks("lineitem.l_qty");
        assert_eq!(t.len(), 3);
        assert!(t[1].is_sym("."));
    }

    #[test]
    fn comparison_operators() {
        let t = toks("a <= b <> c != d");
        assert_eq!(t[1], Token::Sym("<="));
        assert_eq!(t[3], Token::Sym("<>"));
        assert_eq!(t[5], Token::Sym("!="));
    }

    #[test]
    fn operator_run_stops_before_line_comment() {
        let t = toks("1+--c\n2");
        assert_eq!(t, vec![Token::Int(1), Token::Sym("+"), Token::Int(2)]);
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(toks("'héllo'")[0].text().as_deref(), Some("héllo"));
    }
}
