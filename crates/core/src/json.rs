//! The workspace's one JSON reader and its one string escaper.
//!
//! Every JSON document that crosses a process boundary is *written* with
//! `format!` — the service responses, traces, `/healthz`, the metrics
//! snapshot and BENCH reports each spell out their own schema — and every
//! string those writers embed goes through [`escape`]. Everything that
//! reads JSON back goes through [`parse`]: service requests, stream JSONL
//! lines, trace lines, `pfcim query`/`pfcim top` responses and BENCH
//! files.
//!
//! The reader is a strict RFC 8259 recursive-descent parser with three
//! properties the callers rely on:
//!
//! * **Numbers keep their source text** ([`Value::Num`]). [`Value::as_f64`]
//!   runs `str::parse::<f64>` on it, so a value reads back with the bits
//!   its writer's `{x}` formatting produced, and [`Value::as_u64`] reads
//!   digit-only text exactly — integers above 2^53 never pass through an
//!   `f64`. A printer may also echo a number exactly as received.
//! * **Objects reject duplicate keys** ([`ErrorKind::DuplicateKey`]), so
//!   no caller has to pick between the first and the last occurrence.
//! * **Nesting is capped** at [`MAX_DEPTH`], so a hostile document cannot
//!   exhaust the stack of the thread reading it.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

/// Deepest array/object nesting [`parse`] accepts. Every schema in the
/// workspace nests at most three levels.
pub const MAX_DEPTH: usize = 128;

/// Largest `f64` below which every integer is exactly representable
/// (2^53): the ceiling for integers written in non-digit form.
const MAX_EXACT_F64_INT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source text (already checked against the JSON
    /// number grammar).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (keys sort; duplicates are rejected at parse time).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number: `str::parse::<f64>` of its source text.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a non-negative integer. Digit-only text parses
    /// exactly (`None` past `u64::MAX`); any other spelling (`20.0`,
    /// `1e3`) must be an integral `f64` no larger than 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::Num(text) = self else {
            return None;
        };
        if text.bytes().all(|b| b.is_ascii_digit()) {
            return text.parse().ok();
        }
        let x: f64 = text.parse().ok()?;
        (x >= 0.0 && x.fract() == 0.0 && x <= MAX_EXACT_F64_INT).then_some(x as u64)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A character that cannot appear here; `expected` names what could.
    Unexpected {
        /// The offending character.
        found: char,
        /// What the grammar allows at this point.
        expected: &'static str,
    },
    /// A number that breaks the JSON number grammar.
    BadNumber,
    /// A malformed `\` escape or an unpaired UTF-16 surrogate.
    BadEscape,
    /// An object repeats this key.
    DuplicateKey(String),
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
    /// A complete value is followed by more than whitespace.
    TrailingData,
}

/// A [`parse`] failure: what went wrong and the byte offset it was found
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub kind: ErrorKind,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::UnexpectedEnd => write!(f, "unexpected end of JSON")?,
            ErrorKind::Unexpected { found, expected } => {
                write!(f, "expected {expected}, found {found:?}")?
            }
            ErrorKind::BadNumber => write!(f, "malformed number")?,
            ErrorKind::BadEscape => write!(f, "malformed escape")?,
            ErrorKind::DuplicateKey(key) => write!(f, "duplicate key {key:?}")?,
            ErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}")?,
            ErrorKind::TrailingData => write!(f, "trailing data after the JSON value")?,
        }
        write!(f, " at byte {}", self.at)
    }
}

impl std::error::Error for Error {}

/// Parse one complete JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error(ErrorKind::TrailingData));
    }
    Ok(v)
}

/// Escape `s` for the inside of a JSON string literal: `"`, `\`, `\n`,
/// `\t` and `\r` get their short escapes, other control characters
/// `\u00XX`; everything else passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, kind: ErrorKind) -> Error {
        Error { at: self.pos, kind }
    }

    /// `Unexpected` at the current position, or `UnexpectedEnd` past it.
    fn unexpected(&self, expected: &'static str) -> Error {
        match self.text[self.pos..].chars().next() {
            Some(found) => self.error(ErrorKind::Unexpected { found, expected }),
            None => self.error(ErrorKind::UnexpectedEnd),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8, expected: &'static str) -> Result<(), Error> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.unexpected("a JSON value"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected("a JSON value")),
        }
    }

    fn nested(&mut self, read: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(ErrorKind::TooDeep));
        }
        self.depth += 1;
        let v = read(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1; // '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            if self.peek() != Some(b'"') {
                return Err(self.unexpected("a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "':'")?;
            self.skip_ws();
            match map.entry(key) {
                Entry::Occupied(e) => {
                    return Err(Error {
                        at: key_at,
                        kind: ErrorKind::DuplicateKey(e.key().clone()),
                    })
                }
                Entry::Vacant(e) => e.insert(self.value()?),
            };
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(map));
            }
            self.expect(b',', "',' or '}'")?;
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            self.expect(b',', "',' or ']'")?;
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // character in one piece; those bytes never occur inside a
            // multi-byte UTF-8 sequence, so the run is whole characters.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.unexpected("an escaped control character")),
                None => return Err(self.error(ErrorKind::UnexpectedEnd)),
            }
        }
    }

    /// The character of one escape, the backslash already consumed.
    fn escape(&mut self) -> Result<char, Error> {
        let at = self.pos - 1;
        let bad = Error {
            at,
            kind: ErrorKind::BadEscape,
        };
        let c = match self
            .peek()
            .ok_or_else(|| self.error(ErrorKind::UnexpectedEnd))?
        {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                self.pos += 1;
                let code = self.hex4().ok_or(bad.clone())?;
                let code = if (0xd800..0xdc00).contains(&code) {
                    // A high surrogate must be followed by an escaped low one.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(bad);
                    }
                    self.pos += 2;
                    let low = self.hex4().ok_or(bad.clone())?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(bad);
                    }
                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    code
                };
                // Lone low surrogates are not characters.
                return char::from_u32(code).ok_or(bad);
            }
            _ => return Err(bad),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.bytes.get(self.pos..self.pos + 4)?;
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return None;
        }
        self.pos += 4;
        u32::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
    }

    /// Digits at the cursor; returns how many were consumed.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let bad = |p: &Self| Error {
            at: p.pos,
            kind: ErrorKind::BadNumber,
        };
        self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad(self)),
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(bad(self));
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(bad(self));
            }
        }
        Ok(Value::Num(self.text[start..self.pos].to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn num(text: &str) -> Value {
        Value::Num(text.to_owned())
    }

    #[test]
    fn parses_every_value_kind() {
        let doc =
            parse(r#" {"a": [1, -2.5e3, true, false, null], "s": "x\n\"Aé\u00e9\ud83d\ude00"} "#)
                .unwrap();
        let arr = doc.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[1], num("-2.5e3"));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[3].as_bool(), Some(false));
        assert_eq!(arr[4], Value::Null);
        assert_eq!(doc.get("s").and_then(Value::as_str), Some("x\n\"Aéé😀"));
        assert_eq!(parse("{}").unwrap(), Value::Obj(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), Value::Arr(Vec::new()));
        assert_eq!(
            parse(r#""\/\b\f\t\r""#).unwrap().as_str(),
            Some("/\u{8}\u{c}\t\r")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1 \"b\":2}",
            "{a:1}",
            "tru",
            "nul",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"raw\ttab\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"\\u12g4\"",
            "1 2",
            "{}x",
            "01",
            "1.",
            ".5",
            "-",
            "+1",
            "1e",
            "1e+",
            "-.5",
            "NaN",
            "inf",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let e = parse("{\"a\":1 \"b\":2}").unwrap_err();
        assert_eq!(e.at, 7);
        assert!(matches!(e.kind, ErrorKind::Unexpected { found: '"', .. }));
        assert_eq!(e.to_string(), "expected ',' or '}', found '\"' at byte 7");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = parse(r#"{"p": 0.9, "items": [1], "p": 0.2}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::DuplicateKey("p".into()));
        assert_eq!(e.at, 25);
        // Per object: the same key in sibling or nested objects is fine.
        assert!(parse(r#"{"a": {"p": 1}, "b": {"p": 2}, "p": 3}"#).is_ok());
        assert!(parse(r#"[{"p": 1}, {"p": 2}]"#).is_ok());
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&deep).unwrap_err().kind, ErrorKind::TooDeep);
        // An unterminated attack fails on depth, never on the stack.
        assert_eq!(
            parse(&"{\"a\":".repeat(100_000)).unwrap_err().kind,
            ErrorKind::TooDeep
        );
    }

    #[test]
    fn integers_are_exact() {
        assert_eq!(num("18446744073709551615").as_u64(), Some(u64::MAX));
        assert_eq!(num("18446744073709551616").as_u64(), None);
        assert_eq!(
            num("9007199254740993").as_u64(),
            Some(9_007_199_254_740_993)
        );
        assert_eq!(num("0").as_u64(), Some(0));
        // Other spellings go through f64 and stop at 2^53.
        assert_eq!(num("20.0").as_u64(), Some(20));
        assert_eq!(num("1e3").as_u64(), Some(1000));
        assert_eq!(num("-0").as_u64(), Some(0));
        assert_eq!(num("9007199254740992.0").as_u64(), Some(1 << 53));
        assert_eq!(num("9007199254740994.0").as_u64(), None);
        assert_eq!(num("1e19").as_u64(), None);
        assert_eq!(num("1.5").as_u64(), None);
        assert_eq!(num("-1").as_u64(), None);
        assert_eq!(Value::Str("1".into()).as_u64(), None);
        let doc = parse("[18446744073709551615, 18446744073709551616]").unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(u64::MAX));
        assert_eq!(arr[1].as_u64(), None);
    }

    #[test]
    fn escape_covers_the_special_characters() {
        assert_eq!(escape("plain_name"), "plain_name");
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\t\r\u{1}\u{1f}"), "\\t\\r\\u0001\\u001f");
        assert_eq!(escape("q\"x"), "q\\\"x");
        assert_eq!(escape("é😀\u{7f}"), "é😀\u{7f}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any string survives escape-then-parse. A quarter of the code
        /// points fold into ASCII so quotes, backslashes and control
        /// characters turn up often; the rest span the whole range, most
        /// of it outside the BMP (surrogates are not chars and drop out).
        #[test]
        fn escaped_strings_round_trip(
            s in proptest::collection::vec(0u32..0x110000, 0..40).prop_map(|codes| {
                codes
                    .into_iter()
                    .filter_map(|c| char::from_u32(if c % 4 == 0 { c % 0x80 } else { c }))
                    .collect::<String>()
            })
        ) {
            let doc = format!("\"{}\"", escape(&s));
            prop_assert_eq!(parse(&doc).unwrap(), Value::Str(s));
        }

        /// `format!("{x}")` of any finite f64 reads back bit for bit.
        #[test]
        fn formatted_floats_round_trip(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                let back = parse(&format!("{x}")).unwrap().as_f64().unwrap();
                prop_assert_eq!(back.to_bits(), x.to_bits());
            }
        }
    }
}
