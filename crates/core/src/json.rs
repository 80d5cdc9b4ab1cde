//! Minimal JSON values for the serve wire protocol.
//!
//! `precipice serve` speaks line-delimited JSON on stdin/stdout
//! (maelstrom-style). The protocol needs exactly four things — parse a
//! command line, read scalar fields, build a response, serialize it on
//! one line — so this module hand-rolls a small recursive-descent parser
//! and printer instead of pulling in a serialization framework.
//!
//! Objects preserve insertion order, so serialized responses are
//! byte-deterministic: the same command sequence always produces the
//! same output lines (CI byte-diffs rely on this).
//!
//! The parser recurses once per level, so nesting is bounded at
//! [`MAX_DEPTH`]: a line of `[[[…` cannot overflow the stack.
//!
//! # Example
//!
//! ```
//! use precipice_core::json::Json;
//!
//! let cmd = Json::parse(r#"{"cmd":"crash","node":5}"#).unwrap();
//! assert_eq!(cmd.get("cmd").and_then(Json::as_str), Some("crash"));
//! assert_eq!(cmd.get("node").and_then(Json::as_u64), Some(5));
//!
//! let reply = Json::obj([("ok", Json::Bool(true)), ("killed", Json::from(5u64))]);
//! assert_eq!(reply.to_line(), r#"{"ok":true,"killed":5}"#);
//! ```

use std::fmt;

/// The deepest arrays and objects may nest; one level deeper is a
/// [`JsonError`]. Serve's commands nest one level.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Numbers are kept as `f64` (like JavaScript); [`Json::as_u64`] checks
/// that the value round-trips to an integer before handing it out, which
/// covers every count and node id the serve protocol carries (node ids
/// are well under 2⁵³).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, keys not deduplicated.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and what went wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// Human-readable description.
    pub what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up `key` in an object (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON value, requiring the input to be fully consumed
    /// (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// Serializes to a single compact line (no spaces, no newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

fn write_num(n: f64, out: &mut String) {
    use std::fmt::Write as _;
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> JsonError {
        JsonError {
            at: self.pos,
            what: what.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("malformed number")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&first) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // `pos` is on a character boundary: it only moves
                    // past ASCII bytes and whole characters.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty rest");
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads exactly four hex digits, advancing past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::rng;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "12345"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_line(), text, "round trip {text}");
        }
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn objects_preserve_order_and_nest() {
        let line =
            r#"{"cmd":"open","topology":"torus:8","shards":2,"deep":{"a":[1,2,{"b":null}]}}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.to_line(), line);
        assert_eq!(v.get("shards").and_then(Json::as_u64), Some(2));
        assert_eq!(
            v.get("deep")
                .and_then(|d| d.get("a"))
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn whitespace_and_escapes() {
        let v = Json::parse(" { \"a\\n\\\"b\" : [ 1 , true ] } ").unwrap();
        assert_eq!(v.to_line(), r#"{"a\n\"b":[1,true]}"#);
        let uni = Json::parse(r#""é😀""#).unwrap();
        assert_eq!(uni.as_str(), Some("é😀"));
        assert_eq!(Json::parse(&uni.to_line()).unwrap(), uni);
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse(r#"{"a":1} x"#).is_err());
        assert!(Json::parse("\"\u{01}\"").is_err());
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.at, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn nesting_is_bounded_not_fatal() {
        let nest = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        // On a 2 MB stack, the default for test threads: a million levels
        // once overflowed it.
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
                let e = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
                assert_eq!(e.at, MAX_DEPTH, "at the first bracket too deep");
                assert!(e.what.contains("nested deeper"), "{e}");
                let e = Json::parse(&nest(1_000_000)).unwrap_err();
                assert_eq!(e.at, MAX_DEPTH);
                let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
                assert!(Json::parse(&objects).is_err());
            });
        run.unwrap().join().unwrap();
    }

    #[test]
    fn parse_never_panics_and_every_ok_round_trips() {
        // The serve script CI pipes through `precipice serve`.
        const LINES: [&str; 8] = [
            r#"{"cmd":"open","id":"demo","topology":"torus:4"}"#,
            r#"{"cmd":"crash","id":"demo","node":9}"#,
            r#"{"cmd":"await","id":"demo","timeout_ms":30000}"#,
            r#"{"cmd":"read","id":"demo","node":8}"#,
            r#"{"cmd":"status","id":"demo"}"#,
            r#"{"cmd":"shutdown"}"#,
            r#"{"cmd":"open","id":"x","topology":"grid:4294967296x4294967296"}"#,
            r#"{"a":[1,-2.5e3,true,false,null,{"b":"é\n"}]}"#,
        ];
        const FRAGMENTS: [&str; 36] = [
            "{",
            "}",
            "[",
            "]",
            ",",
            ":",
            "\"",
            " ",
            "\t",
            "true",
            "false",
            "null",
            "-",
            "+",
            ".",
            "0",
            "7",
            "9007199254740993",
            "e",
            "E",
            "e308",
            "e-330",
            "E400",
            "\\",
            "\\n",
            "\\u",
            "\\u00e9",
            "\\ud83d\\ude00",
            "\\ud800",
            "\\udc00",
            "\\uzzzz",
            "é",
            "😀",
            "\u{1}",
            "\"cmd\":",
            "\"open\"",
        ];
        let mut parsed = 0;
        rng::cases("json_parse_fuzz", 20_000, |rng| {
            let mut bytes: Vec<u8> = Vec::new();
            match rng.gen_range(0..4usize) {
                // A serve line, mutated byte by byte.
                0 => {
                    bytes.extend_from_slice(rng.choose(&LINES).unwrap().as_bytes());
                    for _ in 0..rng.gen_range(0..=3usize) {
                        let at = rng.gen_range(0..=bytes.len());
                        match rng.gen_range(0..3usize) {
                            0 if at < bytes.len() => bytes[at] = rng.gen_range(0..=255u64) as u8,
                            1 => bytes.truncate(at),
                            _ => {
                                let fragment = rng.choose(&FRAGMENTS).unwrap().as_bytes();
                                bytes.splice(at..at, fragment.iter().copied());
                            }
                        }
                    }
                }
                // Nesting around the bound.
                1 => {
                    let levels = rng.gen_range(MAX_DEPTH - 4..=MAX_DEPTH + 4);
                    let open = if rng.gen_bool(0.5) { "[" } else { r#"{"k":"# };
                    let close = if open == "[" { "]" } else { "}" };
                    bytes.extend(open.repeat(levels).bytes().chain(b"0".iter().copied()));
                    bytes.extend(close.repeat(rng.gen_range(0..=levels)).bytes());
                }
                // A long digit run, maybe with a fraction and an exponent.
                2 => {
                    for _ in 0..rng.gen_range(1..=400usize) {
                        bytes.push(b'0' + rng.gen_range(0..10u64) as u8);
                    }
                    for part in [".5", "e", "-", "99"] {
                        if rng.gen_bool(0.5) {
                            bytes.extend_from_slice(part.as_bytes());
                        }
                    }
                }
                // Fragments over the JSON alphabet.
                _ => {
                    for _ in 0..rng.gen_range(0..=24usize) {
                        bytes.extend_from_slice(rng.choose(&FRAGMENTS).unwrap().as_bytes());
                    }
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            match Json::parse(&text) {
                Ok(value) => {
                    parsed += 1;
                    let line = value.to_line();
                    assert_eq!(Json::parse(&line), Ok(value), "{text:?} prints as {line:?}");
                }
                Err(e) => assert!(e.at <= text.len(), "{text:?}: {e}"),
            }
        });
        assert!(parsed > 2_000, "the fuzz parsed only {parsed} inputs");
    }

    #[test]
    fn integer_bounds() {
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Null.as_u64(), None);
    }
}
