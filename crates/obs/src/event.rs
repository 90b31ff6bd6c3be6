//! Structured trace events and their JSONL codec.
//!
//! One event per line: `{"ev": "<kind>", "<field>": <value>, ...}` with
//! string, integer, float, and boolean field values.
//!
//! This module is also the workspace's one JSON codec. Every JSON line
//! the workspace reads or writes — trace events, dataset entries
//! (`dda_core::json`), runtime journal records and the daemon's wire
//! frames — is such a flat object, written by [`ObjectWriter`] (with
//! [`escape_into`]'s RFC 8259 minimal escaping) and read by
//! [`decode_object`]. The crate sits at the bottom of the dependency
//! graph, so every crate above shares the one implementation.
//!
//! [`read_trace`] mirrors the runtime journal's durability contract: a
//! torn **final** line (a run killed mid-write) is dropped silently, a
//! malformed line anywhere else is a hard [`InvalidData`] error.
//!
//! [`InvalidData`]: std::io::ErrorKind::InvalidData

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Read as _};
use std::path::Path;

/// A field value in a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string (escaped on encode).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer (encoded only for negatives; non-negative numbers
    /// parse back as [`Value::U64`]).
    I64(i64),
    /// A finite float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// The string content, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content as `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }
}

/// One structured trace event: a kind plus ordered `(name, value)` fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event kind (the `"ev"` field), e.g. `"stage"`, `"span"`, `"counter"`.
    pub kind: String,
    /// Fields in encode order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Creates an event of `kind` with no fields.
    pub fn new(kind: impl Into<String>) -> Event {
        Event {
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// Appends a string field.
    #[must_use]
    pub fn str(mut self, name: &str, v: impl Into<String>) -> Event {
        self.fields.push((name.to_string(), Value::Str(v.into())));
        self
    }

    /// Appends an unsigned-integer field.
    #[must_use]
    pub fn u64(mut self, name: &str, v: u64) -> Event {
        self.fields.push((name.to_string(), Value::U64(v)));
        self
    }

    /// Appends a float field.
    #[must_use]
    pub fn f64(mut self, name: &str, v: f64) -> Event {
        self.fields.push((name.to_string(), Value::F64(v)));
        self
    }

    /// Appends a boolean field.
    #[must_use]
    pub fn bool(mut self, name: &str, v: bool) -> Event {
        self.fields.push((name.to_string(), Value::Bool(v)));
        self
    }

    /// Looks a field up by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// Appends `s` to `out` with JSON string escaping: `"`, `\` and the
/// control characters U+0000..U+001F are escaped (the named short forms
/// for `\n`, `\r`, `\t`, `\u00XX` for the rest); everything else,
/// non-ASCII included, passes through raw. The workspace's only escaper.
pub fn escape_into(s: &str, out: &mut String) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// [`escape_into`] into a fresh string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Writes one flat JSON object, `{"key": value, ...}`, into a borrowed
/// buffer: the workspace's only JSON writer. Values are borrowed and
/// escaped straight into the buffer; [`finish`](Self::finish) closes the
/// object.
///
/// ```
/// let mut line = String::new();
/// let mut w = dda_obs::event::ObjectWriter::new(&mut line);
/// w.str("name", "a \"q\"").u64("n", 3).bool("ok", true);
/// w.finish();
/// assert_eq!(line, r#"{"name": "a \"q\"", "n": 3, "ok": true}"#);
/// ```
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes the separator and `"name": `, returning the buffer.
    fn key(&mut self, name: &str) -> &mut String {
        self.out.push_str(if self.empty { "\"" } else { ", \"" });
        self.empty = false;
        escape_into(name, self.out);
        self.out.push_str("\": ");
        self.out
    }

    /// Writes a number or boolean, whose `Display` form is its JSON.
    fn literal(&mut self, name: &str, v: impl std::fmt::Display) -> &mut Self {
        let _ = write!(self.key(name), "{v}");
        self
    }

    /// Writes a string field.
    pub fn str(&mut self, name: &str, v: &str) -> &mut Self {
        let out = self.key(name);
        out.push('"');
        escape_into(v, out);
        out.push('"');
        self
    }

    /// Writes an unsigned-integer field.
    pub fn u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.literal(name, v)
    }

    /// Writes a float field; finite by contract (`3.0` is written `3`).
    pub fn f64(&mut self, name: &str, v: f64) -> &mut Self {
        self.literal(name, v)
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, name: &str, v: bool) -> &mut Self {
        self.literal(name, v)
    }

    /// Writes a field of any [`Value`] kind.
    pub fn value(&mut self, name: &str, v: &Value) -> &mut Self {
        match v {
            Value::Str(s) => self.str(name, s),
            Value::U64(n) => self.literal(name, n),
            Value::I64(n) => self.literal(name, n),
            Value::F64(n) => self.literal(name, n),
            Value::Bool(b) => self.literal(name, b),
        }
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Serializes one event to a single JSON line (no trailing newline):
/// `"ev"` first, then the fields in order.
pub fn encode(ev: &Event) -> String {
    let mut out = String::with_capacity(64);
    let mut w = ObjectWriter::new(&mut out);
    w.str("ev", &ev.kind);
    for (name, v) in &ev.fields {
        w.value(name, v);
    }
    w.finish();
    out
}

/// Decodes one flat JSON object, `{"key": value, ...}`, into its fields
/// in line order: the workspace's only JSON reader.
///
/// It accepts what other JSON writers emit: any JSON whitespace, every
/// RFC 8259 escape, and `\uXXXX` escapes including UTF-16 surrogate
/// pairs (Python's default `json.dumps` writes U+1F680 as
/// `\ud83d\ude80`). It rejects anything after the closing `}`, a
/// duplicate key, a lone surrogate, and a `\u` without exactly four hex
/// digits.
///
/// # Errors
///
/// What is wrong, and at which byte offset.
pub fn decode_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut c = Cursor { s: line, pos: 0 };
    c.expect(b'{', "expected `{`")?;
    let mut fields: Vec<(String, Value)> = Vec::new();
    if !c.eat(b'}') {
        loop {
            c.ws();
            let key_at = c.pos;
            let name = c.string()?;
            c.expect(b':', "expected `:`")?;
            let value = c.value()?;
            if fields.iter().any(|(n, _)| *n == name) {
                return Err(format!("duplicate key `{name}` at byte {key_at}"));
            }
            fields.push((name, value));
            if !c.eat(b',') {
                c.expect(b'}', "expected `,` or `}`")?;
                break;
            }
        }
    }
    c.ws();
    if c.pos < line.len() {
        return c.fail("trailing bytes after the object");
    }
    Ok(fields)
}

/// Decodes the body of a JSON string (no surrounding quotes) — the
/// inverse of [`escape`]. `None` for a malformed escape or a raw `"`.
pub fn unescape(body: &str) -> Option<String> {
    let quoted = format!("\"{body}\"");
    let mut c = Cursor { s: &quoted, pos: 0 };
    let s = c.string().ok()?;
    (c.pos == quoted.len()).then_some(s)
}

/// A read position in one line, always on a char boundary.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn fail<T>(&self, reason: &str) -> Result<T, String> {
        Err(format!("{reason} at byte {}", self.pos))
    }

    /// The next byte, consumed.
    fn bump(&mut self) -> Option<u8> {
        let b = *self.s.as_bytes().get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn ws(&mut self) {
        let rest = &self.s.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
    }

    /// Skips whitespace, then consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.s.as_bytes().get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8, reason: &str) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            self.fail(reason)
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash (both ASCII,
            // so the slice ends on a char boundary).
            let run = self.pos;
            let rest = &self.s.as_bytes()[run..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.s[run..self.pos]);
            let escape = match self.bump() {
                Some(b'"') => return Ok(out),
                Some(_) => self.bump(),
                None => None,
            };
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode()?,
                Some(_) => return self.fail("unknown escape"),
                None => return self.fail("unterminated string"),
            });
        }
    }

    /// The character of a `\u` escape whose `\u` is consumed, pairing a
    /// high surrogate with the low one after it.
    fn unicode(&mut self) -> Result<char, String> {
        let at = self.pos;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.s[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        // A surrogate left unpaired is not a scalar value.
        char::from_u32(code).ok_or_else(|| format!("lone surrogate at byte {at}"))
    }

    /// Exactly four hex digits: no sign, no shorter run.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.s.get(self.pos..self.pos + 4).unwrap_or("");
        if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return self.fail("`\\u` needs four hex digits");
        }
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|e| e.to_string())
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        if self.s[self.pos..].starts_with('"') {
            return self.string().map(Value::Str);
        }
        let rest = &self.s[self.pos..];
        let len = rest
            .bytes()
            .take_while(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'+' | b'.'))
            .count();
        let lit = &rest[..len];
        let v = match lit {
            "true" => Some(Value::Bool(true)),
            "false" => Some(Value::Bool(false)),
            _ if lit.contains(['.', 'e', 'E']) => lit.parse().ok().map(Value::F64),
            _ if lit.starts_with('-') => lit.parse().ok().map(Value::I64),
            _ => lit.parse().ok().map(Value::U64),
        };
        let v = v.map_or_else(|| self.fail("expected a value"), Ok)?;
        self.pos += len;
        Ok(v)
    }
}

/// Parses one JSONL event line; `None` when malformed (e.g. a torn
/// write) or when it has no string `"ev"` field.
pub fn parse(line: &str) -> Option<Event> {
    let mut fields = decode_object(line).ok()?;
    let at = fields.iter().position(|(name, _)| name == "ev")?;
    let Value::Str(kind) = fields.remove(at).1 else {
        return None;
    };
    Some(Event { kind, fields })
}

/// Decodes JSONL `text` one record per line under the durability
/// contract the trace reader and the runtime journal share: blank lines
/// are skipped, a malformed **final** line (torn by a kill mid-write) is
/// dropped, and a malformed line anywhere else is an
/// [`InvalidData`](io::ErrorKind::InvalidData) error naming `what` and
/// the 1-based line. Returns the records and the byte length of the
/// sound prefix, which excludes a torn final line.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for a corrupt non-final line.
pub fn decode_lines<T>(
    text: &str,
    what: &str,
    mut decode: impl FnMut(&str) -> Option<T>,
) -> io::Result<(Vec<T>, usize)> {
    let mut out = Vec::new();
    let mut sound = 0;
    let mut pieces = text.split_inclusive('\n').enumerate().peekable();
    while let Some((i, piece)) = pieces.next() {
        let line = piece.trim_end_matches(['\n', '\r']);
        if !line.trim().is_empty() {
            match decode(line) {
                Some(rec) => out.push(rec),
                None if pieces.peek().is_none() => break, // torn tail from a kill
                None => {
                    let msg = format!("{what} {}", i + 1);
                    return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
                }
            }
        }
        sound += piece.len();
    }
    Ok((out, sound))
}

/// Loads every event from a JSONL trace file at `path`, under
/// [`decode_lines`]' torn-tail contract (shared with the runtime
/// journal reader).
///
/// # Errors
///
/// Propagates filesystem errors; reports corrupt non-final lines as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_trace(path: &Path) -> io::Result<Vec<Event>> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    let what = format!("{}: corrupt trace line", path.display());
    Ok(decode_lines(&text, &what, parse)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_round_trips() {
        let ev = Event::new("stage")
            .str("module", "ctr \"q\" \\back\\")
            .str("stage", "completion")
            .u64("entries", 42)
            .f64("score", 0.5)
            .bool("panicked", false);
        let line = encode(&ev);
        let back = parse(&line).expect("parses");
        assert_eq!(back, ev);
        // A second encode is byte-stable.
        assert_eq!(encode(&back), line);
    }

    #[test]
    fn control_chars_and_unicode_survive() {
        let ev = Event::new("e").str("m", "a\nb\t\u{1}§☃ モジュール");
        let back = parse(&encode(&ev)).unwrap();
        assert_eq!(back, ev);
        assert!(encode(&ev).contains("\\u0001"));
    }

    #[test]
    fn negative_and_float_values_parse() {
        let line = r#"{"ev": "g", "v": -3, "f": 1.5e3, "b": true}"#;
        let ev = parse(line).unwrap();
        assert_eq!(ev.field("v"), Some(&Value::I64(-3)));
        assert_eq!(ev.field("f"), Some(&Value::F64(1500.0)));
        assert_eq!(ev.field("b"), Some(&Value::Bool(true)));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{\"ev\": ",
            "{\"ev\": \"x\"} trailing",
            "{\"name\": \"missing kind\"}",
            "{\"ev\": \"x\", \"s\": \"dangling \\",
            "{\"ev\": \"x\", \"ev\": \"y\"}",
            "{\"ev\": \"x\", \"n\": 1, \"n\": 2}",
            // Lone surrogates.
            r#"{"ev": "x", "s": "\ud83d"}"#,
            r#"{"ev": "x", "s": "\ud83dA"}"#,
            r#"{"ev": "x", "s": "\ude80"}"#,
            r#"{"ev": "x", "s": "\ude80\ud83d"}"#,
            // `\u` takes exactly four hex digits.
            r#"{"ev": "x", "s": "\u+041"}"#,
            r#"{"ev": "x", "s": "\u41"}"#,
            r#"{"ev": "x", "s": "\u00g1"}"#,
        ] {
            assert!(parse(bad).is_none(), "accepted {bad:?}");
        }
        assert_eq!(
            decode_object(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err(),
            "duplicate key `a` at byte 17"
        );
    }

    #[test]
    fn escape_uses_short_forms_and_passes_unicode_through() {
        assert_eq!(
            escape("q\" b\\ n\n r\r t\t nul\u{0} us\u{1f} § 🚀"),
            r#"q\" b\\ n\n r\r t\t nul\u0000 us\u001f § 🚀"#
        );
    }

    #[test]
    fn unescape_inverts_escape() {
        for s in ["", "plain", "a\nb\t\"q\" \\x\\", "\u{1}\u{1f}", "§☃ 🚀"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s), "{s:?}");
        }
        assert_eq!(unescape("raw \" quote"), None);
        assert_eq!(unescape("dangling \\"), None);
        assert_eq!(unescape("bad \\q escape"), None);
    }

    fn one_str(line: &str) -> Result<String, String> {
        match decode_object(line)?.pop() {
            Some((_, Value::Str(s))) => Ok(s),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decodes_what_other_writers_emit() {
        assert_eq!(decode_object(" \t{ }\r\n").unwrap(), vec![]);
        assert_eq!(one_str(r#"{"s": "\ud83d\ude80"}"#).unwrap(), "🚀");
        assert_eq!(one_str(r#"{"s": "x\uD83D\uDE80y"}"#).unwrap(), "x🚀y");
        // Escapes other writers emit: `\b`, `\f`, `\/`, BMP `\u`.
        assert_eq!(
            one_str(r#"{"s": "\b\f\/\u00a7\u2603"}"#).unwrap(),
            "\u{8}\u{c}/§☃"
        );
    }

    #[test]
    fn read_trace_drops_torn_tail_only() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("dda-obs-trace-{}.jsonl", std::process::id()));
        let good = encode(&Event::new("a").u64("n", 1));
        std::fs::write(&path, format!("{good}\n{{\"ev\": \"b\", \"half")).unwrap();
        let evs = read_trace(&path).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, "a");

        // Corrupt interior line: hard error.
        std::fs::write(&path, format!("garbage\n{good}\n")).unwrap();
        let err = read_trace(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
