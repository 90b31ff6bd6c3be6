//! JSONL serialization for [`DataEntry`] records.
//!
//! A dataset line is one flat object of three string fields,
//! `{"instruct": ..., "input": ..., "output": ...}`, written and read
//! with the workspace's one JSON codec, [`dda_obs::event`] (`serde_json`
//! is outside the approved offline dependency set).

use crate::dataset::DataEntry;
use dda_obs::event::{decode_object, ObjectWriter, Value};
use std::error::Error;
use std::fmt;

/// The dataset line's field names, in write order.
const FIELDS: [&str; 3] = ["instruct", "input", "output"];

fn write_entry(out: &mut String, e: &DataEntry) {
    let mut w = ObjectWriter::new(out);
    w.str(FIELDS[0], &e.instruct)
        .str(FIELDS[1], &e.input)
        .str(FIELDS[2], &e.output);
    w.finish();
}

/// Serializes one entry to a single JSON line (no trailing newline).
///
/// ```
/// use dda_core::dataset::DataEntry;
/// let e = DataEntry::new("do", "in", "out");
/// assert_eq!(
///     dda_core::json::to_json_line(&e),
///     r#"{"instruct": "do", "input": "in", "output": "out"}"#
/// );
/// ```
pub fn to_json_line(e: &DataEntry) -> String {
    let mut out = String::with_capacity(e.instruct.len() + e.input.len() + e.output.len() + 48);
    write_entry(&mut out, e);
    out
}

/// Serializes entries to JSONL text.
pub fn to_jsonl<'a>(entries: impl IntoIterator<Item = &'a DataEntry>) -> String {
    let mut out = String::new();
    for e in entries {
        write_entry(&mut out, e);
        out.push('\n');
    }
    out
}

/// A JSONL parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseJsonError {}

/// Parses JSONL text back into entries. Blank lines are skipped.
///
/// # Errors
///
/// Returns [`ParseJsonError`] for a line that is not exactly one JSON
/// object (trailing bytes after the `}` included), a duplicate, unknown
/// or non-string field, or a missing field.
pub fn from_jsonl(text: &str) -> Result<Vec<DataEntry>, ParseJsonError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(decode_entry(line).map_err(|message| ParseJsonError {
            line: i + 1,
            message,
        })?);
    }
    Ok(out)
}

fn decode_entry(line: &str) -> Result<DataEntry, String> {
    let mut slots: [Option<String>; 3] = Default::default();
    for (key, value) in decode_object(line)? {
        let i = FIELDS
            .iter()
            .position(|f| *f == key)
            .ok_or_else(|| format!("unknown field `{key}`"))?;
        let Value::Str(s) = value else {
            return Err(format!("field `{key}` must be a string"));
        };
        slots[i] = Some(s);
    }
    let [instruct, input, output] = slots;
    let need =
        |v: Option<String>, i: usize| v.ok_or_else(|| format!("missing field `{}`", FIELDS[i]));
    Ok(DataEntry {
        instruct: need(instruct, 0)?,
        input: need(input, 1)?,
        output: need(output, 2)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple() {
        let e = DataEntry::new("give me X.", "some input", "some output");
        let line = to_json_line(&e);
        let back = from_jsonl(&line).unwrap();
        assert_eq!(back, vec![e]);
    }

    #[test]
    fn round_trip_special_chars() {
        let e = DataEntry::new(
            "i",
            "line1\nline2\t\"quoted\" \\backslash\\",
            "module m;\nendmodule\n",
        );
        let back = from_jsonl(&to_json_line(&e)).unwrap();
        assert_eq!(back, vec![e]);
    }

    #[test]
    fn multi_line_jsonl() {
        let es = vec![
            DataEntry::new("a", "b", "c"),
            DataEntry::new("d", "e\nf", "g"),
        ];
        let text = to_jsonl(&es);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(from_jsonl(&text).unwrap(), es);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_jsonl("not json").is_err());
        assert!(from_jsonl("{\"instruct\": \"a\"}").is_err()); // missing fields
        assert!(from_jsonl("{\"bogus\": \"a\"}").is_err());
        let number = r#"{"instruct": "a", "input": 3, "output": "c"}"#;
        assert!(from_jsonl(number)
            .unwrap_err()
            .message
            .contains("must be a string"));
    }

    #[test]
    fn control_chars_escaped() {
        let e = DataEntry::new("i", "\u{1}", "o");
        let line = to_json_line(&e);
        assert!(line.contains("\\u0001"));
        assert_eq!(from_jsonl(&line).unwrap()[0].input, "\u{1}");
    }

    #[test]
    fn every_control_char_round_trips() {
        // All of U+0000..U+001F must be escaped (RFC 8259 §7) and survive
        // a round trip; the named escapes get their short forms.
        let all: String = (0u32..0x20).map(|v| char::from_u32(v).unwrap()).collect();
        let e = DataEntry::new("i", all.clone(), "o");
        let line = to_json_line(&e);
        for c in all.chars() {
            assert!(
                !line.contains(c),
                "raw control char U+{:04X} leaked into output",
                c as u32
            );
        }
        assert!(line.contains("\\u0000"));
        assert!(line.contains("\\n") && line.contains("\\r") && line.contains("\\t"));
        assert_eq!(from_jsonl(&line).unwrap()[0].input, all);
    }

    #[test]
    fn lone_quotes_and_backslashes_round_trip() {
        // Pathological sequences that break naive escapers: a trailing
        // backslash, backslash-before-quote, and runs of both.
        for s in [
            "\\",
            "\"",
            "\\\"",
            "\"\\",
            "\\\\\"\"\\",
            "ends with backslash \\",
            "a\\\"b\\\\\"c",
        ] {
            let e = DataEntry::new(s, s, s);
            let back = from_jsonl(&to_json_line(&e)).unwrap();
            assert_eq!(back, vec![e], "failed on {s:?}");
        }
    }

    #[test]
    fn non_ascii_round_trips_unescaped() {
        // Non-ASCII passes through raw (JSON strings are Unicode); only
        // the mandatory characters are escaped.
        let s = "§ 3.2 – Fehlerbericht: モジュール m → ☃ (width ≥ 8)";
        let e = DataEntry::new("übersetze", s, "módulo\u{301}");
        let line = to_json_line(&e);
        assert!(line.contains('☃') && line.contains('§'));
        let back = from_jsonl(&line).unwrap();
        assert_eq!(back, vec![e]);
    }

    #[test]
    fn unicode_escapes_parse_back() {
        // Accept \uXXXX on input even though the writer emits raw UTF-8.
        let line = "{\"instruct\": \"\\u00a7\", \"input\": \"\\u2603\", \"output\": \"\\u0041\"}";
        let e = &from_jsonl(line).unwrap()[0];
        assert_eq!(e.instruct, "§");
        assert_eq!(e.input, "☃");
        assert_eq!(e.output, "A");
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_scalar() {
        // Python's `json.dumps` default (ensure_ascii) writes non-BMP
        // characters as UTF-16 surrogate pairs.
        let line = r#"{"instruct": "i", "input": "\ud83d\ude80", "output": "o"}"#;
        assert_eq!(from_jsonl(line).unwrap()[0].input, "\u{1f680}");
        let lone = r#"{"instruct": "i", "input": "\ud83d", "output": "o"}"#;
        let err = from_jsonl(lone).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("lone surrogate"), "{err}");
        let signed = r#"{"instruct": "i", "input": "\u+041", "output": "o"}"#;
        assert!(from_jsonl(signed).is_err());
    }

    #[test]
    fn trailing_bytes_are_a_line_numbered_error() {
        let good = to_json_line(&DataEntry::new("a", "b", "c"));
        let text = format!("{good}\n{good} GARBAGE\n");
        let err = from_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("trailing bytes"), "{err}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        // Neither the first nor the last value wins: the line is an error.
        let line = r#"{"instruct": "a", "input": "b", "output": "c", "input": "d"}"#;
        let err = from_jsonl(line).unwrap_err();
        assert!(err.message.contains("duplicate key"), "{err}");
    }
}
