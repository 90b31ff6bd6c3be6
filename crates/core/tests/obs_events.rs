//! Event-record and journal tests over the shared `dda_obs::event` JSON
//! codec (satellite: event-record round-tripping): event records whose
//! field values contain quotes, backslashes, and control characters
//! round-trip, `read_trace` shares the runtime journal's torn-tail
//! tolerance, and the on-disk JSONL lines are pinned byte for byte.
//!
//! No global recorder state is touched here, so no serialization lock.

use dda_core::json;
use dda_obs::event::{encode, parse};
use dda_obs::{read_trace, Event, Value};
use dda_runtime::Journal;
use proptest::prelude::*;
use std::fs;
use std::io::{ErrorKind, Write as _};
use std::path::PathBuf;

/// Strings that exercise every escape class: quotes, backslashes,
/// named control escapes, `\uXXXX` control escapes, and multi-byte
/// unicode that must pass through untouched.
const HOSTILE: [&str; 8] = [
    "",
    "plain module_name",
    "quote \" backslash \\ both \\\"",
    "newline\n tab\t return\r",
    "nul\u{0} bell\u{7} esc\u{1b} unit\u{1f}",
    "already-escaped-looking \\n \\u0041",
    "unicode: λ → 模块 🚀",
    "path\\to\\\"file\".v",
];

/// Generator covering every escape class: raw control characters
/// (`U+0000`–`U+001F`), quotes, backslashes, plain ASCII, and multi-byte
/// unicode.
const FIELD_CHARS: &str = "[\u{0}-\u{1f}a-z \"\\\\λ模🚀]{0,60}";

proptest! {
    /// Event records round-trip arbitrary field values through
    /// encode → parse.
    #[test]
    fn event_round_trips_arbitrary_field_values(s in FIELD_CHARS) {
        let ev = Event::new("stage").str("module", s.as_str()).u64("entries", 7);
        let back = parse(&encode(&ev)).expect("encoded event must parse");
        prop_assert_eq!(back.field("module").and_then(Value::as_str), Some(s.as_str()));
    }
}

#[test]
fn event_round_trips_hostile_module_names() {
    for name in HOSTILE {
        let ev = Event::new("stage")
            .str("module", name)
            .str("outcome", "quarantined")
            .u64("entries", 42)
            .bool("panicked", true);
        let back = parse(&encode(&ev)).expect("encoded event must parse");
        assert_eq!(back.kind, "stage");
        assert_eq!(back.field("module").and_then(Value::as_str), Some(name));
        assert_eq!(back.field("entries").and_then(Value::as_u64), Some(42));
        assert_eq!(back, ev, "{name:?}");
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dda-obs-events-{}-{name}", std::process::id()))
}

/// Both readers drop a torn *final* line silently — the crash-safety
/// contract the write-ahead journal established and `read_trace`
/// inherits.
#[test]
fn read_trace_and_journal_share_torn_tail_tolerance() {
    // Trace side: two good events, then a torn half-record.
    let trace = tmp("trace.jsonl");
    let mut f = fs::File::create(&trace).unwrap();
    writeln!(f, "{}", encode(&Event::new("stage").str("module", "a"))).unwrap();
    writeln!(f, "{}", encode(&Event::new("recycle").u64("pairs", 3))).unwrap();
    write!(f, "{{\"ev\": \"stage\", \"mod").unwrap();
    drop(f);
    let events = read_trace(&trace).unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(events[1].field("pairs").and_then(Value::as_u64), Some(3));

    // Journal side: two good records, then the same kind of torn tail.
    let journal = tmp("journal.jsonl");
    let mut j = Journal::create(&journal).unwrap();
    j.record(0, "ok first").unwrap();
    j.record(1, "ok second").unwrap();
    drop(j);
    let mut f = fs::OpenOptions::new().append(true).open(&journal).unwrap();
    write!(f, "{{\"unit\": 2, \"pay").unwrap();
    drop(f);
    let records = Journal::load(&journal).unwrap();
    assert_eq!(
        records,
        vec![(0, "ok first".to_owned()), (1, "ok second".to_owned())]
    );

    fs::remove_file(&trace).ok();
    fs::remove_file(&journal).ok();
}

/// Interior corruption is *not* tolerated by either reader: a malformed
/// line followed by a good one is data loss, reported as `InvalidData`.
#[test]
fn read_trace_and_journal_reject_interior_corruption() {
    let trace = tmp("trace-corrupt.jsonl");
    let mut f = fs::File::create(&trace).unwrap();
    writeln!(f, "not json at all").unwrap();
    writeln!(f, "{}", encode(&Event::new("stage").str("module", "a"))).unwrap();
    drop(f);
    let err = read_trace(&trace).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);

    let journal = tmp("journal-corrupt.jsonl");
    let mut f = fs::File::create(&journal).unwrap();
    writeln!(f, "not json at all").unwrap();
    writeln!(f, "{{\"unit\": 1, \"payload\": \"ok\"}}").unwrap();
    drop(f);
    let err = Journal::load(&journal).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);

    fs::remove_file(&trace).ok();
    fs::remove_file(&journal).ok();
}

// ---------------------------------------------------------------------
// Byte-pinned goldens for the three JSONL record kinds written to disk:
// dataset entries, journal records, and trace events. Round trips alone
// cannot catch a drift that changes writer and reader the same way.
// ---------------------------------------------------------------------

#[test]
fn data_entry_line_golden() {
    let e = dda_core::dataset::DataEntry::new(
        "fix \"this\"",
        "module m;\n\twire a; // \\ \u{1}\nendmodule",
        "§ ☃ 🚀\r",
    );
    let golden = r#"{"instruct": "fix \"this\"", "input": "module m;\n\twire a; // \\ \u0001\nendmodule", "output": "§ ☃ 🚀\r"}"#;
    assert_eq!(json::to_json_line(&e), golden);
    assert_eq!(json::from_jsonl(golden).unwrap(), vec![e]);
}

#[test]
fn journal_record_golden() {
    let path = tmp("journal-golden.jsonl");
    let mut j = Journal::create(&path).unwrap();
    j.record(17, "a {\"ev\": \"ping\", \"id\": 3}\n\t\u{1f} λ")
        .unwrap();
    drop(j);
    let golden = "{\"unit\": 17, \"payload\": \"a {\\\"ev\\\": \\\"ping\\\", \\\"id\\\": 3}\\n\\t\\u001f λ\"}\n";
    assert_eq!(fs::read_to_string(&path).unwrap(), golden);
    assert_eq!(
        Journal::load(&path).unwrap(),
        vec![(17, "a {\"ev\": \"ping\", \"id\": 3}\n\t\u{1f} λ".to_owned())]
    );
    fs::remove_file(&path).ok();
}

#[test]
fn trace_event_golden() {
    let mut ev = Event::new("stage")
        .str("module", "ctr \"q\"\n")
        .u64("entries", 42)
        .f64("ms", 0.125)
        .f64("whole", 3.0)
        .bool("panicked", false);
    ev.fields.push(("delta".into(), Value::I64(-3)));
    let golden = r#"{"ev": "stage", "module": "ctr \"q\"\n", "entries": 42, "ms": 0.125, "whole": 3, "panicked": false, "delta": -3}"#;
    assert_eq!(encode(&ev), golden);
    // `3.0` encodes as `3`, which decodes as an integer.
    let back = parse(golden).unwrap();
    assert_eq!(back.field("whole"), Some(&Value::U64(3)));
    assert_eq!(encode(&back), golden);
}
