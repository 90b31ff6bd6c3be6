//! Property tests for the wire codec and the protocol codec (satellite:
//! round-trip + malformed-frame robustness).
//!
//! The invariants under test are the service's outermost trust boundary:
//! arbitrary bytes from a socket must produce either a decoded frame or a
//! structured [`WireError`] — never a panic, a hang, or an unbounded
//! allocation/read.

use dda_runtime::Priority;
use dda_serve::proto::{ReqBody, Request, Response};
use dda_serve::wire::{read_frame, write_frame, WireError, MAX_FRAME};
use proptest::prelude::*;
use std::io::Cursor;

proptest! {
    /// Any payload string round-trips through the frame codec, including
    /// payloads containing NULs, newlines, and multi-byte UTF-8.
    #[test]
    fn frame_round_trip(payload in "\\PC{0,400}") {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = Cursor::new(buf);
        let back = read_frame(&mut r, MAX_FRAME).unwrap();
        prop_assert_eq!(back.as_deref(), Some(payload.as_str()));
        prop_assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none());
    }

    /// A stream of several frames decodes in order with clean EOF after.
    #[test]
    fn frame_stream_round_trip(payloads in prop::collection::vec("[ -~]{0,60}", 0..8)) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = Cursor::new(buf);
        for p in &payloads {
            prop_assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().as_deref(), Some(p.as_str()));
        }
        prop_assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none());
    }

    /// Arbitrary byte soup never panics the reader: every outcome is a
    /// decoded frame, a clean EOF, or a structured error.
    #[test]
    fn reader_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut r = Cursor::new(bytes.clone());
        match read_frame(&mut r, 1 << 16) {
            Ok(_) | Err(_) => {}
        }
    }

    /// A truncated prefix (fewer than 4 bytes then EOF) is always the
    /// structured `Truncated` error, never a hang or a bogus frame.
    #[test]
    fn truncated_prefix_is_structured(n in 1usize..4, byte in any::<u8>()) {
        let mut r = Cursor::new(vec![byte; n]);
        match read_frame(&mut r, MAX_FRAME) {
            Err(WireError::Truncated { expected: 4, got }) => prop_assert_eq!(got, n),
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    /// A frame torn mid-body is always `Truncated` with an exact count.
    #[test]
    fn torn_body_is_structured(declared in 1u32..2048, keep_frac in 0usize..100) {
        let declared_us = declared as usize;
        let keep = (declared_us * keep_frac / 100).min(declared_us - 1);
        let mut buf = Vec::new();
        buf.extend_from_slice(&declared.to_be_bytes());
        buf.extend(std::iter::repeat_n(b'x', keep));
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, MAX_FRAME) {
            Err(WireError::Truncated { expected, got }) => {
                prop_assert_eq!(expected, declared_us);
                prop_assert_eq!(got, keep);
            }
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    /// An oversized declared length is rejected *without consuming body
    /// bytes*, whatever the declared size: the reader's position stays at
    /// the 4-byte prefix (bounded read — no allocation proportional to the
    /// attacker-controlled length either).
    #[test]
    fn oversized_rejected_with_bounded_read(excess in 1u32..1_000_000, max in 16usize..4096) {
        let declared = (max as u32).saturating_add(excess);
        let mut buf = Vec::new();
        buf.extend_from_slice(&declared.to_be_bytes());
        buf.extend_from_slice(b"bodybytesthatmustnotberead");
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, max) {
            Err(WireError::Oversized { declared: d, max: m }) => {
                prop_assert_eq!(d, declared as usize);
                prop_assert_eq!(m, max);
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
        prop_assert_eq!(r.position(), 4, "body bytes were consumed");
    }

    /// Request decode is total on arbitrary frame payloads: malformed
    /// JSON yields a structured error, never a panic.
    #[test]
    fn request_decode_is_total(line in "\\PC{0,200}") {
        let _ = Request::from_line(&line);
    }

    /// Response decode is total too (a hostile server can't panic a
    /// client).
    #[test]
    fn response_decode_is_total(line in "\\PC{0,200}") {
        let _ = Response::from_line(&line);
    }

    /// Requests with arbitrary field contents survive an encode/decode
    /// round trip exactly — covering JSON escaping of quotes, backslashes,
    /// control characters, and non-ASCII in every string field.
    #[test]
    fn request_round_trip_arbitrary_strings(
        id in any::<u64>(),
        high in any::<bool>(),
        // Below MAX_DEADLINE_MS: the decoder clamps larger budgets, which
        // is deliberate lossiness, not a codec defect.
        deadline in 0u64..60_000,
        name in "\\PC{0,30}",
        source in "\\PC{0,200}",
        seed in any::<u64>(),
    ) {
        let req = Request {
            id,
            priority: if high { Priority::High } else { Priority::Normal },
            deadline_ms: Some(deadline),
            body: ReqBody::Augment { name, source, seed },
        };
        let back = Request::from_line(&req.to_line()).unwrap();
        prop_assert_eq!(back, req);
    }

    /// Score requests round-trip with inline testbenches and any `runs`
    /// (the daemon ignores it; the codec keeps it as sent).
    #[test]
    fn score_round_trip(
        source in "\\PC{0,120}",
        tb in "\\PC{0,120}",
        top in "[a-z_]{1,12}",
        runs in 0u64..100_000,
    ) {
        let req = Request {
            id: 1,
            priority: Priority::Normal,
            deadline_ms: None,
            body: ReqBody::Score {
                source,
                problem: None,
                testbench: Some(tb),
                top,
                runs,
            },
        };
        let back = Request::from_line(&req.to_line()).unwrap();
        prop_assert_eq!(back, req);
    }
}

// ---------------------------------------------------------------------
// Byte-pinned goldens. The round-trip properties above cannot see a
// drift that changes the encoder and the decoder the same way; these pin
// the exact wire bytes of every request and response variant, decode
// each golden back to its value, and pin the JSONL lines the `retrieve`
// and `agent` handlers embed in their responses.
// ---------------------------------------------------------------------

use dda_corpus::{CorpusModule, Family};
use dda_serve::handlers::{execute, HandlerCx};
use dda_serve::proto::{ErrorCode, RespBody, StatsBody, DEFAULT_AGENT_SEED};
use dda_slm::{ShardedTfIdf, Slm, SlmProfile};
use std::collections::BTreeMap;

fn req(id: u64, priority: Priority, deadline_ms: Option<u64>, body: ReqBody) -> Request {
    Request {
        id,
        priority,
        deadline_ms,
        body,
    }
}

fn resp(id: u64, verb: &str, body: RespBody) -> Response {
    Response {
        id,
        verb: verb.into(),
        body,
    }
}

const SRC: &str = "module m(input a, output y);\n\tassign y = a; // \"q\" \\\nendmodule\n";
const SRC_WIRE: &str = r#"module m(input a, output y);\n\tassign y = a; // \"q\" \\\nendmodule\n"#;

fn request_goldens() -> Vec<(Request, String)> {
    use Priority::{High, Normal};
    vec![
        (req(1, Normal, None, ReqBody::Ping), r#"{"ev": "ping", "id": 1}"#.into()),
        (
            req(2, High, None, ReqBody::Stats),
            r#"{"ev": "stats", "id": 2, "priority": "high"}"#.into(),
        ),
        (
            req(3, Normal, Some(250), ReqBody::Health),
            r#"{"ev": "health", "id": 3, "deadline_ms": 250}"#.into(),
        ),
        (req(4, Normal, None, ReqBody::Ready), r#"{"ev": "ready", "id": 4}"#.into()),
        (
            req(5, Normal, None, ReqBody::Shutdown),
            r#"{"ev": "shutdown", "id": 5}"#.into(),
        ),
        (req(6, Normal, None, ReqBody::Poison), r#"{"ev": "poison", "id": 6}"#.into()),
        (
            req(
                7,
                High,
                Some(1500),
                ReqBody::Augment {
                    name: "ctr".into(),
                    source: SRC.into(),
                    seed: 2024,
                },
            ),
            format!(
                r#"{{"ev": "augment", "id": 7, "priority": "high", "deadline_ms": 1500, "name": "ctr", "source": "{SRC_WIRE}", "seed": 2024}}"#
            ),
        ),
        (
            req(
                8,
                Normal,
                None,
                ReqBody::Generate {
                    instruct: dda_core::align::ALIGN_INSTRUCT.into(),
                    prompt: "a 4-bit counter § ☃ 🚀".into(),
                    temperature: 0.1,
                    seed: 99,
                },
            ),
            r#"{"ev": "generate", "id": 8, "instruct": "give me the Verilog module of this description.", "prompt": "a 4-bit counter § ☃ 🚀", "temperature": 0.1, "seed": 99}"#.into(),
        ),
        (
            req(
                9,
                Normal,
                None,
                ReqBody::Generate {
                    instruct: "fix\u{1}".into(),
                    prompt: "p".into(),
                    temperature: 0.75,
                    seed: 3,
                },
            ),
            r#"{"ev": "generate", "id": 9, "instruct": "fix\u0001", "prompt": "p", "temperature": 0.75, "seed": 3}"#.into(),
        ),
        (
            req(
                10,
                Normal,
                None,
                ReqBody::Repair {
                    name: "broken".into(),
                    source: SRC.into(),
                    budget: 200,
                },
            ),
            format!(
                r#"{{"ev": "repair", "id": 10, "name": "broken", "source": "{SRC_WIRE}", "budget": 200}}"#
            ),
        ),
        (
            req(
                11,
                Normal,
                None,
                ReqBody::Score {
                    source: SRC.into(),
                    problem: Some("simple_wire".into()),
                    testbench: None,
                    top: "tb".into(),
                    runs: 1,
                },
            ),
            format!(
                r#"{{"ev": "score", "id": 11, "source": "{SRC_WIRE}", "problem": "simple_wire", "top": "tb"}}"#
            ),
        ),
        (
            // Every non-default field present; `runs` is encoded before `top`.
            req(
                12,
                High,
                Some(2000),
                ReqBody::Score {
                    source: "module m; endmodule".into(),
                    problem: None,
                    testbench: Some("module tb; initial $display(\"RESULT 1 1\"); endmodule".into()),
                    top: "tb2".into(),
                    runs: 8,
                },
            ),
            r#"{"ev": "score", "id": 12, "priority": "high", "deadline_ms": 2000, "source": "module m; endmodule", "testbench": "module tb; initial $display(\"RESULT 1 1\"); endmodule", "runs": 8, "top": "tb2"}"#.into(),
        ),
        (
            req(
                13,
                Normal,
                None,
                ReqBody::Retrieve {
                    query: "an eight bit counter".into(),
                    k: 5,
                },
            ),
            r#"{"ev": "retrieve", "id": 13, "query": "an eight bit counter", "k": 5}"#.into(),
        ),
        (
            req(
                14,
                Normal,
                None,
                ReqBody::Agent {
                    problem: "simple_wire".into(),
                    level: 2,
                    k: 5,
                    rounds: 3,
                    early_exit: false,
                    rag_k: 0,
                    seed: DEFAULT_AGENT_SEED,
                },
            ),
            r#"{"ev": "agent", "id": 14, "problem": "simple_wire"}"#.into(),
        ),
        (
            req(
                15,
                Normal,
                Some(5000),
                ReqBody::Agent {
                    problem: "counter".into(),
                    level: 1,
                    k: 3,
                    rounds: 2,
                    early_exit: true,
                    rag_k: 4,
                    seed: 42,
                },
            ),
            r#"{"ev": "agent", "id": 15, "deadline_ms": 5000, "problem": "counter", "level": 1, "k": 3, "rounds": 2, "early_exit": true, "rag_k": 4, "seed": 42}"#.into(),
        ),
    ]
}

fn response_goldens() -> Vec<(Response, String)> {
    vec![
        (
            resp(1, "ping", RespBody::Pong),
            r#"{"ev": "response", "id": 1, "verb": "ping", "status": "ok"}"#.into(),
        ),
        (
            resp(
                2,
                "stats",
                RespBody::Stats(StatsBody {
                    admitted: 1,
                    completed: 2,
                    shed: 3,
                    timed_out: 4,
                    panics: 5,
                    queue_depth: 6,
                    cache_hits: 7,
                    cache_misses: 8,
                    cache_evictions: 9,
                    cache_resident: 10,
                    dropped: 11,
                    replayed: 12,
                }),
            ),
            r#"{"ev": "response", "id": 2, "verb": "stats", "status": "ok", "admitted": 1, "completed": 2, "shed": 3, "timed_out": 4, "panics": 5, "queue_depth": 6, "cache_hits": 7, "cache_misses": 8, "cache_evictions": 9, "cache_resident": 10, "dropped": 11, "replayed": 12}"#.into(),
        ),
        (
            resp(3, "shutdown", RespBody::ShuttingDown),
            r#"{"ev": "response", "id": 3, "verb": "shutdown", "status": "ok"}"#.into(),
        ),
        (
            resp(
                4,
                "health",
                RespBody::Health {
                    uptime_ms: 1234,
                    generation: 2,
                    replayed: 7,
                    failpoints: true,
                },
            ),
            r#"{"ev": "response", "id": 4, "verb": "health", "status": "ok", "uptime_ms": 1234, "generation": 2, "replayed": 7, "failpoints": true}"#.into(),
        ),
        (
            resp(5, "ready", RespBody::Ready { ready: false }),
            r#"{"ev": "response", "id": 5, "verb": "ready", "status": "ok", "ready": false}"#.into(),
        ),
        (
            resp(
                6,
                "augment",
                RespBody::Augmented {
                    entries: 1,
                    quarantined: 0,
                    jsonl: "{\"instruct\": \"i\", \"input\": \"a\\nb\", \"output\": \"o\"}\n".into(),
                },
            ),
            r#"{"ev": "response", "id": 6, "verb": "augment", "status": "ok", "entries": 1, "quarantined": 0, "jsonl": "{\"instruct\": \"i\", \"input\": \"a\\nb\", \"output\": \"o\"}\n"}"#.into(),
        ),
        (
            resp(
                7,
                "generate",
                RespBody::Generated {
                    output: "module c; endmodule // ☃".into(),
                },
            ),
            r#"{"ev": "response", "id": 7, "verb": "generate", "status": "ok", "output": "module c; endmodule // ☃"}"#.into(),
        ),
        (
            resp(
                8,
                "repair",
                RespBody::Repaired {
                    source: SRC.into(),
                    clean: true,
                    cost: 17,
                },
            ),
            format!(
                r#"{{"ev": "response", "id": 8, "verb": "repair", "status": "ok", "source": "{SRC_WIRE}", "clean": true, "cost": 17}}"#
            ),
        ),
        (
            resp(
                9,
                "score",
                RespBody::Scored {
                    verdict: "scored".into(),
                    pass_rate: 1.0,
                    detail: String::new(),
                },
            ),
            r#"{"ev": "response", "id": 9, "verb": "score", "status": "ok", "verdict": "scored", "pass_rate": 1, "detail": ""}"#.into(),
        ),
        (
            resp(
                10,
                "score",
                RespBody::Scored {
                    verdict: "timeout".into(),
                    pass_rate: 0.25,
                    detail: "step budget\texceeded".into(),
                },
            ),
            r#"{"ev": "response", "id": 10, "verb": "score", "status": "ok", "verdict": "timeout", "pass_rate": 0.25, "detail": "step budget\texceeded"}"#.into(),
        ),
        (
            resp(
                11,
                "retrieve",
                RespBody::Retrieved {
                    count: 1,
                    jsonl: "{\"id\": 0, \"score\": 0.5, \"name\": \"m\", \"source\": \"x\"}\n".into(),
                },
            ),
            r#"{"ev": "response", "id": 11, "verb": "retrieve", "status": "ok", "count": 1, "jsonl": "{\"id\": 0, \"score\": 0.5, \"name\": \"m\", \"source\": \"x\"}\n"}"#.into(),
        ),
        (
            resp(
                12,
                "agent",
                RespBody::AgentReport {
                    passed: false,
                    winner: None,
                    chains: 2,
                    rounds_total: 6,
                    quarantined: 0,
                    jsonl: String::new(),
                },
            ),
            r#"{"ev": "response", "id": 12, "verb": "agent", "status": "ok", "passed": false, "chains": 2, "rounds_total": 6, "jsonl": ""}"#.into(),
        ),
        (
            resp(
                13,
                "agent",
                RespBody::AgentReport {
                    passed: true,
                    winner: Some(1),
                    chains: 5,
                    rounds_total: 9,
                    quarantined: 2,
                    jsonl: "x\n".into(),
                },
            ),
            r#"{"ev": "response", "id": 13, "verb": "agent", "status": "ok", "passed": true, "winner": 1, "chains": 5, "rounds_total": 9, "quarantined": 2, "jsonl": "x\n"}"#.into(),
        ),
        (
            Response::error(14, "augment", ErrorCode::Overloaded, "pool queue full (64 jobs queued)"),
            r#"{"ev": "response", "id": 14, "verb": "augment", "status": "error", "code": "overloaded", "message": "pool queue full (64 jobs queued)"}"#.into(),
        ),
        (
            Response::error(0, "?", ErrorCode::BadRequest, "missing field `id`"),
            r#"{"ev": "response", "id": 0, "verb": "?", "status": "error", "code": "bad_request", "message": "missing field `id`"}"#.into(),
        ),
        (
            Response::error(15, "score", ErrorCode::Deadline, "d"),
            r#"{"ev": "response", "id": 15, "verb": "score", "status": "error", "code": "deadline", "message": "d"}"#.into(),
        ),
        (
            Response::error(16, "score", ErrorCode::Panic, "p"),
            r#"{"ev": "response", "id": 16, "verb": "score", "status": "error", "code": "panic", "message": "p"}"#.into(),
        ),
        (
            Response::error(17, "generate", ErrorCode::Shutdown, "s"),
            r#"{"ev": "response", "id": 17, "verb": "generate", "status": "error", "code": "shutdown", "message": "s"}"#.into(),
        ),
    ]
}

#[test]
fn request_goldens_are_byte_exact() {
    for (r, golden) in request_goldens() {
        assert_eq!(r.to_line(), golden, "encode of {r:?}");
        assert_eq!(
            Request::from_line(&golden).as_ref(),
            Ok(&r),
            "decode of {golden}"
        );
    }
}

#[test]
fn response_goldens_are_byte_exact() {
    for (r, golden) in response_goldens() {
        assert_eq!(r.to_line(), golden, "encode of {r:?}");
        assert_eq!(
            Response::from_line(&golden).as_ref(),
            Ok(&r),
            "decode of {golden}"
        );
    }
}

/// A handler context over a one-module retrieval corpus whose name and
/// source need escaping, so the `retrieve` hit line is short and pinned.
fn golden_cx() -> HandlerCx {
    let module = CorpusModule {
        family: Family::WireBuf,
        name: "buf \"q\"".into(),
        source: "module buf_q(input a, output y);\n\tassign y = a;\nendmodule\n".into(),
    };
    let mut retrieval = ShardedTfIdf::new(1);
    retrieval
        .insert(0, &format!("{} {}", module.name, module.source))
        .unwrap();
    let mut problems = BTreeMap::new();
    for p in dda_benchmarks::thakur_suite() {
        problems.insert(p.id.to_string(), p);
    }
    HandlerCx {
        slm: Slm::pretrained(SlmProfile::llama2(13.0)),
        problems,
        retrieve_corpus: vec![module],
        retrieval,
        fault_injection: false,
    }
}

#[test]
fn retrieve_hit_line_golden() {
    let body = ReqBody::Retrieve {
        query: "buf assign".into(),
        k: 1,
    };
    match execute(&golden_cx(), &body, &dda_runtime::CancelToken::new()) {
        RespBody::Retrieved { count, jsonl } => {
            assert_eq!(count, 1);
            assert_eq!(
                jsonl,
                "{\"id\": 0, \"score\": 0.29193509597604356, \"name\": \"buf \\\"q\\\"\", \
                 \"source\": \"module buf_q(input a, output y);\\n\\tassign y = a;\\nendmodule\\n\"}\n"
            );
        }
        other => panic!("unexpected response: {other:?}"),
    }
}

#[test]
fn agent_chain_line_golden() {
    let body = ReqBody::Agent {
        problem: "basic1".into(),
        level: 2,
        k: 2,
        rounds: 1,
        early_exit: false,
        rag_k: 0,
        seed: DEFAULT_AGENT_SEED,
    };
    match execute(&golden_cx(), &body, &dda_runtime::CancelToken::new()) {
        RespBody::AgentReport { jsonl, .. } => assert_eq!(
            jsonl,
            "{\"chain\": 0, \"rounds\": 2, \"lint\": true, \"function\": 0, \
             \"repaired\": true, \"cancelled\": false}\n\
             {\"chain\": 1, \"rounds\": 2, \"lint\": true, \"function\": 0, \
             \"repaired\": true, \"cancelled\": false}\n"
        ),
        other => panic!("unexpected response: {other:?}"),
    }
}

/// A `generate` prompt from a client that escapes non-BMP characters as
/// UTF-16 surrogate pairs (Python's `json.dumps` default) decodes to the
/// character itself.
#[test]
fn generate_prompt_surrogate_pairs_decode() {
    let line = r#"{"ev": "generate", "id": 1, "prompt": "a rocket \ud83d\ude80 counter"}"#;
    match Request::from_line(line).unwrap().body {
        ReqBody::Generate { prompt, .. } => assert_eq!(prompt, "a rocket \u{1f680} counter"),
        other => panic!("{other:?}"),
    }
}

/// A `score` frame from a client that still sends `"runs": 8` decodes and
/// gets the scalar verdict: the daemon ignores `runs` and scores the
/// candidate once, so the response is byte-identical to the one for the
/// frame without it.
#[test]
fn score_frame_with_runs_gets_the_scalar_verdict() {
    let p = &dda_benchmarks::thakur_suite()[0];
    let frame = |runs: &str| {
        format!(
            r#"{{"ev": "score", "id": 3, "source": "{}", "problem": "{}"{runs}}}"#,
            dda_obs::event::escape(p.reference),
            p.id
        )
    };
    let answer = |line: &str| {
        let req = Request::from_line(line).expect("decodes");
        let body = execute(&golden_cx(), &req.body, &dda_runtime::CancelToken::new());
        resp(req.id, req.body.verb(), body).to_line()
    };
    let old = answer(&frame(r#", "runs": 8"#));
    assert_eq!(
        old,
        r#"{"ev": "response", "id": 3, "verb": "score", "status": "ok", "verdict": "scored", "pass_rate": 1, "detail": ""}"#
    );
    assert_eq!(old, answer(&frame("")));
}

/// An `agent` frame from a client that still sends `"runs": 8` decodes
/// (the field is gone, and unknown fields are ignored) to the same request
/// as the frame without it, and gets the same report.
#[test]
fn agent_frame_with_runs_decodes_and_runs_unchanged() {
    let line = r#"{"ev": "agent", "id": 15, "problem": "basic1", "k": 2, "rounds": 1, "runs": 8}"#;
    let body = ReqBody::Agent {
        problem: "basic1".into(),
        level: 2,
        k: 2,
        rounds: 1,
        early_exit: false,
        rag_k: 0,
        seed: DEFAULT_AGENT_SEED,
    };
    let decoded = Request::from_line(line).expect("decodes");
    assert_eq!(decoded, req(15, Priority::Normal, None, body.clone()));
    let cancel = dda_runtime::CancelToken::new();
    let got = execute(&golden_cx(), &decoded.body, &cancel);
    assert!(
        matches!(got, RespBody::AgentReport { chains: 2, .. }),
        "{got:?}"
    );
    assert_eq!(got, execute(&golden_cx(), &body, &cancel));
}
