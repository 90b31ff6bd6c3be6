//! Crash-recovery battery: stale-socket reclaim, crash-stop + restart
//! journal replay (exactly once, fresh deadlines), and torn-tail
//! tolerance of the request journal.
//!
//! These tests run on the default build — the crash is induced with
//! [`Server::abort`], the in-process stand-in for `kill -9`. The
//! failpoint-driven variants (panic injected *inside* dispatch) live in
//! `fault_matrix.rs` behind `--features failpoints`.

use dda_runtime::Priority;
use dda_serve::client::Client;
use dda_serve::journal::RequestJournal;
use dda_serve::proto::{ReqBody, Request, RespBody, Response, StatsBody};
use dda_serve::service::{ServeOptions, Server, ServerExit};
use dda_serve::wire::{read_frame, write_frame, MAX_FRAME};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn sock(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dda-recov-{}-{name}.sock", std::process::id()))
}

fn jpath(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dda-recov-{}-{name}.journal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn fast_opts() -> ServeOptions {
    ServeOptions {
        model_modules: 0,
        ..ServeOptions::default()
    }
}

fn req(id: u64, body: ReqBody) -> Request {
    Request {
        id,
        priority: Priority::Normal,
        deadline_ms: None,
        body,
    }
}

fn ping_ok(path: &Path, id: u64) {
    let mut c = Client::connect(path).expect("daemon must accept connections");
    let resp = c.call(&req(id, ReqBody::Ping)).expect("ping answer");
    assert_eq!(resp.body, RespBody::Pong);
}

fn stats(path: &Path) -> StatsBody {
    let mut c = Client::connect(path).unwrap();
    match c.call(&req(9_000, ReqBody::Stats)).unwrap().body {
        RespBody::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Polls the `ready` verb until it answers `true` (tolerating connect
/// errors while a generation is still coming up).
fn wait_ready(path: &Path, timeout: Duration) {
    let t0 = Instant::now();
    loop {
        if let Ok(mut c) = Client::connect(path) {
            if let Ok(resp) = c.call(&req(8_000, ReqBody::Ready)) {
                if matches!(resp.body, RespBody::Ready { ready: true }) {
                    return;
                }
            }
        }
        assert!(t0.elapsed() < timeout, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// See `service_chaos.rs`: a tiny design + testbench that passes fast.
fn quick_score(tag: usize) -> ReqBody {
    ReqBody::Score {
        source: format!("module pass_r{tag}(input in, output out);\nassign out = in;\nendmodule\n"),
        problem: None,
        testbench: Some(format!(
            "module tb;\nreg in; wire out;\npass_r{tag} dut(.in(in), .out(out));\n\
             integer pass; integer total;\ninitial begin\n  pass = 0; total = 0;\n  \
             in = 0; #1 total = total + 1; if (out === 1'b0) pass = pass + 1;\n  \
             in = 1; #1 total = total + 1; if (out === 1'b1) pass = pass + 1;\n  \
             $display(\"RESULT %0d %0d\", pass, total);\n  $finish;\nend\nendmodule\n"
        )),
        top: "tb".to_string(),
        runs: 1,
    }
}

/// A grinding testbench that only its deadline stops.
fn slow_score(tag: usize) -> ReqBody {
    ReqBody::Score {
        source: format!(
            "module grind_r{tag}(input in, output out);\nassign out = in;\nendmodule\n"
        ),
        problem: None,
        testbench: Some(format!(
            "module tb;\nreg [63:0] i; reg [63:0] acc;\nwire out;\nreg in;\n\
             grind_r{tag} dut(.in(in), .out(out));\ninitial begin\n  acc = 0;\n  \
             for (i = 0; i < 64'd100000000; i = i + 1) acc = acc + i;\n  \
             $display(\"RESULT 1 1\");\n  $finish;\nend\nendmodule\n"
        )),
        top: "tb".to_string(),
        runs: 1,
    }
}

#[test]
fn stale_socket_file_is_reclaimed_on_start() {
    let path = sock("stale");
    let _ = std::fs::remove_file(&path);
    // A bound-then-dropped listener leaves its socket file behind —
    // exactly the wreckage a crashed daemon process leaves.
    {
        let _l = std::os::unix::net::UnixListener::bind(&path).unwrap();
    }
    assert!(path.exists(), "dropped listener should leave the file");

    let server = Server::start(&path, &fast_opts()).expect("stale socket must be reclaimed");
    ping_ok(&path, 1);
    server.stop();
    server.join();
}

#[test]
fn live_daemon_is_not_clobbered_by_a_second_start() {
    let path = sock("live");
    let server = Server::start(&path, &fast_opts()).unwrap();

    let second = Server::start(&path, &fast_opts());
    match second {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "got {e}"),
        Ok(_) => panic!("second start must refuse to clobber a live daemon"),
    }
    // The probe didn't hurt the incumbent.
    ping_ok(&path, 2);
    server.stop();
    server.join();
}

#[test]
fn crash_then_restart_replays_exactly_the_unanswered_suffix() {
    let path = sock("replay");
    let journal = jpath("replay");
    let opts = ServeOptions {
        workers: 1,
        journal: Some(journal.clone()),
        ..fast_opts()
    };

    // Generation 0: jam the single worker, queue five requests behind it,
    // then crash-stop — the five are accepted (journaled) but dropped.
    let server = Server::start(&path, &opts).unwrap();
    let mut c = Client::connect(&path).unwrap();
    c.send(&Request {
        id: 0,
        priority: Priority::Normal,
        deadline_ms: Some(250),
        body: slow_score(700),
    })
    .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // worker picks up the jam
    for i in 1..=5u64 {
        c.send(&req(i, quick_score(700 + i as usize))).unwrap();
    }
    std::thread::sleep(Duration::from_millis(50)); // all five journaled + queued
    server.abort();
    assert_eq!(server.join_outcome(), ServerExit::Crashed);
    assert!(path.exists(), "a crash leaves the socket file behind");
    // Let the jammed job die to its deadline so its `answered` mark lands
    // before the next generation recovers the journal.
    std::thread::sleep(Duration::from_millis(700));

    // Generation 1: recover, replay, and answer the five dropped requests.
    let server = Server::start_generation(&path, &opts, 1).unwrap();
    wait_ready(&path, Duration::from_secs(10));
    let t0 = Instant::now();
    loop {
        let s = stats(&path);
        if s.completed >= 5 {
            assert_eq!(s.replayed, 5, "exactly the dropped suffix replays: {s:?}");
            assert_eq!(s.admitted, 5, "replay is the only admission source: {s:?}");
            assert_eq!(s.timed_out, 0, "replayed work must not time out: {s:?}");
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "replay stalled: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut c = Client::connect(&path).unwrap();
    let resp = c.call(&req(99, ReqBody::Shutdown)).unwrap();
    assert_eq!(resp.body, RespBody::ShuttingDown);
    drop(c);
    assert_eq!(server.join_outcome(), ServerExit::Drained);

    // Exactly once: after the drain, nothing is pending any more.
    let (_, pending) = RequestJournal::recover(&journal).unwrap();
    assert!(
        pending.is_empty(),
        "still pending after replay: {pending:?}"
    );
    std::fs::remove_file(&journal).ok();
}

#[test]
fn replayed_requests_get_fresh_deadline_budgets() {
    let path = sock("freshdl");
    let journal = jpath("freshdl");
    let opts = ServeOptions {
        workers: 1,
        journal: Some(journal.clone()),
        ..fast_opts()
    };

    // Generation 0: a request with a 400 ms deadline is accepted but
    // never starts (the worker is jammed); then the daemon crashes.
    let server = Server::start(&path, &opts).unwrap();
    let mut c = Client::connect(&path).unwrap();
    c.send(&Request {
        id: 0,
        priority: Priority::Normal,
        deadline_ms: Some(250),
        body: slow_score(800),
    })
    .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    c.send(&Request {
        id: 1,
        priority: Priority::Normal,
        deadline_ms: Some(400),
        body: quick_score(801),
    })
    .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    server.abort();
    assert_eq!(server.join_outcome(), ServerExit::Crashed);

    // Far more wall-clock than the request's whole 400 ms budget passes
    // before the restart. A replay that resumed the *original* deadline
    // would be dead on arrival; the fresh budget lets it complete.
    std::thread::sleep(Duration::from_millis(900));

    let server = Server::start_generation(&path, &opts, 1).unwrap();
    wait_ready(&path, Duration::from_secs(10));
    let t0 = Instant::now();
    loop {
        let s = stats(&path);
        if s.completed >= 1 {
            assert_eq!(s.replayed, 1, "{s:?}");
            assert_eq!(
                s.timed_out, 0,
                "replayed request inherited a spent deadline: {s:?}"
            );
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "replay stalled: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut c = Client::connect(&path).unwrap();
    let _ = c.call(&req(99, ReqBody::Shutdown)).unwrap();
    drop(c);
    assert_eq!(server.join_outcome(), ServerExit::Drained);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn torn_journal_tail_drops_only_the_torn_record() {
    let journal = jpath("torn");

    // Three accepted requests; the first is answered. Then the file gains
    // a torn final record — a crash mid-append.
    let lines: Vec<String> = (0..3u64)
        .map(|i| req(i, quick_score(900 + i as usize)).to_line())
        .collect();
    {
        let (mut j, pending) = RequestJournal::recover(&journal).unwrap();
        assert!(pending.is_empty());
        for line in &lines {
            j.record_accepted(line).unwrap();
        }
        j.record_answered(0).unwrap();
        j.sync().unwrap();
    }
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        f.write_all(b"{\"unit\": 1, \"payl").unwrap(); // torn `answered` for seq 1
    }

    // The torn record is dropped: seq 1's answered mark never landed, so
    // the pending set is exactly the unanswered suffix {1, 2}.
    let (_, pending) = RequestJournal::recover(&journal).unwrap();
    assert_eq!(
        pending,
        vec![(1, lines[1].clone()), (2, lines[2].clone())],
        "pending must be exactly the unanswered suffix"
    );

    // And the full stack recovers from it: a daemon started on this
    // journal replays those two and drains clean.
    let path = sock("torn");
    let opts = ServeOptions {
        journal: Some(journal.clone()),
        ..fast_opts()
    };
    let server = Server::start(&path, &opts).unwrap();
    wait_ready(&path, Duration::from_secs(10));
    let t0 = Instant::now();
    loop {
        let s = stats(&path);
        if s.completed >= 2 {
            assert_eq!(s.replayed, 2, "{s:?}");
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "replay stalled: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut c = Client::connect(&path).unwrap();
    let _ = c.call(&req(99, ReqBody::Shutdown)).unwrap();
    drop(c);
    assert_eq!(server.join_outcome(), ServerExit::Drained);
    let (_, pending) = RequestJournal::recover(&journal).unwrap();
    assert!(pending.is_empty(), "still pending: {pending:?}");
    std::fs::remove_file(&journal).ok();
}

/// Journal records and live frames from clients that still send
/// `"runs": 8` — a `score` field the daemon ignores, an `agent` field it
/// no longer has — replay without error and are answered exactly as the
/// same frames without `runs`: one scalar verdict.
#[test]
fn runs_from_older_clients_replays_and_answers_the_scalar_verdict() {
    let journal = jpath("runs");
    let ReqBody::Score {
        source, testbench, ..
    } = quick_score(950)
    else {
        unreachable!()
    };
    let esc = dda_obs::event::escape;
    let score = |runs: &str| {
        format!(
            r#"{{"ev": "score", "id": 1, "source": "{}", "testbench": "{}"{runs}, "top": "tb"}}"#,
            esc(&source),
            esc(testbench.as_deref().unwrap())
        )
    };
    let agent = |runs: &str| {
        format!(r#"{{"ev": "agent", "id": 2, "problem": "basic1", "k": 1, "rounds": 0{runs}}}"#)
    };
    let runs8 = r#", "runs": 8"#;
    {
        let (mut j, pending) = RequestJournal::recover(&journal).unwrap();
        assert!(pending.is_empty());
        j.record_accepted(&score(runs8)).unwrap();
        j.record_accepted(&agent(runs8)).unwrap();
        j.sync().unwrap();
    }

    let path = sock("runs");
    let opts = ServeOptions {
        journal: Some(journal.clone()),
        ..fast_opts()
    };
    let server = Server::start(&path, &opts).unwrap();
    wait_ready(&path, Duration::from_secs(10));
    let t0 = Instant::now();
    loop {
        let s = stats(&path);
        if s.completed >= 2 {
            // `completed` counts non-error answers only.
            assert_eq!((s.replayed, s.panics), (2, 0), "{s:?}");
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "replay stalled: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let raw = |line: &str| {
        let mut conn = std::os::unix::net::UnixStream::connect(&path).unwrap();
        write_frame(&mut conn, line).unwrap();
        let back = read_frame(&mut conn, MAX_FRAME)
            .unwrap()
            .expect("a response");
        Response::from_line(&back).unwrap()
    };
    let old = raw(&score(runs8));
    assert_eq!(
        old.body,
        RespBody::Scored {
            verdict: "scored".into(),
            pass_rate: 1.0,
            detail: String::new(),
        }
    );
    assert_eq!(old, raw(&score("")));
    let old = raw(&agent(runs8));
    assert!(
        matches!(old.body, RespBody::AgentReport { chains: 1, .. }),
        "{old:?}"
    );
    assert_eq!(old, raw(&agent("")));

    let mut c = Client::connect(&path).unwrap();
    let _ = c.call(&req(99, ReqBody::Shutdown)).unwrap();
    drop(c);
    assert_eq!(server.join_outcome(), ServerExit::Drained);
    let (_, pending) = RequestJournal::recover(&journal).unwrap();
    assert!(pending.is_empty(), "still pending: {pending:?}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn retrying_client_loses_nothing_across_a_crash_and_restart() {
    use dda_serve::client::{RetryOptions, RetryingClient};

    let path = sock("ride");
    let journal = jpath("ride");
    let opts = ServeOptions {
        journal: Some(journal.clone()),
        ..fast_opts()
    };
    let server = Server::start(&path, &opts).unwrap();

    // A client that keeps calling while the daemon crashes and restarts
    // underneath it: with a generous retry budget (and a breaker sized
    // above the downtime window), every call gets a real answer.
    let client_thread = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut rc = RetryingClient::new(
                &path,
                RetryOptions {
                    policy: dda_runtime::RetryPolicy {
                        max_attempts: 200,
                        base_backoff: Duration::from_millis(2),
                        max_backoff: Duration::from_millis(25),
                        seed: 0xC0FFEE,
                    },
                    breaker_threshold: 1_000, // don't fail fast in this test
                    ..RetryOptions::default()
                },
            );
            for i in 0..6u64 {
                let resp = rc
                    .call(&req(i, quick_score(950 + i as usize)))
                    .unwrap_or_else(|e| panic!("request {i} lost: {e}"));
                assert!(
                    matches!(resp.body, RespBody::Scored { .. }),
                    "request {i} got {resp:?}"
                );
            }
        })
    };

    // Crash mid-sequence, hold the daemon down for a while, restart.
    std::thread::sleep(Duration::from_millis(150));
    server.abort();
    assert_eq!(server.join_outcome(), ServerExit::Crashed);
    std::thread::sleep(Duration::from_millis(100));
    let server = Server::start_generation(&path, &opts, 1).unwrap();

    client_thread.join().expect("no call may be lost");
    let mut c = Client::connect(&path).unwrap();
    let _ = c.call(&req(99, ReqBody::Shutdown)).unwrap();
    drop(c);
    assert_eq!(server.join_outcome(), ServerExit::Drained);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn circuit_breaker_fails_fast_when_the_daemon_stays_down() {
    use dda_serve::client::{ClientError, RetryOptions, RetryingClient};

    // Nothing listens here and nothing will.
    let path = sock("downfor");
    let _ = std::fs::remove_file(&path);
    let mut rc = RetryingClient::new(
        &path,
        RetryOptions {
            policy: dda_runtime::RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(1),
                seed: 1,
            },
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(30),
            ..RetryOptions::default()
        },
    );
    // Every attempt is a transport failure; after 5 consecutive ones the
    // breaker opens and subsequent calls don't touch the socket at all.
    assert!(matches!(
        rc.call(&req(0, ReqBody::Ping)),
        Err(ClientError::Exhausted { .. })
    ));
    assert!(matches!(
        rc.call(&req(1, ReqBody::Ping)),
        Err(ClientError::Exhausted { .. })
    ));
    assert!(rc.breaker_open(), "5 consecutive failures must trip it");
    let t0 = Instant::now();
    assert!(matches!(
        rc.call(&req(2, ReqBody::Ping)),
        Err(ClientError::CircuitOpen)
    ));
    assert!(
        t0.elapsed() < Duration::from_millis(50),
        "an open breaker must fail fast, took {:?}",
        t0.elapsed()
    );
}
