//! The resident daemon: Unix-socket listener, admission control,
//! graceful drain, and crash-safe recovery.
//!
//! ## Request flow
//!
//! ```text
//! client ──frame──▶ reader thread ──┬─ control verb (ping/stats/health/ready/shutdown)
//!                                   │       └─ answered inline, never queued
//!                                   └─ data verb (augment/generate/repair/score)
//!                                           ├─ request journal: `accepted` record (optional)
//!                                           └─ ResidentPool::submit
//!                                                ├─ Overloaded ─▶ `overloaded` response (shed)
//!                                                └─ admitted ─▶ worker runs the handler
//!                                                     ├─ journal: `answered` record
//!                                                     └─ response frame (panic ⇒ `panic` error)
//! ```
//!
//! Each connection gets one reader thread; responses are written under a
//! per-connection mutex, so pool workers and the reader interleave whole
//! frames, never bytes. Because admitted jobs may finish out of order,
//! responses carry the request's `id` — a pipelining client matches on it.
//!
//! ## Overload and shutdown semantics
//!
//! The queue is bounded ([`ServeOptions::queue_capacity`]): when it is
//! full the daemon *sheds* — an immediate `overloaded` error, no
//! buffering. The control plane bypasses the queue, so `ping` and
//! `stats` stay responsive while the data plane is saturated.
//!
//! A `shutdown` request (or [`Server::stop`]) triggers graceful drain:
//! stop accepting connections → close the pool (new submits get a
//! `shutdown` error) → run the admitted backlog dry (their responses are
//! written) → unblock and join the reader threads → unlink the socket.
//!
//! ## Crash and recovery semantics
//!
//! A panic escaping the frame handler (reachable today only through the
//! `serve.dispatch` failpoint, but the handling is unconditional) is
//! treated as a **crash-stop**: queued jobs are discarded without
//! running ([`dda_runtime::ResidentPool::abort`]), connections are torn
//! down, *no* drain runs, and the socket file is deliberately left
//! behind — exactly the wreckage a killed process leaves.
//! [`Server::join_outcome`] reports [`ServerExit::Crashed`] so a
//! supervisor ([`crate::supervisor`]) can restart the daemon.
//!
//! Recovery is journal-driven: when [`ServeOptions::journal`] is set,
//! every accepted data-plane request is recorded before dispatch and
//! marked answered after its response is computed
//! ([`crate::journal::RequestJournal`]). On start, the accepted-but-
//! unanswered suffix is **replayed**: re-parsed, re-submitted with a
//! *fresh* deadline budget (a request must not inherit the dead
//! generation's nearly-spent clock), executed, and marked answered —
//! their responses go nowhere (the original connections died with the
//! crash; clients re-send via [`crate::client::RetryingClient`] and
//! handlers are deterministic). Startup re-binding survives the stale
//! socket via probe-connect: only a socket nobody answers is unlinked,
//! a live daemon keeps its address and the new start fails `AddrInUse`.

use crate::handlers::{execute, HandlerCx};
use crate::journal::RequestJournal;
use crate::proto::{ErrorCode, ReqBody, Request, RespBody, Response, StatsBody};
use crate::wire::{read_frame, write_frame, WireError, MAX_FRAME};
use dda_runtime::{PoolOptions, ResidentPool, SubmitError};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Pool worker threads.
    pub workers: usize,
    /// Bounded queue capacity; submits beyond it are shed.
    pub queue_capacity: usize,
    /// Frame payload ceiling for this listener.
    pub max_frame: usize,
    /// Deadline applied to requests that don't carry `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Starvation-free aging limit for normal-priority work.
    pub age_limit: Duration,
    /// Honor `poison` requests (chaos tests / storm bench only).
    pub fault_injection: bool,
    /// Corpus modules for the startup finetune (0 = pretrained model).
    pub model_modules: usize,
    /// Accepted-request journal path. `None` disables crash-safe replay.
    pub journal: Option<PathBuf>,
    /// Sync the journal to the storage device on every acceptance
    /// (survives host crashes, not just process crashes). Costs an
    /// fdatasync per data-plane request.
    pub durable_journal: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            queue_capacity: 64,
            max_frame: MAX_FRAME,
            default_deadline: Some(Duration::from_secs(10)),
            age_limit: Duration::from_millis(250),
            fault_injection: false,
            model_modules: 8,
            journal: None,
            durable_journal: false,
        }
    }
}

#[derive(Default)]
struct ServiceStats {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    panics: AtomicU64,
    dropped: AtomicU64,
    replayed: AtomicU64,
}

struct Inner {
    pool: ResidentPool,
    cx: HandlerCx,
    stats: ServiceStats,
    stop: AtomicBool,
    crashed: AtomicBool,
    replay_done: AtomicBool,
    started: Instant,
    generation: u64,
    journal: Option<Mutex<RequestJournal>>,
    durable_journal: bool,
    /// Reader threads + shutdown handles for every accepted connection.
    conns: Mutex<Vec<(UnixStream, JoinHandle<()>)>>,
    default_deadline: Option<Duration>,
    max_frame: usize,
}

impl Inner {
    fn stats_body(&self) -> StatsBody {
        let cache = dda_sim::cache::stats();
        StatsBody {
            admitted: self.stats.admitted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            timed_out: self.stats.timed_out.load(Ordering::Relaxed),
            panics: self.stats.panics.load(Ordering::Relaxed),
            queue_depth: self.pool.depth() as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_resident: dda_sim::cache::resident() as u64,
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            replayed: self.stats.replayed.load(Ordering::Relaxed),
        }
    }

    fn is_ready(&self) -> bool {
        self.replay_done.load(Ordering::Acquire)
            && !self.stop.load(Ordering::Acquire)
            && !self.crashed.load(Ordering::Acquire)
    }

    /// Marks `seq` answered in the request journal (no-op when
    /// journaling is off or the request predates it).
    fn mark_answered(&self, seq: Option<u64>) {
        if let (Some(journal), Some(seq)) = (&self.journal, seq) {
            let mut j = journal.lock().unwrap_or_else(|p| p.into_inner());
            if j.record_answered(seq).is_err() {
                dda_obs::count("serve.journal.error", 1);
            }
        }
    }

    /// Crash-stop: the in-process analog of `kill -9`. Discards the
    /// queue, tears down connections, skips the drain, leaves the
    /// socket file behind. Idempotent; safe to call from a connection
    /// reader thread (it never joins them).
    fn crash(&self) {
        if self.crashed.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stop.store(true, Ordering::Release);
        let dropped = self.pool.abort();
        self.stats
            .dropped
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dda_obs::count("serve.crashed", 1);
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|p| p.into_inner()));
        for (stream, _handle) in conns {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// How a daemon generation ended; see [`Server::join_outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerExit {
    /// Graceful drain: backlog answered, socket unlinked.
    Drained,
    /// Crash-stop: queue discarded, socket file left behind. Restart
    /// (and journal replay) is the supervisor's job.
    Crashed,
}

/// A running daemon. Dropping it (or calling [`Server::join`]) drains
/// gracefully unless it crashed first.
pub struct Server {
    path: PathBuf,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    replay: Option<JoinHandle<()>>,
}

/// Binds the listener at `path`, recovering a *stale* socket file but
/// refusing to clobber a *live* daemon: on `AddrInUse`, probe-connect —
/// an accepted connection means somebody is serving (fail `AddrInUse`),
/// `ConnectionRefused` means a dead process left the file behind
/// (unlink and bind).
fn bind_probing(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => match UnixStream::connect(path) {
            Ok(_) => Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("a live daemon already answers on {}", path.display()),
            )),
            Err(probe) if probe.kind() == io::ErrorKind::ConnectionRefused => {
                std::fs::remove_file(path)?;
                UnixListener::bind(path)
            }
            Err(_) => Err(e),
        },
        Err(e) => Err(e),
    }
}

impl Server {
    /// Binds the socket (recovering stale socket files via
    /// probe-connect), bootstraps the handler context (startup
    /// finetune), spawns the pool and the accept loop, kicks off journal
    /// replay when configured, and returns immediately.
    ///
    /// # Errors
    ///
    /// Socket bind/listen failures — including `AddrInUse` when a live
    /// daemon already answers on `path` — and journal recovery failures.
    pub fn start(path: &Path, opts: &ServeOptions) -> io::Result<Server> {
        Server::start_generation(path, opts, 0)
    }

    /// [`Server::start`] with an explicit supervisor restart generation
    /// (reported by the `health` verb and the supervisor's logs).
    ///
    /// # Errors
    ///
    /// See [`Server::start`].
    pub fn start_generation(
        path: &Path,
        opts: &ServeOptions,
        generation: u64,
    ) -> io::Result<Server> {
        let listener = bind_probing(path)?;
        listener.set_nonblocking(true)?;
        let (journal, pending) = match &opts.journal {
            Some(journal_path) => {
                let (journal, pending) = RequestJournal::recover(journal_path)?;
                (Some(Mutex::new(journal)), pending)
            }
            None => (None, Vec::new()),
        };
        let cx = HandlerCx::bootstrap(opts.model_modules, opts.fault_injection);
        let pool = ResidentPool::new(&PoolOptions {
            workers: opts.workers,
            queue_capacity: opts.queue_capacity,
            age_limit: opts.age_limit,
            ..PoolOptions::default()
        });
        let inner = Arc::new(Inner {
            pool,
            cx,
            stats: ServiceStats::default(),
            stop: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            replay_done: AtomicBool::new(pending.is_empty()),
            started: Instant::now(),
            generation,
            journal,
            durable_journal: opts.durable_journal,
            conns: Mutex::new(Vec::new()),
            default_deadline: opts.default_deadline,
            max_frame: opts.max_frame,
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&listener, &inner))
        };
        let replay = (!pending.is_empty()).then(|| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || replay_pending(&inner, pending))
        });
        dda_obs::count("serve.started", 1);
        Ok(Server {
            path: path.to_path_buf(),
            inner,
            accept: Some(accept),
            replay,
        })
    }

    /// The socket path this daemon listens on.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Requests shutdown programmatically (equivalent to a `shutdown`
    /// request on the wire). Returns immediately; [`Server::join`] waits
    /// for the drain.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::Release);
    }

    /// Crash-stops the daemon: queued work is discarded (not run), no
    /// drain happens, and the socket file is left behind — the
    /// in-process stand-in for `kill -9`, used by the chaos batteries.
    /// Follow with [`Server::join_outcome`].
    pub fn abort(&self) {
        self.inner.crash();
    }

    /// Blocks until the daemon has stopped and reports how: a graceful
    /// [`ServerExit::Drained`] (backlog answered, socket unlinked) or a
    /// [`ServerExit::Crashed`] crash-stop (socket file intentionally
    /// left in place for the restart path to recover).
    pub fn join_outcome(mut self) -> ServerExit {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.replay.take() {
            let _ = h.join();
        }
        if self.inner.crashed.load(Ordering::Acquire) {
            ServerExit::Crashed
        } else {
            let _ = std::fs::remove_file(&self.path);
            ServerExit::Drained
        }
    }

    /// Blocks until the daemon has shut down (via a `shutdown` request or
    /// [`Server::stop`]) and the drain has finished: backlog executed,
    /// responses written, reader threads joined, socket unlinked. (After
    /// a crash-stop, prefer [`Server::join_outcome`] — `join` leaves the
    /// socket behind in that case too, but silently.)
    pub fn join(self) {
        let _ = self.join_outcome();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server drains gracefully too — unless it crashed, in
        // which case the socket file stays (a dead process would have
        // left it) for the probe-bind path to reclaim.
        self.stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.replay.take() {
            let _ = h.join();
        }
        if !self.inner.crashed.load(Ordering::Acquire) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Re-submits recovered journaled-but-unanswered requests with fresh
/// deadline budgets. Overloaded submits wait politely; a drain or crash
/// stops replay (the remainder stays pending for the next generation).
fn replay_pending(inner: &Arc<Inner>, pending: Vec<(u64, String)>) {
    for (seq, line) in pending {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let req = match Request::from_line(&line) {
            Ok(r) => r,
            Err(_) => {
                // We journaled this line ourselves, so it should always
                // re-parse; if it somehow doesn't, mark it answered so a
                // corrupt entry cannot wedge every future restart.
                dda_obs::count("serve.replay.unparseable", 1);
                inner.mark_answered(Some(seq));
                continue;
            }
        };
        loop {
            match submit_request(inner, req.clone(), Some(seq), None, true) {
                Ok(()) => break,
                Err(SubmitError::Overloaded { .. }) => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(SubmitError::Closed) => return,
            }
        }
    }
    inner.replay_done.store(true, Ordering::Release);
}

fn accept_loop(listener: &UnixListener, inner: &Arc<Inner>) {
    while !inner.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                dda_obs::count("serve.conn.opened", 1);
                let shutdown_handle = match stream.try_clone() {
                    Ok(c) => c,
                    Err(_) => continue,
                };
                let handle = {
                    let inner = Arc::clone(inner);
                    std::thread::spawn(move || connection_loop(stream, &inner))
                };
                let mut conns = inner.conns.lock().unwrap_or_else(|p| p.into_inner());
                // Reap finished reader threads so a long-lived daemon's
                // registry is bounded by *active* connections, not by every
                // connection ever accepted.
                conns.retain(|(_, h)| !h.is_finished());
                conns.push((shutdown_handle, handle));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    if inner.crashed.load(Ordering::Acquire) {
        // Crash-stop: no drain, no socket unlink. The wreckage is the
        // point — restart recovery has to cope with it.
        return;
    }
    drain(inner);
}

/// Graceful drain; see the module docs for the ordering rationale.
fn drain(inner: &Arc<Inner>) {
    inner.pool.close();
    inner.pool.quiesce();
    let conns = std::mem::take(&mut *inner.conns.lock().unwrap_or_else(|p| p.into_inner()));
    for (stream, _) in &conns {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    for (_, handle) in conns {
        let _ = handle.join();
    }
    dda_obs::count("serve.drained", 1);
}

type SharedWriter = Arc<Mutex<UnixStream>>;

fn write_response(writer: &SharedWriter, resp: &Response) {
    // Injected write fault: the response frame is "lost on the wire" —
    // from the client's perspective, indistinguishable from a crash
    // after acceptance, which is what retry policies must absorb.
    if dda_fail::fail_io!("serve.conn.write").is_err() {
        return;
    }
    // A write failure means the client is gone; the daemon doesn't care.
    let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
    let _ = write_frame(&mut *w, &resp.to_line());
}

fn connection_loop(mut stream: UnixStream, inner: &Arc<Inner>) {
    let writer: SharedWriter = match stream.try_clone() {
        Ok(c) => Arc::new(Mutex::new(c)),
        Err(_) => return,
    };
    let mut broken = false;
    loop {
        let frame = match dda_fail::fail_io!("serve.conn.read") {
            Ok(()) => read_frame(&mut stream, inner.max_frame),
            Err(e) => Err(WireError::Io(e)),
        };
        match frame {
            Ok(Some(line)) => {
                match catch_unwind(AssertUnwindSafe(|| handle_frame(&line, inner, &writer))) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(_) => {
                        // A panic past the handler's own isolation means
                        // the service loop's state can no longer be
                        // trusted: crash-stop, let the supervisor and the
                        // request journal pick up the pieces.
                        inner.crash();
                        break;
                    }
                }
            }
            Ok(None) => break, // clean close
            Err(e) => {
                dda_obs::count("serve.frame.bad", 1);
                // Oversized leaves the unread body in the stream and a torn
                // frame has no more bytes: either way the stream is not at a
                // frame boundary anymore, so answer (best effort) and close.
                if let WireError::Oversized { declared, max } = &e {
                    write_response(
                        &writer,
                        &Response::error(
                            0,
                            "?",
                            ErrorCode::BadRequest,
                            format!("frame of {declared} bytes exceeds the {max}-byte limit"),
                        ),
                    );
                }
                broken = true;
                break;
            }
        }
    }
    // A broken stream is closed for good — other clones of this socket
    // (the writer, the registry's shutdown handle) must not keep it
    // half-alive, and the peer deserves a prompt EOF. A *clean* EOF is
    // different: a pipelining client may half-close its write side and
    // still be owed responses for admitted work, so the socket stays open
    // until those jobs finish (their writer clones drop) or the daemon
    // drains.
    if broken {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    dda_obs::count("serve.conn.closed", 1);
}

/// Builds and submits the pool job for one data-plane request.
///
/// `seq` is the request-journal sequence to mark answered once the
/// response is computed; `writer` is where the response goes (`None`
/// during journal replay — the original connection died with the crash).
/// On success the request counts as admitted (and as replayed when
/// `replayed`).
fn submit_request(
    inner: &Arc<Inner>,
    req: Request,
    seq: Option<u64>,
    writer: Option<SharedWriter>,
    replayed: bool,
) -> Result<(), SubmitError> {
    // Deadline budget measured from *now*: a replayed or retried request
    // gets a fresh clock, never the original submission's nearly-spent
    // remainder.
    let deadline = req
        .deadline_ms
        .map(Duration::from_millis)
        .or(inner.default_deadline);
    let job = {
        let inner = Arc::clone(inner);
        let body = req.body.clone();
        let id = req.id;
        move |token: &dda_runtime::CancelToken| {
            let resp_body =
                match catch_unwind(AssertUnwindSafe(|| execute(&inner.cx, &body, token))) {
                    Ok(resp) => resp,
                    Err(_) => {
                        inner.stats.panics.fetch_add(1, Ordering::Relaxed);
                        dda_obs::count("serve.request.panicked", 1);
                        RespBody::Error {
                            code: ErrorCode::Panic,
                            message: "handler panicked; the panic was isolated".to_string(),
                        }
                    }
                };
            match &resp_body {
                RespBody::Error {
                    code: ErrorCode::Deadline,
                    ..
                } => {
                    inner.stats.timed_out.fetch_add(1, Ordering::Relaxed);
                    dda_obs::count("serve.request.timedout", 1);
                }
                RespBody::Error { .. } => {}
                _ => {
                    inner.stats.completed.fetch_add(1, Ordering::Relaxed);
                    dda_obs::count("serve.request.completed", 1);
                }
            }
            // The response exists: mark answered *before* attempting the
            // write, so a crash between the two replays nothing (clients
            // that never saw the frame re-send through their retry
            // policy; handlers are deterministic).
            inner.mark_answered(seq);
            if let Some(writer) = writer {
                write_response(
                    &writer,
                    &Response {
                        id,
                        verb: body.verb().into(),
                        body: resp_body,
                    },
                );
            }
        }
    };
    inner.pool.submit(req.priority, deadline, job)?;
    inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
    dda_obs::count("serve.request.admitted", 1);
    if replayed {
        inner.stats.replayed.fetch_add(1, Ordering::Relaxed);
        dda_obs::count("serve.request.replayed", 1);
    }
    Ok(())
}

/// Handles one decoded frame. Returns `false` when the connection should
/// close (after a `shutdown` acknowledgement).
fn handle_frame(line: &str, inner: &Arc<Inner>, writer: &SharedWriter) -> bool {
    let req = match Request::from_line(line) {
        Ok(r) => r,
        Err(e) => {
            // Malformed JSON is a *request*-level error: the frame itself
            // was sound, so the connection stays usable.
            write_response(
                writer,
                &Response::error(0, "?", ErrorCode::BadRequest, e.message),
            );
            return true;
        }
    };
    let verb = req.body.verb();
    if req.body.is_control() {
        let body = match req.body {
            ReqBody::Ping => RespBody::Pong,
            ReqBody::Stats => RespBody::Stats(inner.stats_body()),
            ReqBody::Health => RespBody::Health {
                uptime_ms: inner.started.elapsed().as_millis() as u64,
                generation: inner.generation,
                replayed: inner.stats.replayed.load(Ordering::Relaxed),
                failpoints: dda_fail::compiled(),
            },
            ReqBody::Ready => RespBody::Ready {
                ready: inner.is_ready(),
            },
            ReqBody::Shutdown => RespBody::ShuttingDown,
            _ => unreachable!("is_control"),
        };
        let shutdown = body == RespBody::ShuttingDown;
        let id = req.id;
        let verb = verb.into();
        write_response(writer, &Response { id, verb, body });
        if shutdown {
            inner.stop.store(true, Ordering::Release);
        }
        return !shutdown;
    }

    // Journal the acceptance *before* dispatch: once this record exists,
    // a crash anywhere downstream cannot lose the request.
    let seq = match &inner.journal {
        Some(journal) => {
            let mut j = journal.lock().unwrap_or_else(|p| p.into_inner());
            let recorded = j.record_accepted(line).and_then(|seq| {
                if inner.durable_journal {
                    j.sync()?;
                }
                Ok(seq)
            });
            match recorded {
                Ok(seq) => Some(seq),
                Err(_) => {
                    // Availability over durability: the request still
                    // runs, it just isn't covered by crash replay (the
                    // client's retry policy covers that window).
                    dda_obs::count("serve.journal.error", 1);
                    None
                }
            }
        }
        None => None,
    };
    // Dispatch failpoint: deliberately placed where no lock is held. An
    // injected panic here escapes to `connection_loop`'s catch_unwind
    // and crash-stops the daemon with the request journaled-but-
    // unanswered — the scenario journal replay exists for.
    dda_fail::fail_point!("serve.dispatch");
    match submit_request(inner, req.clone(), seq, Some(Arc::clone(writer)), false) {
        Ok(()) => {}
        Err(SubmitError::Overloaded { depth }) => {
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            dda_obs::count("serve.request.shed", 1);
            // Shed means *not accepted*: mark any journal record answered
            // so replay never resurrects a request the client was told to
            // retry.
            inner.mark_answered(seq);
            write_response(
                writer,
                &Response::error(
                    req.id,
                    verb,
                    ErrorCode::Overloaded,
                    format!("pool queue full ({depth} jobs queued)"),
                ),
            );
        }
        Err(SubmitError::Closed) => {
            inner.mark_answered(seq);
            write_response(
                writer,
                &Response::error(req.id, verb, ErrorCode::Shutdown, "daemon is draining"),
            );
        }
    }
    true
}
