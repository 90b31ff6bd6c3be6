//! Typed request/response messages and their JSON object codec.
//!
//! One frame ([`crate::wire`]) carries one flat JSON object, written and
//! read with the workspace's one JSON codec, `dda_obs::event`. Requests
//! use the verb as the `"ev"` kind:
//!
//! ```json
//! {"ev": "score", "id": 7, "priority": "high", "deadline_ms": 2000,
//!  "source": "module simple_wire(...); ... endmodule", "problem": "simple_wire"}
//! ```
//!
//! Responses are `"ev": "response"` objects echoing the request id and
//! verb with a `status` of `"ok"` or `"error"`; errors carry a stable
//! machine-readable `code` (see [`ErrorCode`]) plus a human message:
//!
//! ```json
//! {"ev": "response", "id": 7, "verb": "score", "status": "ok",
//!  "verdict": "scored", "pass_rate": 1}
//! {"ev": "response", "id": 9, "verb": "augment", "status": "error",
//!  "code": "overloaded", "message": "pool queue full (64 jobs queued)"}
//! ```
//!
//! Decoding is strict where it matters (unknown verbs, missing required
//! fields, wrong field types are [`ProtoError`]s that become structured
//! `bad_request` responses, never panics) and lenient where it helps
//! (unknown *extra* fields are ignored, so the protocol can grow).
//!
//! Each verb's fields are declared once, in wire order, with a rule
//! giving the default a frame may omit and whether that default stays
//! off the wire; the encoder, the decoder and the verb names all expand
//! from that one declaration (`wire_verbs!`).

use dda_obs::event::{decode_object, ObjectWriter, Value};
use dda_runtime::Priority;

/// Ceiling on the simulator deadline a request may ask for, so one
/// request cannot park a worker for minutes (`deadline_ms` is clamped to
/// this at decode time).
pub const MAX_DEADLINE_MS: u64 = 60_000;

/// Ceiling on the hit count a `retrieve` request may ask for (`k` is
/// clamped to this at decode time, and zero means 1).
pub const MAX_RETRIEVE_K: u64 = 64;

/// Ceiling on the candidate chains an `agent` request may ask for (`k`
/// is clamped to this at decode time, and zero means 1).
pub const MAX_AGENT_K: u64 = 16;

/// Ceiling on the tool-feedback rounds an `agent` request may ask for
/// (`rounds` is clamped to this at decode time).
pub const MAX_AGENT_ROUNDS: u64 = 8;

/// Default chains per `agent` request (the paper's pass@5 protocol).
pub const DEFAULT_AGENT_K: u64 = 5;

/// Default tool-feedback round budget per `agent` chain.
pub const DEFAULT_AGENT_ROUNDS: u64 = 3;

/// Default prompt detail level for `agent` requests (the most detailed
/// of the three levels each benchmark problem carries).
pub const DEFAULT_AGENT_LEVEL: u64 = 2;

/// Default `agent` sampling seed (matches `dda_eval::AgentProtocol`).
pub const DEFAULT_AGENT_SEED: u64 = 7331;

/// The work a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum ReqBody {
    /// Liveness probe; answered inline, bypassing admission control.
    Ping,
    /// Service/cache/pool counters; answered inline.
    Stats,
    /// Liveness + provenance probe: uptime, supervisor generation,
    /// replay count, failpoint build flavor. Answered inline.
    Health,
    /// Readiness probe: whether the daemon is accepting data-plane work
    /// (journal replay submitted, not draining). Answered inline.
    Ready,
    /// Begin graceful drain; answered inline, then the daemon stops
    /// accepting, finishes admitted work, and exits.
    Shutdown,
    /// Run the augmentation pipeline over one Verilog module.
    Augment {
        /// Module (file-stem) name, used in diagnostics and repair pairs.
        name: String,
        /// Verilog source text.
        source: String,
        /// Pipeline RNG seed.
        seed: u64,
    },
    /// Sample the service's SLM.
    Generate {
        /// Instruction (defaults to the NL→Verilog alignment instruct).
        instruct: String,
        /// Prompt / input text.
        prompt: String,
        /// Sampling temperature.
        temperature: f64,
        /// Sampling seed.
        seed: u64,
    },
    /// Lint-guided repair search on a broken module.
    Repair {
        /// Module name (for diagnostics).
        name: String,
        /// Broken source.
        source: String,
        /// Checker-call budget.
        budget: u64,
    },
    /// Score a candidate against a named benchmark problem's testbench,
    /// or against an inline testbench.
    Score {
        /// Candidate module source.
        source: String,
        /// Benchmark problem id (`thakur`/`rtllm` suites); mutually
        /// exclusive with `testbench`.
        problem: Option<String>,
        /// Inline self-checking testbench (prints `RESULT <pass> <total>`).
        testbench: Option<String>,
        /// Top module of the inline testbench (default `tb`).
        top: String,
        /// Ignored by the daemon, which scores every candidate once.
        /// Still decoded and encoded (default 1) because existing clients
        /// construct and send it.
        runs: u64,
    },
    /// K-nearest corpus modules for a free-text query, from the resident
    /// sharded retrieval index (RAG candidates for few-shot prompting).
    Retrieve {
        /// Free-text query (a description, an interface, a broken file).
        query: String,
        /// How many hits to return (clamped to [`MAX_RETRIEVE_K`] at
        /// decode time).
        k: u64,
    },
    /// Run a pass@k tool-in-the-loop agent batch against a named
    /// benchmark problem: k candidate chains of generate → lint →
    /// simulate → feed-diagnostics → repair on the supervised engine
    /// (see `dda_eval::agent_batch`).
    Agent {
        /// Benchmark problem id (`thakur`/`rtllm` suites).
        problem: String,
        /// Prompt detail level (default [`DEFAULT_AGENT_LEVEL`]).
        level: u64,
        /// Candidate chains (clamped to [`MAX_AGENT_K`]).
        k: u64,
        /// Tool-feedback rounds per chain after the first draft (clamped
        /// to [`MAX_AGENT_ROUNDS`]).
        rounds: u64,
        /// Commit the lowest-indexed passing chain early and cancel the
        /// chains above it (default off = every chain runs).
        early_exit: bool,
        /// Few-shot context documents pulled from the resident retrieval
        /// index into each chain's repair prompts (0 = no RAG).
        rag_k: u64,
        /// Chain RNG seed (default [`DEFAULT_AGENT_SEED`]).
        seed: u64,
    },
    /// Deliberately panics the worker. Only honored when the service was
    /// started with fault injection enabled (chaos tests / storm bench);
    /// otherwise a `bad_request` error.
    Poison,
}

impl ReqBody {
    /// The wire verb for this body.
    pub fn verb(&self) -> &'static str {
        self.key()
    }

    /// Whether the service answers this verb inline on the connection
    /// thread (control plane) rather than queueing it (data plane). The
    /// control plane stays responsive under overload by construction.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            ReqBody::Ping | ReqBody::Stats | ReqBody::Health | ReqBody::Ready | ReqBody::Shutdown
        )
    }
}

/// One request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Scheduling class (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Wall-clock budget in milliseconds, measured from admission
    /// (`None` = the service default). Clamped to [`MAX_DEADLINE_MS`].
    pub deadline_ms: Option<u64>,
    /// The work itself.
    pub body: ReqBody,
}

/// Machine-readable failure class on an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The bounded queue was full; the request was shed, not queued.
    /// Back off and retry.
    Overloaded,
    /// The request was malformed (unknown verb, missing field, bad type,
    /// unknown problem id, ...).
    BadRequest,
    /// The request's wall-clock deadline expired (in queue or mid-work).
    Deadline,
    /// The handler panicked; the panic was isolated and the daemon lives.
    Panic,
    /// The daemon is draining and no longer admits data-plane work.
    Shutdown,
}

/// Each error code's stable wire string.
const ERROR_CODES: [(ErrorCode, &str); 5] = [
    (ErrorCode::Overloaded, "overloaded"),
    (ErrorCode::BadRequest, "bad_request"),
    (ErrorCode::Deadline, "deadline"),
    (ErrorCode::Panic, "panic"),
    (ErrorCode::Shutdown, "shutdown"),
];

/// Each priority's wire string.
const PRIORITIES: [(Priority, &str); 2] = [(Priority::Normal, "normal"), (Priority::High, "high")];

impl ErrorCode {
    /// Stable wire string.
    pub fn as_str(self) -> &'static str {
        word(&ERROR_CODES, self)
    }
}

/// Service/cache/pool counters returned by a `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsBody {
    /// Requests admitted to the queue since startup.
    pub admitted: u64,
    /// Data-plane requests answered successfully.
    pub completed: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Requests that died to their deadline.
    pub timed_out: u64,
    /// Handler panics isolated.
    pub panics: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Design-cache hits (both tiers).
    pub cache_hits: u64,
    /// Design-cache frontend computes.
    pub cache_misses: u64,
    /// Design-cache evictions from the global tier.
    pub cache_evictions: u64,
    /// Designs resident in the global cache tier.
    pub cache_resident: u64,
    /// Admitted-but-unstarted jobs discarded by a crash-stop
    /// ([`crate::service::Server::abort`] / an escaped dispatch panic).
    /// Their requests sit unanswered in the journal until replay.
    pub dropped: u64,
    /// Journaled requests re-executed by startup replay this generation.
    pub replayed: u64,
}

/// Response payloads, one per verb (plus the error case).
#[derive(Debug, Clone, PartialEq)]
pub enum RespBody {
    /// `ping` answer.
    Pong,
    /// `stats` answer.
    Stats(StatsBody),
    /// `shutdown` acknowledged; drain begins.
    ShuttingDown,
    /// `health` answer.
    Health {
        /// Milliseconds since this service generation started.
        uptime_ms: u64,
        /// Supervisor restart generation (0 = first start).
        generation: u64,
        /// Journaled requests replayed when this generation started.
        replayed: u64,
        /// Whether the daemon was built with `dda-fail` failpoints.
        failpoints: bool,
    },
    /// `ready` answer.
    Ready {
        /// Whether data-plane work is being accepted (startup replay
        /// fully submitted and not draining/crashed).
        ready: bool,
    },
    /// `augment` result.
    Augmented {
        /// Dataset entries produced.
        entries: u64,
        /// Units quarantined by the pipeline's panic isolation.
        quarantined: u64,
        /// The entries as JSONL (one `{"instruct", "input", "output"}`
        /// object per line).
        jsonl: String,
    },
    /// `generate` result.
    Generated {
        /// Sampled output.
        output: String,
    },
    /// `repair` result.
    Repaired {
        /// Best source found.
        source: String,
        /// Whether it lints clean.
        clean: bool,
        /// Checker calls spent.
        cost: u64,
    },
    /// `score` result.
    Scored {
        /// Verdict class: `scored`, `parse_error`, `elab_error`,
        /// `timeout`, or `crash`.
        verdict: String,
        /// Functional pass rate in `[0, 1]` (zero for failure verdicts).
        pass_rate: f64,
        /// Failure detail (empty for `scored`).
        detail: String,
    },
    /// `retrieve` result.
    Retrieved {
        /// Hits returned (may be fewer than the requested `k`).
        count: u64,
        /// The hits as JSONL (one `{"id", "score", "name", "source"}`
        /// object per line, best first).
        jsonl: String,
    },
    /// `agent` result.
    AgentReport {
        /// Whether any chain passed the problem's testbench.
        passed: bool,
        /// Lowest-indexed passing chain, when one exists.
        winner: Option<u64>,
        /// Chains run (echoes the request's clamped `k`).
        chains: u64,
        /// Tool-feedback rounds summed over the committed chains — the
        /// batch's deterministic work measure.
        rounds_total: u64,
        /// Chains lost to panics or per-chain deadline trips (0 on a
        /// healthy run; omitted from the wire when 0).
        quarantined: u64,
        /// Per-chain detail as JSONL (one `{"chain", "rounds", "lint",
        /// "function", "repaired", "cancelled"}` object per line, in
        /// chain order).
        jsonl: String,
    },
    /// Any verb's failure.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One response frame: the echoed id/verb plus the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Correlation id echoed from the request (0 when the request was so
    /// malformed no id could be recovered).
    pub id: u64,
    /// Echoed verb (`"?"` when unrecoverable).
    pub verb: String,
    /// Payload.
    pub body: RespBody,
}

/// A decode failure; the service turns this into a `bad_request` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtoError {}

fn bad(message: impl Into<String>) -> ProtoError {
    ProtoError {
        message: message.into(),
    }
}

/// How one field meets the wire: the default a frame may leave out, and
/// whether that default is written.
#[derive(Clone, Copy)]
enum Rule<D> {
    /// Required on decode; always written.
    Need,
    /// Defaults to `D` when absent; always written.
    Keep(D),
    /// Defaults to `D` when absent and stays off the wire when equal to
    /// it, so frames from before the field existed are byte-identical.
    Omit(D),
}

use Rule::{Keep, Need, Omit};

/// A type one wire field holds.
trait Field: Sized + PartialEq {
    /// How a default of this type is spelled in a [`Rule`].
    type Default: Copy;
    /// What a mistyped value should have been, for the error message.
    const WANT: &'static str;
    fn from_default(d: Self::Default) -> Self;
    fn read(v: Value) -> Option<Self>;
    fn write(&self, name: &str, w: &mut ObjectWriter<'_>);
}

/// Implements [`Field`] for a type read from the listed [`Value`]
/// shapes and written by one [`ObjectWriter`] method, or for an enum
/// written as its word in a `(variant, word)` table.
macro_rules! field {
    ($T:ty, $Default:ty, $want:literal, $write:ident($($deref:tt)?), $($shape:pat => $v:expr),+) => {
        impl Field for $T {
            type Default = $Default;
            const WANT: &'static str = $want;
            fn from_default(d: $Default) -> $T {
                d.into()
            }
            fn read(v: Value) -> Option<$T> {
                match v {
                    $($shape => Some($v),)+
                    _ => None,
                }
            }
            fn write(&self, name: &str, w: &mut ObjectWriter<'_>) {
                w.$write(name, $($deref)? self);
            }
        }
    };
    ($T:ty, $table:expr, $want:literal) => {
        impl Field for $T {
            type Default = $T;
            const WANT: &'static str = $want;
            fn from_default(d: $T) -> $T {
                d
            }
            fn read(v: Value) -> Option<$T> {
                let Value::Str(s) = v else { return None };
                $table.iter().find(|(_, w)| *w == s).map(|(t, _)| *t)
            }
            fn write(&self, name: &str, w: &mut ObjectWriter<'_>) {
                w.str(name, word(&$table, *self));
            }
        }
    };
}

field!(String, &'static str, "a string", str(), Value::Str(s) => s);
field!(u64, u64, "a non-negative integer", u64(*), Value::U64(n) => n);
field!(bool, bool, "a boolean", bool(*), Value::Bool(b) => b);
field!(f64, f64, "a number", f64(*),
    Value::F64(x) => x, Value::U64(n) => n as f64, Value::I64(n) => n as f64);
field!(Priority, PRIORITIES, "`normal` or `high`");
field!(ErrorCode, ERROR_CODES, "a known error code");

/// An optional field: `None` is never written, and `Omit(None)` decodes
/// an absent field as `None`.
impl<T: Field> Field for Option<T> {
    type Default = Option<T::Default>;
    const WANT: &'static str = T::WANT;
    fn from_default(d: Self::Default) -> Self {
        d.map(T::from_default)
    }
    fn read(v: Value) -> Option<Self> {
        T::read(v).map(Some)
    }
    fn write(&self, name: &str, w: &mut ObjectWriter<'_>) {
        if let Some(v) = self {
            v.write(name, w);
        }
    }
}

fn word<T: Copy + PartialEq>(table: &[(T, &'static str)], v: T) -> &'static str {
    let found = table.iter().find(|(t, _)| *t == v);
    found
        .map(|(_, w)| *w)
        .expect("word tables list every variant")
}

/// Writes `v` as field `name` unless `rule` keeps its value off the wire.
fn put<T: Field>(w: &mut ObjectWriter<'_>, name: &str, v: &T, rule: Rule<T::Default>) {
    if !matches!(rule, Omit(d) if *v == T::from_default(d)) {
        v.write(name, w);
    }
}

/// A decoded frame's fields, moved out by name as the declarations ask
/// for them; fields nobody asks for are ignored.
struct Dec(Vec<(String, Value)>);

impl Dec {
    fn new(line: &str) -> Result<Dec, ProtoError> {
        decode_object(line)
            .map(Dec)
            .map_err(|e| bad(format!("invalid JSON object: {e}")))
    }

    /// Takes field `name`, or the default `rule` gives an absent one.
    fn get<T: Field>(&mut self, name: &str, rule: Rule<T::Default>) -> Result<T, ProtoError> {
        let Some(at) = self.0.iter().position(|(n, _)| n == name) else {
            return match rule {
                Need => Err(bad(format!("missing field `{name}`"))),
                Keep(d) | Omit(d) => Ok(T::from_default(d)),
            };
        };
        T::read(self.0.swap_remove(at).1)
            .ok_or_else(|| bad(format!("field `{name}` must be {}", T::WANT)))
    }
}

/// Declares a message body enum's wire form once: each variant's key
/// (its verb) and its fields in wire order with their [`Rule`]s. Expands
/// to `key` (variant → key), `put_fields` (the encoder) and `get_fields`
/// (key → decoded variant, `None` for an unknown key), so the three
/// cannot drift apart. A `Variant(Struct { ... })` entry declares the
/// fields of a newtype variant's struct.
macro_rules! wire_verbs {
    ($Body:ident {
        $($key:literal => $Var:ident
            $(($Inner:ident { $($i:ident: $irule:expr),* $(,)? }))?
            $({ $($f:ident: $rule:expr),* $(,)? })?
        ),* $(,)?
    }) => {
        impl $Body {
            fn key(&self) -> &'static str {
                match self {
                    $($Body::$Var { .. } => $key,)*
                }
            }

            fn put_fields(&self, w: &mut ObjectWriter<'_>) {
                match self {
                    $($Body::$Var $(($Inner { $($i),* }))? $({ $($f),* })? => {
                        $($(put(w, stringify!($i), $i, $irule);)*)?
                        $($(put(w, stringify!($f), $f, $rule);)*)?
                    })*
                }
            }

            fn get_fields(key: &str, d: &mut Dec) -> Result<Option<$Body>, ProtoError> {
                Ok(Some(match key {
                    $($key => $Body::$Var
                        $(($Inner { $($i: d.get(stringify!($i), $irule)?),* }))?
                        $({ $($f: d.get(stringify!($f), $rule)?),* })?,)*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

wire_verbs!(ReqBody {
    "ping" => Ping,
    "stats" => Stats,
    "health" => Health,
    "ready" => Ready,
    "shutdown" => Shutdown,
    "augment" => Augment { name: Need, source: Need, seed: Keep(2024) },
    "generate" => Generate {
        instruct: Keep(dda_core::align::ALIGN_INSTRUCT), prompt: Need, temperature: Keep(0.1),
        seed: Keep(99),
    },
    "repair" => Repair { name: Keep("broken"), source: Need, budget: Keep(200) },
    "score" => Score {
        source: Need, problem: Omit(None), testbench: Omit(None), runs: Omit(1), top: Keep("tb"),
    },
    "retrieve" => Retrieve { query: Need, k: Keep(5) },
    "agent" => Agent {
        problem: Need, level: Omit(DEFAULT_AGENT_LEVEL), k: Omit(DEFAULT_AGENT_K),
        rounds: Omit(DEFAULT_AGENT_ROUNDS), early_exit: Omit(false), rag_k: Omit(0),
        seed: Omit(DEFAULT_AGENT_SEED),
    },
    "poison" => Poison,
});

wire_verbs!(RespBody {
    "ping" => Pong,
    "stats" => Stats(StatsBody {
        admitted: Keep(0), completed: Keep(0), shed: Keep(0), timed_out: Keep(0), panics: Keep(0),
        queue_depth: Keep(0), cache_hits: Keep(0), cache_misses: Keep(0),
        cache_evictions: Keep(0), cache_resident: Keep(0), dropped: Keep(0), replayed: Keep(0),
    }),
    "shutdown" => ShuttingDown,
    "health" => Health {
        uptime_ms: Keep(0), generation: Keep(0), replayed: Keep(0), failpoints: Keep(false),
    },
    "ready" => Ready { ready: Keep(false) },
    "augment" => Augmented { entries: Keep(0), quarantined: Keep(0), jsonl: Need },
    "generate" => Generated { output: Need },
    "repair" => Repaired { source: Need, clean: Keep(false), cost: Keep(0) },
    "score" => Scored { verdict: Need, pass_rate: Keep(0.0), detail: Keep("") },
    "retrieve" => Retrieved { count: Keep(0), jsonl: Need },
    "agent" => AgentReport {
        passed: Keep(false), winner: Omit(None), chains: Keep(0), rounds_total: Keep(0),
        quarantined: Omit(0), jsonl: Need,
    },
    // Keyed by the `error` status, whatever the echoed verb.
    "error" => Error { code: Need, message: Need },
});

/// `priority` is written only when not the default.
const PRIORITY: Rule<Priority> = Omit(Priority::Normal);

impl Request {
    /// Encodes to one JSON line (the frame payload).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(128);
        let mut w = ObjectWriter::new(&mut out);
        w.str("ev", self.body.key());
        put(&mut w, "id", &self.id, Need);
        put(&mut w, "priority", &self.priority, PRIORITY);
        put(&mut w, "deadline_ms", &self.deadline_ms, Omit(None));
        self.body.put_fields(&mut w);
        w.finish();
        out
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] for malformed JSON, unknown verbs, missing or
    /// mistyped fields — the caller answers with `bad_request`.
    pub fn from_line(line: &str) -> Result<Request, ProtoError> {
        let mut d = Dec::new(line)?;
        let verb: String = d.get("ev", Need)?;
        let mut req = Request {
            id: d.get("id", Need)?,
            priority: d.get("priority", PRIORITY)?,
            deadline_ms: d.get("deadline_ms", Omit(None))?,
            body: ReqBody::get_fields(&verb, &mut d)?
                .ok_or_else(|| bad(format!("unknown verb `{verb}`")))?,
        };
        req.settle()?;
        Ok(req)
    }

    /// The decode-time policy a field declaration cannot state: the
    /// clamps that bound what one request may ask of a worker, and
    /// `score`'s exactly-one-of `problem` and `testbench`.
    fn settle(&mut self) -> Result<(), ProtoError> {
        if let Some(ms) = &mut self.deadline_ms {
            *ms = (*ms).min(MAX_DEADLINE_MS);
        }
        match &mut self.body {
            ReqBody::Score {
                problem, testbench, ..
            } if problem.is_some() == testbench.is_some() => {
                return Err(bad("score needs exactly one of `problem` or `testbench`"));
            }
            ReqBody::Retrieve { k, .. } => *k = (*k).clamp(1, MAX_RETRIEVE_K),
            ReqBody::Agent {
                k, rounds, rag_k, ..
            } => {
                *k = (*k).clamp(1, MAX_AGENT_K);
                *rounds = (*rounds).min(MAX_AGENT_ROUNDS);
                *rag_k = (*rag_k).min(MAX_RETRIEVE_K);
            }
            _ => {}
        }
        Ok(())
    }
}

impl Response {
    /// Convenience constructor for an error response.
    pub fn error(
        id: u64,
        verb: impl Into<String>,
        code: ErrorCode,
        message: impl Into<String>,
    ) -> Response {
        Response {
            id,
            verb: verb.into(),
            body: RespBody::Error {
                code,
                message: message.into(),
            },
        }
    }

    /// Encodes to one JSON line (the frame payload).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(128);
        let mut w = ObjectWriter::new(&mut out);
        let status = if self.body.key() == "error" {
            "error"
        } else {
            "ok"
        };
        w.str("ev", "response")
            .u64("id", self.id)
            .str("verb", &self.verb)
            .str("status", status);
        self.body.put_fields(&mut w);
        w.finish();
        out
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] for anything that is not a well-formed response
    /// object.
    pub fn from_line(line: &str) -> Result<Response, ProtoError> {
        let mut d = Dec::new(line)?;
        let kind: String = d.get("ev", Need)?;
        if kind != "response" {
            return Err(bad(format!("expected a response, got `{kind}`")));
        }
        let id = d.get("id", Need)?;
        let verb: String = d.get("verb", Need)?;
        let status: String = d.get("status", Need)?;
        let key = match status.as_str() {
            "error" => "error",
            "ok" if verb != "error" => &verb,
            _ => return Err(bad(format!("unknown status `{status}` for verb `{verb}`"))),
        };
        let body = RespBody::get_fields(key, &mut d)?
            .ok_or_else(|| bad(format!("unknown response verb `{verb}`")))?;
        Ok(Response { id, verb, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request {
                id: 1,
                priority: Priority::Normal,
                deadline_ms: None,
                body: ReqBody::Ping,
            },
            Request {
                id: 2,
                priority: Priority::High,
                deadline_ms: Some(1500),
                body: ReqBody::Augment {
                    name: "ctr".into(),
                    source: "module ctr;\nendmodule\n".into(),
                    seed: 7,
                },
            },
            Request {
                id: 3,
                priority: Priority::Normal,
                deadline_ms: Some(10),
                body: ReqBody::Score {
                    source: "module m(input a, output b);\nassign b = a;\nendmodule".into(),
                    problem: Some("simple_wire".into()),
                    testbench: None,
                    top: "tb".into(),
                    runs: 1,
                },
            },
            Request {
                id: 4,
                priority: Priority::Normal,
                deadline_ms: None,
                body: ReqBody::Score {
                    source: "module m(input a, output b);\nassign b = a;\nendmodule".into(),
                    problem: Some("simple_wire".into()),
                    testbench: None,
                    top: "tb".into(),
                    runs: 8,
                },
            },
            Request {
                id: 5,
                priority: Priority::Normal,
                deadline_ms: Some(250),
                body: ReqBody::Retrieve {
                    query: "an eight bit counter with enable".into(),
                    k: 3,
                },
            },
            Request {
                id: 6,
                priority: Priority::Normal,
                deadline_ms: None,
                body: ReqBody::Agent {
                    problem: "simple_wire".into(),
                    level: DEFAULT_AGENT_LEVEL,
                    k: DEFAULT_AGENT_K,
                    rounds: DEFAULT_AGENT_ROUNDS,
                    early_exit: false,
                    rag_k: 0,
                    seed: DEFAULT_AGENT_SEED,
                },
            },
            Request {
                id: 7,
                priority: Priority::High,
                deadline_ms: Some(5000),
                body: ReqBody::Agent {
                    problem: "counter".into(),
                    level: 1,
                    k: 3,
                    rounds: 2,
                    early_exit: true,
                    rag_k: 4,
                    seed: 42,
                },
            },
        ];
        for r in reqs {
            let back = Request::from_line(&r.to_line()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response {
                id: 1,
                verb: "ping".into(),
                body: RespBody::Pong,
            },
            Response {
                id: 2,
                verb: "score".into(),
                body: RespBody::Scored {
                    verdict: "scored".into(),
                    pass_rate: 0.5,
                    detail: String::new(),
                },
            },
            Response {
                id: 3,
                verb: "score".into(),
                body: RespBody::Scored {
                    verdict: "scored".into(),
                    pass_rate: 1.0,
                    detail: String::new(),
                },
            },
            Response {
                id: 4,
                verb: "retrieve".into(),
                body: RespBody::Retrieved {
                    count: 2,
                    jsonl: "{\"id\": 7, \"score\": 0.5, \"name\": \"ctr\", \
                            \"source\": \"module ctr;\\nendmodule\\n\"}\n"
                        .into(),
                },
            },
            Response {
                id: 5,
                verb: "agent".into(),
                body: RespBody::AgentReport {
                    passed: true,
                    winner: Some(2),
                    chains: 5,
                    rounds_total: 9,
                    quarantined: 0,
                    jsonl: "{\"chain\": 0, \"rounds\": 3, \"lint\": true, \
                            \"function\": 0.5, \"repaired\": true, \"cancelled\": false}\n"
                        .into(),
                },
            },
            Response {
                id: 6,
                verb: "agent".into(),
                body: RespBody::AgentReport {
                    passed: false,
                    winner: None,
                    chains: 2,
                    rounds_total: 8,
                    quarantined: 1,
                    jsonl: String::new(),
                },
            },
            Response::error(9, "augment", ErrorCode::Overloaded, "pool queue full"),
        ];
        for r in resps {
            let back = Response::from_line(&r.to_line()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        for bad_line in [
            "",
            "not json",
            "{\"ev\": \"nope\", \"id\": 1}",
            "{\"ev\": \"score\", \"id\": 1, \"source\": \"m\"}", // neither problem nor testbench
            "{\"ev\": \"augment\", \"id\": 1}",                  // missing source
            "{\"ev\": \"retrieve\", \"id\": 1}",                 // missing query
            "{\"ev\": \"retrieve\", \"id\": 1, \"query\": \"q\", \"k\": -1}",
            "{\"ev\": \"ping\"}",             // missing id
            "{\"ev\": \"ping\", \"id\": -3}", // negative id
            "{\"ev\": \"ping\", \"id\": 1, \"priority\": \"urgent\"}",
            "{\"ev\": \"ping\", \"id\": 1} trailing",
            "{\"ev\": \"ping\", \"id\": 1, \"id\": 2}", // duplicate key
            "{\"ev\": \"agent\", \"id\": 1, \"problem\": \"p\", \"early_exit\": 1}",
            r#"{"ev": "generate", "id": 1, "prompt": "\ud83d"}"#, // lone surrogate
            r#"{"ev": "generate", "id": 1, "prompt": "\u+041"}"#, // signed `\u`
        ] {
            assert!(
                Request::from_line(bad_line).is_err(),
                "accepted {bad_line:?}"
            );
        }
    }

    #[test]
    fn score_runs_is_lenient_and_unclamped() {
        // Absent: defaults to 1. Present: kept as sent — the daemon
        // ignores it, so there is no engine limit to clamp to.
        for (line_runs, want) in [
            (None, 1u64),
            (Some(0), 0),
            (Some(8), 8),
            (Some(10_000), 10_000),
        ] {
            let line = match line_runs {
                None => "{\"ev\": \"score\", \"id\": 1, \"source\": \"m\", \"problem\": \"p\"}"
                    .to_string(),
                Some(r) => format!(
                    "{{\"ev\": \"score\", \"id\": 1, \"source\": \"m\", \
                     \"problem\": \"p\", \"runs\": {r}}}"
                ),
            };
            match Request::from_line(&line).unwrap().body {
                ReqBody::Score { runs, .. } => assert_eq!(runs, want, "asked {line_runs:?}"),
                other => panic!("{other:?}"),
            }
        }
        // Responses from a server that still echoed `lanes` decode.
        let line = "{\"ev\": \"response\", \"id\": 1, \"verb\": \"score\", \
                    \"status\": \"ok\", \"verdict\": \"scored\", \"pass_rate\": 1, \"lanes\": 8}";
        match Response::from_line(line).unwrap().body {
            RespBody::Scored { verdict, .. } => assert_eq!(verdict, "scored"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retrieve_k_is_lenient_and_clamped() {
        // Absent: defaults to 5; zero means 1; oversized clamps.
        for (line_k, want) in [(None, 5u64), (Some(0), 1), (Some(9), 9), (Some(10_000), 64)] {
            let line = match line_k {
                None => "{\"ev\": \"retrieve\", \"id\": 1, \"query\": \"q\"}".to_string(),
                Some(k) => {
                    format!("{{\"ev\": \"retrieve\", \"id\": 1, \"query\": \"q\", \"k\": {k}}}")
                }
            };
            match Request::from_line(&line).unwrap().body {
                ReqBody::Retrieve { k, .. } => assert_eq!(k, want, "asked {line_k:?}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn agent_defaults_are_lenient_and_clamped() {
        // A bare frame gets the paper protocol: level 2, pass@5, 3
        // rounds, no early-exit, no RAG, seed 7331.
        let line = "{\"ev\": \"agent\", \"id\": 1, \"problem\": \"p\"}";
        match Request::from_line(line).unwrap().body {
            ReqBody::Agent {
                level,
                k,
                rounds,
                early_exit,
                rag_k,
                seed,
                ..
            } => {
                assert_eq!(level, DEFAULT_AGENT_LEVEL);
                assert_eq!(k, DEFAULT_AGENT_K);
                assert_eq!(rounds, DEFAULT_AGENT_ROUNDS);
                assert!(!early_exit);
                assert_eq!(rag_k, 0);
                assert_eq!(seed, DEFAULT_AGENT_SEED);
            }
            other => panic!("{other:?}"),
        }
        // Default-valued fields stay off the wire.
        let req = Request {
            id: 1,
            priority: Priority::Normal,
            deadline_ms: None,
            body: ReqBody::Agent {
                problem: "p".into(),
                level: DEFAULT_AGENT_LEVEL,
                k: DEFAULT_AGENT_K,
                rounds: DEFAULT_AGENT_ROUNDS,
                early_exit: false,
                rag_k: 0,
                seed: DEFAULT_AGENT_SEED,
            },
        };
        let wire = req.to_line();
        for absent in ["level", "rounds", "early_exit", "rag_k", "seed"] {
            assert!(!wire.contains(absent), "`{absent}` leaked onto {wire}");
        }
        // Oversized asks clamp; zero k means 1. A `runs` pair from an
        // older client is an unknown field and is ignored.
        let line = "{\"ev\": \"agent\", \"id\": 1, \"problem\": \"p\", \
                    \"k\": 0, \"rounds\": 99, \"rag_k\": 10000, \"runs\": 10000}";
        match Request::from_line(line).unwrap().body {
            ReqBody::Agent {
                k, rounds, rag_k, ..
            } => {
                assert_eq!(k, 1);
                assert_eq!(rounds, MAX_AGENT_ROUNDS);
                assert_eq!(rag_k, MAX_RETRIEVE_K);
            }
            other => panic!("{other:?}"),
        }
        // Missing problem is a structured error.
        assert!(Request::from_line("{\"ev\": \"agent\", \"id\": 1}").is_err());
    }

    #[test]
    fn deadline_is_clamped() {
        let line = format!(
            "{{\"ev\": \"ping\", \"id\": 1, \"deadline_ms\": {}}}",
            u64::MAX
        );
        let r = Request::from_line(&line).unwrap();
        assert_eq!(r.deadline_ms, Some(MAX_DEADLINE_MS));
    }

    #[test]
    fn health_and_ready_round_trip() {
        for r in [
            Request {
                id: 4,
                priority: Priority::Normal,
                deadline_ms: None,
                body: ReqBody::Health,
            },
            Request {
                id: 5,
                priority: Priority::High,
                deadline_ms: None,
                body: ReqBody::Ready,
            },
        ] {
            assert_eq!(Request::from_line(&r.to_line()).unwrap(), r);
        }
        for resp in [
            Response {
                id: 4,
                verb: "health".into(),
                body: RespBody::Health {
                    uptime_ms: 1234,
                    generation: 2,
                    replayed: 7,
                    failpoints: true,
                },
            },
            Response {
                id: 5,
                verb: "ready".into(),
                body: RespBody::Ready { ready: false },
            },
        ] {
            assert_eq!(Response::from_line(&resp.to_line()).unwrap(), resp);
        }
    }

    #[test]
    fn control_plane_classification() {
        assert!(ReqBody::Ping.is_control());
        assert!(ReqBody::Stats.is_control());
        assert!(ReqBody::Health.is_control());
        assert!(ReqBody::Ready.is_control());
        assert!(ReqBody::Shutdown.is_control());
        assert!(!ReqBody::Poison.is_control());
        assert!(!ReqBody::Retrieve {
            query: String::new(),
            k: 5
        }
        .is_control());
        assert!(!ReqBody::Generate {
            instruct: String::new(),
            prompt: String::new(),
            temperature: 0.1,
            seed: 0
        }
        .is_control());
        assert!(!ReqBody::Agent {
            problem: String::new(),
            level: DEFAULT_AGENT_LEVEL,
            k: DEFAULT_AGENT_K,
            rounds: DEFAULT_AGENT_ROUNDS,
            early_exit: false,
            rag_k: 0,
            seed: DEFAULT_AGENT_SEED,
        }
        .is_control());
    }
}
