//! `serve`: the resident daemon behind its real Unix socket.
//!
//! Setup starts the daemon in-process with `Server::start` and warms its
//! caches. Two client threads then drive it in a closed loop, one
//! connection each and one request outstanding per connection, with a
//! seeded mix: `score` 60% over a warm design pool smaller than the
//! design cache, `retrieve` 20% (k = 10), `generate` 10%, `augment` 10%.
//! One op is one request, timed at the client from send to reply.

use crate::stats::{latency, mean, median, permutation, splitmix, unattributed, Part};
use crate::trace::Tracer;
use crate::{
    ms, note_failure, peak_rss_mb, repeated_setup, set_tracing, summarize, us, Args, Half, Report,
    Window, TRACE_BLOCK,
};
use dda_benchmarks::VerilogProblem;
use dda_core::align::ALIGN_INSTRUCT;
use dda_corpus::CorpusModule;
use dda_runtime::{CancelToken, Priority};
use dda_serve::client::Client;
use dda_serve::handlers::{execute, HandlerCx};
use dda_serve::proto::{ReqBody, Request, RespBody, Response, StatsBody};
use dda_serve::service::{ServeOptions, Server};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Client connections, one thread each.
pub const CONNECTIONS: usize = 2;
/// Corpus modules the daemon's model is finetuned on.
pub const MODEL_MODULES: usize = 256;
/// Distinct `score` designs (the design cache holds 512).
pub const SCORE_POOL: usize = 48;
/// Distinct `augment` modules.
pub const AUGMENT_POOL: usize = 32;
/// Hits per `retrieve`.
pub const RETRIEVE_K: u64 = 10;
/// Request mix: verb and weight in percent.
pub const MIX: [(Verb, u32); 4] = [
    (Verb::Score, 60),
    (Verb::Retrieve, 20),
    (Verb::Generate, 10),
    (Verb::Augment, 10),
];
/// One request in this many (seeded) is re-run in-process through
/// `handlers::execute` after the window and compared.
pub const CHECK_EVERY: u64 = 64;
/// Requests per verb the traced run replays in-process for the handler
/// and codec split.
pub const REPLAY_PER_VERB: usize = 200;
/// Request deadline (generous: a timeout is a failure, not load shed).
pub const DEADLINE_MS: u64 = 10_000;

/// The data-plane verbs in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `score` a design against a benchmark testbench.
    Score,
    /// `retrieve` the nearest corpus modules.
    Retrieve,
    /// `generate` from the daemon's model.
    Generate,
    /// `augment` one module.
    Augment,
}

impl Verb {
    /// Index into per-verb tables, in [`MIX`] order.
    pub fn index(self) -> usize {
        MIX.iter()
            .position(|(v, _)| *v == self)
            .expect("every verb is in MIX")
    }

    /// The wire verb.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Score => "score",
            Verb::Retrieve => "retrieve",
            Verb::Generate => "generate",
            Verb::Augment => "augment",
        }
    }

    /// Span names of a client call and of an in-process handler call.
    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Verb::Score => ("serve.call.score", "serve.handler.score"),
            Verb::Retrieve => ("serve.call.retrieve", "serve.handler.retrieve"),
            Verb::Generate => ("serve.call.generate", "serve.handler.generate"),
            Verb::Augment => ("serve.call.augment", "serve.handler.augment"),
        }
    }

    /// Per-layer metrics: client p50 and p99, handler, codec, overhead.
    fn metrics(self) -> [&'static str; 5] {
        match self {
            Verb::Score => [
                "serve.score_ms.p50",
                "serve.score_ms.p99",
                "serve.handler_score_us",
                "serve.codec_score_us",
                "serve.overhead_score_us",
            ],
            Verb::Retrieve => [
                "serve.retrieve_ms.p50",
                "serve.retrieve_ms.p99",
                "serve.handler_retrieve_us",
                "serve.codec_retrieve_us",
                "serve.overhead_retrieve_us",
            ],
            Verb::Generate => [
                "serve.generate_ms.p50",
                "serve.generate_ms.p99",
                "serve.handler_generate_us",
                "serve.codec_generate_us",
                "serve.overhead_generate_us",
            ],
            Verb::Augment => [
                "serve.augment_ms.p50",
                "serve.augment_ms.p99",
                "serve.handler_augment_us",
                "serve.codec_augment_us",
                "serve.overhead_augment_us",
            ],
        }
    }

    fn expected(self, body: &RespBody) -> bool {
        matches!(
            (self, body),
            (Verb::Score, RespBody::Scored { .. })
                | (Verb::Retrieve, RespBody::Retrieved { .. })
                | (Verb::Generate, RespBody::Generated { .. })
                | (Verb::Augment, RespBody::Augmented { .. })
        )
    }
}

/// The seeded inputs requests draw from.
pub struct Inputs {
    problems: Vec<VerilogProblem>,
    score: Vec<usize>,
    modules: Vec<CorpusModule>,
}

impl Inputs {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Inputs {
        let problems = crate::agent::problems();
        let mut score = permutation(problems.len(), splitmix(seed ^ 0x5c0e));
        score.truncate(SCORE_POOL);
        let modules = dda_corpus::generate_corpus(
            AUGMENT_POOL,
            &mut SmallRng::seed_from_u64(splitmix(seed ^ 0xa0a0)),
        );
        Inputs {
            problems,
            score,
            modules,
        }
    }

    /// Request `j` of a stream: its verb and body.
    pub fn request(&self, rng: &mut SmallRng) -> (Verb, ReqBody) {
        let roll = rng.gen_range(0..100u32);
        let mut acc = 0;
        let verb = MIX
            .iter()
            .find(|(_, w)| {
                acc += w;
                roll < acc
            })
            .map(|(v, _)| *v)
            .expect("MIX weights sum to 100");
        (verb, self.body(verb, rng))
    }

    /// A body of `verb` drawn from `rng`.
    pub fn body(&self, verb: Verb, rng: &mut SmallRng) -> ReqBody {
        let prompt = |rng: &mut SmallRng| {
            let p = &self.problems[rng.gen_range(0..self.problems.len())];
            p.prompts[rng.gen_range(0..p.prompts.len())].clone()
        };
        match verb {
            Verb::Score => {
                let p = &self.problems[self.score[rng.gen_range(0..self.score.len())]];
                ReqBody::Score {
                    source: p.reference.to_string(),
                    problem: Some(p.id.to_string()),
                    testbench: None,
                    top: "tb".to_string(),
                    runs: 1,
                }
            }
            Verb::Retrieve => ReqBody::Retrieve {
                query: prompt(rng),
                k: RETRIEVE_K,
            },
            Verb::Generate => ReqBody::Generate {
                instruct: ALIGN_INSTRUCT.to_string(),
                prompt: prompt(rng),
                temperature: 0.1,
                seed: rng.gen(),
            },
            Verb::Augment => {
                let m = &self.modules[rng.gen_range(0..self.modules.len())];
                ReqBody::Augment {
                    name: m.name.clone(),
                    source: m.source.clone(),
                    seed: rng.gen(),
                }
            }
        }
    }
}

fn request(id: u64, body: ReqBody) -> Request {
    Request {
        id,
        priority: Priority::Normal,
        deadline_ms: Some(DEADLINE_MS),
        body,
    }
}

fn stream_rng(seed: u64, conn: usize) -> SmallRng {
    SmallRng::seed_from_u64(splitmix(seed ^ splitmix(0xc0 + conn as u64)))
}

/// Starts the daemon and warms it: every score design once, and a few
/// requests of every other verb.
fn start(path: &Path, inputs: &Inputs, seed: u64) -> Result<Server, String> {
    let opts = ServeOptions {
        workers: WORKERS,
        model_modules: MODEL_MODULES,
        ..ServeOptions::default()
    };
    let server = Server::start(path, &opts).map_err(|e| format!("server start: {e}"))?;
    let mut c = Client::connect(path).map_err(|e| format!("connect: {e:?}"))?;
    let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ 0x3a3a));
    let mut bodies: Vec<ReqBody> = inputs
        .score
        .iter()
        .map(|&p| {
            let p = &inputs.problems[p];
            ReqBody::Score {
                source: p.reference.to_string(),
                problem: Some(p.id.to_string()),
                testbench: None,
                top: "tb".to_string(),
                runs: 1,
            }
        })
        .collect();
    for (verb, _) in MIX {
        bodies.extend((0..8).map(|_| inputs.body(verb, &mut rng)));
    }
    for (i, body) in bodies.into_iter().enumerate() {
        c.call(&request(i as u64, body))
            .map_err(|e| format!("warm-up call: {e:?}"))?;
    }
    Ok(server)
}

fn stop(path: &Path, server: Server) {
    if let Ok(mut c) = Client::connect(path) {
        let _ = c.call(&request(u64::MAX, ReqBody::Shutdown));
    }
    server.join();
}

fn stats(path: &Path) -> Result<StatsBody, String> {
    let mut c = Client::connect(path).map_err(|e| format!("connect: {e:?}"))?;
    match c.call(&request(0, ReqBody::Stats)) {
        Ok(Response {
            body: RespBody::Stats(s),
            ..
        }) => Ok(s),
        other => Err(format!("stats: unexpected {other:?}")),
    }
}

/// What one client thread measured.
struct Stream {
    window: Window,
    per_verb: Vec<Vec<f64>>,
    checks: Vec<(ReqBody, RespBody)>,
    failures: Vec<String>,
    tracer: Tracer,
}

/// One connection's closed loop.
fn drive(
    path: &Path,
    inputs: &Inputs,
    seed: u64,
    conn: usize,
    seconds: f64,
    alternate: bool,
    epoch: Instant,
) -> Stream {
    let mut s = Stream {
        window: Window::default(),
        per_verb: vec![Vec::new(); MIX.len()],
        checks: Vec::new(),
        failures: Vec::new(),
        tracer: Tracer::new(false, conn as u64, epoch),
    };
    let mut client = match Client::connect(path) {
        Ok(c) => c,
        Err(e) => {
            s.failures.push(format!("connection {conn}: {e:?}"));
            return s;
        }
    };
    let mut rng = stream_rng(seed, conn);
    let window = Duration::from_secs_f64(seconds);
    let min_ops = crate::stats::MIN_OPS.div_ceil(CONNECTIONS);
    let start = Instant::now();
    let mut j = 0u64;
    let mut block = (usize::MAX, Instant::now());
    loop {
        let elapsed = start.elapsed();
        if elapsed >= window && j as usize >= min_ops {
            break;
        }
        let b = (elapsed.as_nanos() / TRACE_BLOCK.as_nanos()) as usize;
        let traced = alternate && b % 2 == 1;
        if block.0 != b {
            close_block(&mut s.window, block, &s.tracer);
            if alternate {
                set_tracing(&mut s.tracer, traced);
            }
            block = (b, Instant::now());
        }
        let (verb, body) = inputs.request(&mut rng);
        let req = request(j, body);
        let (resp, lat) = s
            .tracer
            .time(verb.spans().0, "dda-serve", |_| client.call(&req));
        let lat_ms = ms(lat);
        let ok = match &resp {
            Ok(r) if r.id == j && verb.expected(&r.body) => true,
            Ok(r) => {
                note_failure(
                    &mut s.failures,
                    format!("{}: unexpected reply {:?}", verb.name(), r.body),
                );
                false
            }
            Err(e) => {
                note_failure(&mut s.failures, format!("{}: {e:?}", verb.name()));
                false
            }
        };
        if let (true, Ok(r)) = (ok, resp) {
            if splitmix(seed ^ ((conn as u64) << 40) ^ j).is_multiple_of(CHECK_EVERY) {
                s.checks.push((req.body, r.body));
            }
        } else {
            s.window.failed += 1;
        }
        let half = if s.tracer.is_on() {
            &mut s.window.traced
        } else {
            &mut s.window.plain
        };
        half.lat_ms.push(lat_ms);
        if !s.tracer.is_on() {
            s.per_verb[verb.index()].push(lat_ms);
        }
        s.window.attempted += 1;
        j += 1;
    }
    close_block(&mut s.window, block, &s.tracer);
    if alternate {
        set_tracing(&mut s.tracer, false);
    }
    s
}

fn close_block(w: &mut Window, block: (usize, Instant), tracer: &Tracer) {
    if block.0 == usize::MAX {
        return;
    }
    let half: &mut Half = if tracer.is_on() {
        &mut w.traced
    } else {
        &mut w.plain
    };
    half.wall_s += block.1.elapsed().as_secs_f64();
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let inputs = Inputs::new(seed);
    let path = PathBuf::from(format!(".bench_run/serve-{}.sock", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(".bench_run") {
        report.fail(format!("creating .bench_run: {e}"));
        return;
    }
    let mut setup_error = None;
    let (server, setup_s, setup_reps) = repeated_setup(|| match start(&path, &inputs, seed) {
        Ok(s) => Some(s),
        Err(e) => {
            setup_error = Some(e);
            None
        }
    });
    // Earlier setups' servers were dropped, which drains them.
    let Some(server) = server else {
        report.fail(setup_error.unwrap_or_else(|| "server did not start".into()));
        return;
    };
    let mix: Vec<String> = MIX
        .iter()
        .map(|(v, w)| format!("\"{}\": {w}", v.name()))
        .collect();
    report.ctx_json("mix_percent", format!("{{{}}}", mix.join(", ")));
    report.ctx("workers", WORKERS);
    report.ctx("connections", CONNECTIONS);
    report.ctx("threads", CONNECTIONS + WORKERS);
    report.ctx("model_modules", MODEL_MODULES);
    report.ctx("score_pool", inputs.score.len());
    report.ctx_json("setup_reps_s", format!("{setup_reps:?}"));

    let epoch = Instant::now();
    let cache0 = dda_sim::cache::stats();
    let streams: Vec<Stream> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (path, inputs) = (&path, &inputs);
                scope
                    .spawn(move || drive(path, inputs, seed, conn, args.seconds, args.trace, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cache1 = dda_sim::cache::stats();
    let peak_rss_mb = peak_rss_mb();
    let daemon = stats(&path);
    stop(&path, server);

    let mut window = Window::default();
    let mut per_verb = vec![Vec::new(); MIX.len()];
    let mut checks = Vec::new();
    let mut tracer = Tracer::new(true, CONNECTIONS as u64, epoch);
    for s in streams {
        window.attempted += s.window.attempted;
        window.failed += s.window.failed;
        // Connections run concurrently, so their throughputs add: each
        // half pools every connection's samples over the longest
        // connection's wall time.
        for (dst, src) in [
            (&mut window.plain, s.window.plain),
            (&mut window.traced, s.window.traced),
        ] {
            dst.lat_ms.extend(src.lat_ms);
            dst.wall_s = dst.wall_s.max(src.wall_s);
        }
        for (dst, src) in per_verb.iter_mut().zip(s.per_verb) {
            dst.extend(src);
        }
        checks.extend(s.checks);
        for f in s.failures {
            report.fail(f);
        }
        tracer.absorb(s.tracer);
    }
    report.attempted = window.attempted;
    report.failed = window.failed;
    window.peak_rss_mb = peak_rss_mb;
    let (shed, timed_out) = match daemon {
        Ok(st) => (st.shed, st.timed_out),
        Err(e) => {
            report.fail(e);
            (0, 0)
        }
    };
    if shed + timed_out > 0 {
        report.fail(format!(
            "daemon shed {shed} and timed out {timed_out} requests"
        ));
    }

    // Correctness: sampled replies against the in-process handler.
    let cx = HandlerCx::bootstrap(MODEL_MODULES, false);
    let token = CancelToken::new();
    for (body, resp) in &checks {
        if execute(&cx, body, &token) != *resp {
            report.fail(format!(
                "{}: daemon reply differs from handlers::execute",
                body.verb()
            ));
        }
    }
    report.ctx("handler_checks", checks.len());
    if !args.trace {
        let pass_at_5 = crate::agent::first_pass_rate(&cx.slm, crate::nproc(), report);
        let lat = summarize(report, &mut window.plain);
        report.metric("setup_s", setup_s);
        report.metric("throughput_per_s", window.plain.throughput());
        report.latency_metrics(&lat);
        report.metric("peak_rss_mb", window.peak_rss_mb);
        report.metric("pass_at_5", pass_at_5);
        return;
    }

    // Per-verb split: client latency vs the same bodies through the
    // handler in-process and through the wire codec.
    let mut attributed = Vec::new();
    let total: usize = per_verb.iter().map(Vec::len).sum();
    for (verb, _) in MIX {
        let i = verb.index();
        let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ 0x4e9 ^ i as u64));
        let (mut handler, mut codec) = (Vec::new(), Vec::new());
        for j in 0..REPLAY_PER_VERB {
            let req = request(j as u64, inputs.body(verb, &mut rng));
            let (body, d) = tracer.time(verb.spans().1, "dda-serve", |_| {
                execute(&cx, &req.body, &token)
            });
            handler.push(us(d));
            let resp = Response {
                id: req.id,
                verb: verb.name().to_string(),
                body,
            };
            let (round_trip, d) = tracer.time("serve.codec", "dda-serve", |_| {
                let req2 = Request::from_line(&req.to_line());
                let resp2 = Response::from_line(&resp.to_line());
                (req2, resp2)
            });
            codec.push(us(d));
            if round_trip.0.as_ref() != Ok(&req) || round_trip.1.as_ref() != Ok(&resp) {
                report.fail(format!(
                    "{}: codec round trip changed the frame",
                    verb.name()
                ));
            }
        }
        let client = latency(&mut per_verb[i]);
        let (p50, p99) = client.map_or((0.0, 0.0), |l| (l.p50, l.p99));
        let [m_p50, m_p99, m_handler, m_codec, m_overhead] = verb.metrics();
        report.ctx(&format!("samples_{}", verb.name()), per_verb[i].len());
        report.metric(m_p50, p50);
        report.metric(m_p99, p99);
        report.metric(m_handler, median(&handler));
        report.metric(m_codec, median(&codec));
        report.metric(m_overhead, p50 * 1e3 - median(&handler) - median(&codec));
        attributed.push(Part {
            calls: per_verb[i].len() as f64 / total.max(1) as f64,
            each: (mean(&handler) + mean(&codec)) / 1e3,
        });
    }

    // Warm-cache scoring of the score pool, the sim layer under `score`.
    let mut score_ms = Vec::new();
    for &p in &inputs.score {
        let problem = &inputs.problems[p];
        dda_eval::run_testbench_verdict(problem, problem.reference);
        let (_, d) = tracer.time("sim.run_testbench_verdict", "dda-sim", |_| {
            dda_eval::run_testbench_verdict(problem, problem.reference)
        });
        score_ms.push(ms(d));
    }
    let lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    report.metric("sim.score_ms", mean(&score_ms));
    report.metric(
        "sim.cache_hit_ratio",
        (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64,
    );
    report.metric("serve.shed", shed as f64);
    report.metric("serve.timed_out", timed_out as f64);
    report.metric("obs.trace_overhead_ratio", window.trace_overhead_ratio());
    report.metric(
        "serve.unattributed_ms",
        unattributed(mean(&window.plain.lat_ms), &attributed),
    );
    crate::finish_trace(args, report, &tracer);
}
