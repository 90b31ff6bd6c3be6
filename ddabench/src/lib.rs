//! # ddabench
//!
//! The repository's benchmark: three seeded workloads that drive the
//! library crates through their public functions and report end-to-end
//! metrics (untraced runs) or per-layer metrics (traced runs). See
//! `README.md` in this directory for what each workload is for, which
//! layer metric should move which end-to-end metric, and how to run it.

pub mod agent;
pub mod augment;
pub mod serve;
pub mod stats;
pub mod trace;

use stats::{latency, Latency, MIN_OPS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p99", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_at_5", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not call reports 0 and is listed under
/// `not_exercised` in the run context.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_ms", "ms"),
    ("core.completion_ms", "ms"),
    ("core.alignment_ms", "ms"),
    ("core.repair_ms", "ms"),
    ("core.eda_ms", "ms"),
    ("core.entries_per_module", "count"),
    ("core.quarantined", "count"),
    ("core.json_encode_ms", "ms"),
    ("core.json_bytes", "bytes"),
    ("verilog.parse_us", "us"),
    ("lint.check_us", "us"),
    ("slm.finetune_ms", "ms"),
    ("slm.generate_ms", "ms"),
    ("slm.tfidf_query_us", "us"),
    ("slm.sharded_query_us", "us"),
    ("sim.score_ms", "ms"),
    ("sim.cache_hit_ratio", "ratio"),
    ("eval.agent_batch_ms", "ms"),
    ("eval.useful_chain_ratio", "ratio"),
    ("runtime.speedup", "ratio"),
    ("serve.score_ms.p50", "ms"),
    ("serve.score_ms.p99", "ms"),
    ("serve.retrieve_ms.p50", "ms"),
    ("serve.retrieve_ms.p99", "ms"),
    ("serve.generate_ms.p50", "ms"),
    ("serve.generate_ms.p99", "ms"),
    ("serve.augment_ms.p50", "ms"),
    ("serve.augment_ms.p99", "ms"),
    ("serve.handler_score_us", "us"),
    ("serve.handler_retrieve_us", "us"),
    ("serve.handler_generate_us", "us"),
    ("serve.handler_augment_us", "us"),
    ("serve.codec_score_us", "us"),
    ("serve.codec_retrieve_us", "us"),
    ("serve.codec_generate_us", "us"),
    ("serve.codec_augment_us", "us"),
    ("serve.overhead_score_us", "us"),
    ("serve.overhead_retrieve_us", "us"),
    ("serve.overhead_generate_us", "us"),
    ("serve.overhead_augment_us", "us"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("augment.unattributed_ms", "ms"),
    ("agent.unattributed_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
];

/// Times each workload sets itself up from scratch in one run; the
/// median is reported as `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Length of one traced or untraced block when a traced run alternates
/// the two to measure tracing overhead.
pub const TRACE_BLOCK: Duration = Duration::from_millis(500);

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name: `augment`, `agent` or `serve`.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where a traced run writes its span file:
    /// `.bench_run/trace-<workload>-<seed>.jsonl`.
    pub trace_out: PathBuf,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let val = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(val.to_string()),
                "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
                "--trace" => trace = val == "1",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range"));
        }
        let trace_out = PathBuf::from(format!(".bench_run/trace-{workload}-{seed}.jsonl"));
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            trace_out,
        })
    }
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPS`] times, dropping each state before the
/// next, and returns the last state with the median and every setup time
/// in seconds.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    let median = stats::median(&times);
    (state.expect("SETUP_REPS > 0"), median, times)
}

/// Latency samples and wall time of one set of timed blocks.
#[derive(Debug, Clone, Default)]
pub struct Half {
    /// Per-op latency in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Wall-clock seconds the blocks took, checks included.
    pub wall_s: f64,
}

impl Half {
    /// Ops completed per second of wall-clock.
    pub fn throughput(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.lat_ms.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// The result of a timed window: untraced blocks, and in a traced run
/// the interleaved traced blocks.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Blocks with tracing off (the whole window of an untraced run).
    pub plain: Half,
    /// Blocks with tracing on (empty in an untraced run).
    pub traced: Half,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a correctness check.
    pub failed: u64,
    /// Peak RSS of the process through the end of the window (set-up
    /// included; the checks that follow the window excluded).
    pub peak_rss_mb: f64,
}

impl Window {
    /// `obs.trace_overhead_ratio`: traced over untraced throughput.
    pub fn trace_overhead_ratio(&self) -> f64 {
        let plain = self.plain.throughput();
        if plain > 0.0 {
            self.traced.throughput() / plain
        } else {
            0.0
        }
    }
}

/// Runs `op(index, tracer)` back to back on this thread (a closed loop)
/// for at least `seconds` and at least [`MIN_OPS`] ops. `op` returns its
/// own latency (the library calls only) or a failure message. When
/// `alternate` is set, blocks of [`TRACE_BLOCK`] switch tracing — the
/// benchmark's spans and the program's `dda_obs` recorder — on and off.
pub fn closed_loop(
    seconds: f64,
    alternate: bool,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
    mut op: impl FnMut(usize, &mut Tracer) -> Result<Duration, (Duration, String)>,
) -> Window {
    let mut w = Window::default();
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < window || i < MIN_OPS {
        let traced = alternate && (start.elapsed().as_nanos() / TRACE_BLOCK.as_nanos()) % 2 == 1;
        set_tracing(tracer, traced);
        let block_start = Instant::now();
        let block_end = block_start + if alternate { TRACE_BLOCK } else { window };
        let half = if traced { &mut w.traced } else { &mut w.plain };
        loop {
            let lat = match op(i, tracer) {
                Ok(d) => d,
                Err((d, msg)) => {
                    w.failed += 1;
                    note_failure(failures, msg);
                    d
                }
            };
            half.lat_ms.push(lat.as_secs_f64() * 1e3);
            w.attempted += 1;
            i += 1;
            let now = Instant::now();
            if now >= block_end || (now.duration_since(start) >= window && i >= MIN_OPS) {
                break;
            }
        }
        half.wall_s += block_start.elapsed().as_secs_f64();
    }
    set_tracing(tracer, false);
    w.peak_rss_mb = peak_rss_mb();
    w
}

/// Switches the benchmark's spans and the program's recorder together.
pub fn set_tracing(tracer: &mut Tracer, on: bool) {
    tracer.set_on(on);
    if on {
        dda_obs::enable();
    } else {
        dda_obs::disable();
    }
}

/// Keeps the first few failure messages for the report.
pub fn note_failure(failures: &mut Vec<String>, msg: String) {
    if failures.len() < 8 {
        failures.push(msg);
    }
}

/// Everything a run prints: the result line's fields plus its context.
#[derive(Debug, Clone)]
pub struct Report {
    trace: bool,
    /// Ops attempted in the timed window.
    pub attempted: u64,
    /// Ops failed in the timed window.
    pub failed: u64,
    /// Failure messages (ops and whole-run checks).
    pub failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    context: Vec<(String, String)>,
}

impl Report {
    /// An empty report for a traced or untraced run of `args`.
    pub fn new(args: &Args) -> Report {
        let mut r = Report {
            trace: args.trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            context: Vec::new(),
        };
        r.ctx_str("workload", &args.workload);
        r.ctx("seed", args.seed);
        r.ctx("seconds", args.seconds);
        r.ctx("trace", args.trace);
        r.ctx("nproc", nproc());
        r
    }

    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records metric `name`; ignored when the run reports the other
    /// table. Panics on a name in neither table (a benchmark bug).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not declared");
        if let Some((n, unit)) = self.table().iter().find(|(n, _)| *n == name) {
            self.metrics.retain(|(m, _, _)| m != n);
            self.metrics.push((n, value, unit));
        }
    }

    /// Records the end-to-end latency metrics of `lat` and its counts.
    pub fn latency_metrics(&mut self, lat: &Latency) {
        self.metric("latency_ms.p50", lat.p50);
        self.metric("latency_ms.p99", lat.p99);
        self.ctx("samples", lat.samples);
        self.ctx("beyond_p99", lat.beyond_p99);
    }

    /// Adds a context entry whose value is printed with `Display` (numbers
    /// and booleans).
    pub fn ctx(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context
            .push((key.to_string(), format_json_number(value)));
    }

    /// Adds a string context entry.
    pub fn ctx_str(&mut self, key: &str, value: &str) {
        self.context.push((
            key.to_string(),
            format!("\"{}\"", dda_obs::event::escape(value)),
        ));
    }

    /// Adds a context entry that is already JSON.
    pub fn ctx_json(&mut self, key: &str, json: String) {
        self.context.push((key.to_string(), json));
    }

    /// Books a whole-run check failure.
    pub fn fail(&mut self, msg: String) {
        note_failure(&mut self.failures, msg);
    }

    /// Whether every op and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// Fills unmeasured metrics of the run's table, then prints the
    /// context line and, last, the result line. Returns whether the run
    /// was correct.
    pub fn print(mut self) -> bool {
        let mut missing = Vec::new();
        for (name, unit) in self.table() {
            if !self.metrics.iter().any(|(n, _, _)| n == name) {
                missing.push(*name);
                self.metrics.push((name, 0.0, unit));
            }
        }
        if !self.trace && !missing.is_empty() {
            self.fail(format!("end-to-end metrics not measured: {missing:?}"));
        }
        if self.trace {
            let list: Vec<String> = missing.iter().map(|m| format!("\"{m}\"")).collect();
            self.ctx_json("not_exercised", format!("[{}]", list.join(", ")));
        }
        for (name, v, _) in &self.metrics {
            if !v.is_finite() {
                let msg = format!("metric {name} is not finite");
                note_failure(&mut self.failures, msg);
            }
        }
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", dda_obs::event::escape(f)))
            .collect();
        self.ctx_json("failures", format!("[{}]", failures.join(", ")));
        self.ctx("ops_attempted", self.attempted);
        self.ctx("ops_failed", self.failed);

        let mut ctx = String::from("{\"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(ctx, "{sep}\"{k}\": {v}");
        }
        ctx.push_str("}}");
        println!("{ctx}");

        let correct = self.correct();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        println!("{out}");
        correct
    }
}

fn format_json_number(value: impl std::fmt::Display) -> String {
    let s = value.to_string();
    match s.as_str() {
        "NaN" | "inf" | "-inf" => "null".to_string(),
        _ => s,
    }
}

/// Latency summary of `half`, booking a failure when p99 has fewer than
/// the required samples beyond it.
pub fn summarize(report: &mut Report, half: &mut Half) -> Latency {
    let lat = latency(&mut half.lat_ms).unwrap_or(Latency {
        samples: 0,
        p50: 0.0,
        p99: 0.0,
        beyond_p99: 0,
        mean: 0.0,
    });
    if lat.beyond_p99 < stats::MIN_BEYOND {
        report.fail(format!(
            "p99 has {} samples beyond it (< {})",
            lat.beyond_p99,
            stats::MIN_BEYOND
        ));
    }
    lat
}

/// Converts a duration to milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Converts a duration to microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Reports self time per layer, writes the span file with the program's
/// own snapshot appended, and checks that it parses back.
pub fn finish_trace(args: &Args, report: &mut Report, tracer: &Tracer) {
    let selfs: Vec<String> = trace::self_time_by_layer(tracer.spans())
        .into_iter()
        .map(|(layer, ns)| format!("\"{layer}\": {}", ns as f64 / 1e6))
        .collect();
    report.ctx_json("self_ms", format!("{{{}}}", selfs.join(", ")));
    let snap = dda_obs::snapshot();
    let path = &args.trace_out;
    let written = crate::trace::write_trace(path, tracer.spans(), &snap)
        .map_err(|e| format!("writing {}: {e}", path.display()))
        .and_then(|()| crate::trace::verify_trace(path, tracer.spans().len(), &snap));
    match written {
        Ok(()) => report.ctx_str("trace_file", &path.display().to_string()),
        Err(e) => report.fail(e),
    }
    report.ctx("trace_spans", tracer.spans().len());
}
