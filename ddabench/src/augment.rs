//! `augment`: the paper's contribution as `chipdda augment` runs it,
//! without disk I/O.
//!
//! Setup generates a seeded pool of corpus modules and makes one warm-up
//! pass over it, recording each chunk's JSONL digest. One op is
//! `augment()` with all four stages followed by `to_jsonl` over one
//! fixed-size chunk, in a closed single-threaded loop; the JSONL is
//! hashed and dropped, so memory stays flat.

use crate::agent;
use crate::stats::{digest, mean, median, permutation, splitmix, Part};
use crate::trace::Tracer;
use crate::{closed_loop, ms, repeated_setup, summarize, us, Args, Report};
use dda_core::json::to_jsonl;
use dda_core::pipeline::{augment, AugmentReport, PipelineOptions, StageSet};
use dda_core::repair::{break_verilog, RepairOptions};
use dda_core::Dataset;
use dda_corpus::CorpusModule;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Modules in the seeded corpus pool.
pub const POOL_MODULES: usize = 2048;
/// Modules per op.
pub const CHUNK: usize = 16;
/// EDA scripts described per op. The paper's ~200-script pool serves a
/// whole corpus; one chunk gets a proportional share of it.
pub const EDA_SCRIPTS: usize = 4;
/// Chunks the traced run re-runs stage by stage for attribution.
pub const SAMPLE_CHUNKS: usize = 16;
/// Chunks of the model corpus whose op output finetunes the `pass_at_5`
/// model (256 modules, as the agent's and the daemon's models).
pub const MODEL_CHUNKS: usize = 16;

/// The pipeline options of one op: every stage on.
pub fn options() -> PipelineOptions {
    PipelineOptions {
        eda_scripts: EDA_SCRIPTS,
        stages: StageSet::FULL,
        ..PipelineOptions::default()
    }
}

/// The seeded corpus pool.
pub fn pool(seed: u64) -> Vec<CorpusModule> {
    dda_corpus::generate_corpus(POOL_MODULES, &mut SmallRng::seed_from_u64(seed))
}

/// The corpus whose augmented output trains the `pass_at_5` model. It
/// is fixed, like the agent's, so that `pass_at_5` judges the pipeline's
/// output rather than the luck of a seeded corpus.
pub fn model_corpus() -> Vec<CorpusModule> {
    dda_corpus::generate_corpus(
        MODEL_CHUNKS * CHUNK,
        &mut SmallRng::seed_from_u64(agent::MODEL_SEED),
    )
}

/// Modules of chunk `c`.
pub fn chunk(pool: &[CorpusModule], c: usize) -> &[CorpusModule] {
    &pool[c * CHUNK..(c + 1) * CHUNK]
}

/// The RNG stream of chunk `c`: the same for every pass, so every pass
/// must reproduce the first pass's output exactly.
fn chunk_rng(seed: u64, c: usize) -> SmallRng {
    SmallRng::seed_from_u64(splitmix(seed ^ splitmix(c as u64)))
}

/// Augments chunk `c` with `opts`.
pub fn augment_chunk(
    pool: &[CorpusModule],
    seed: u64,
    c: usize,
    opts: &PipelineOptions,
) -> (Dataset, AugmentReport) {
    augment(chunk(pool, c), opts, &mut chunk_rng(seed, c))
}

/// What one op produced.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    /// Digest of the chunk's JSONL.
    pub digest: u64,
    /// Dataset entries.
    pub entries: usize,
    /// The pipeline's accounting.
    pub report: AugmentReport,
}

/// One op: augment chunk `c` with every stage, encode it as JSONL, hash
/// the JSONL and drop it.
pub fn op(pool: &[CorpusModule], seed: u64, c: usize, t: &mut Tracer) -> (OpOutput, Duration) {
    t.time("augment.op", "ddabench", |t| {
        let ((ds, report), _) = t.time("core.augment", "dda-core", |_| {
            augment_chunk(pool, seed, c, &options())
        });
        let (jsonl, _) = t.time("core.to_jsonl", "dda-core", |_| {
            to_jsonl(ds.iter().map(|(_, e)| e))
        });
        OpOutput {
            digest: digest(jsonl.as_bytes()),
            entries: ds.len(),
            report,
        }
    })
}

/// Digest of chunk `c`'s op output for `seed`.
pub fn op_digest(pool: &[CorpusModule], seed: u64, c: usize) -> u64 {
    op(pool, seed, c, &mut Tracer::new(false, 0, Instant::now()))
        .0
        .digest
}

/// Checks one op's output against its chunk's first pass.
fn check(out: &OpOutput, expected: u64, c: usize) -> Result<(), String> {
    if !out.report.is_conserved() {
        return Err(format!("chunk {c}: augment report not conserved"));
    }
    if !out.report.quarantines.is_empty() {
        return Err(format!(
            "chunk {c}: {} quarantines",
            out.report.quarantines.len()
        ));
    }
    if out.digest != expected {
        return Err(format!(
            "chunk {c}: digest {:016x} != first pass {expected:016x}",
            out.digest
        ));
    }
    Ok(())
}

struct State {
    pool: Vec<CorpusModule>,
    digests: Vec<u64>,
    corpus_ms: f64,
}

fn setup(seed: u64) -> State {
    let t0 = Instant::now();
    let pool = pool(seed);
    let corpus_ms = ms(t0.elapsed());
    // Warm-up and first pass: fills the interner and lazy state, and
    // pins every chunk's digest.
    let digests = (0..POOL_MODULES / CHUNK)
        .map(|c| op_digest(&pool, seed, c))
        .collect();
    State {
        pool,
        digests,
        corpus_ms,
    }
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let mut corpus_ms = Vec::new();
    let (st, setup_s, setup_reps) = repeated_setup(|| {
        let st = setup(seed);
        corpus_ms.push(st.corpus_ms);
        st
    });
    let chunks = st.digests.len();
    let order = permutation(chunks, splitmix(seed));
    report.ctx("pool_modules", POOL_MODULES);
    report.ctx("chunk_modules", CHUNK);
    report.ctx("eda_scripts_per_op", EDA_SCRIPTS);
    report.ctx_json("setup_reps_s", format!("{setup_reps:?}"));
    report.ctx("threads", 1);

    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, 0, epoch);
    let mut failures = Vec::new();
    let mut entries = 0usize;
    let mut modules = 0usize;
    let mut quarantined = 0usize;
    let mut traced_ok = 0u64;
    let before = dda_obs::snapshot();
    let mut window = closed_loop(
        args.seconds,
        args.trace,
        &mut tracer,
        &mut failures,
        |i, t| {
            let c = order[i % chunks];
            let (out, lat) = op(&st.pool, seed, c, t);
            entries += out.entries;
            modules += CHUNK;
            quarantined += out.report.quarantines.len();
            if t.is_on() {
                let r = &out.report;
                traced_ok +=
                    (r.completion.ok + r.alignment.ok + r.repair.ok + r.eda_script.ok) as u64;
            }
            check(&out, st.digests[c], c)
                .map(|()| lat)
                .map_err(|e| (lat, e))
        },
    );
    report.attempted = window.attempted;
    report.failed = window.failed;
    for f in failures {
        report.fail(f);
    }

    if !args.trace {
        let pass_at_5 = {
            let corpus = model_corpus();
            let mut data = Dataset::new();
            for c in 0..MODEL_CHUNKS {
                data.merge(augment_chunk(&corpus, agent::MODEL_SEED, c, &options()).0);
            }
            report.ctx("model_train_docs", data.len());
            let model = agent::finetune(&data);
            agent::first_pass_rate(&model, crate::nproc(), report)
        };
        let lat = summarize(report, &mut window.plain);
        report.metric("setup_s", setup_s);
        report.metric("throughput_per_s", window.plain.throughput());
        report.latency_metrics(&lat);
        report.metric("peak_rss_mb", window.peak_rss_mb);
        report.metric("pass_at_5", pass_at_5);
        return;
    }

    // Reconcile the program's own stage counters (ticked only while the
    // recorder is on) with the reports of the traced ops.
    let after = dda_obs::snapshot();
    let ok_delta: u64 = ["completion", "alignment", "repair", "eda-script"]
        .iter()
        .map(|s| {
            let name = format!("pipeline.stage.{s}.ok");
            after.counter(&name) - before.counter(&name)
        })
        .sum();
    report.ctx("traced_stage_units_ok", traced_ok);
    if ok_delta != traced_ok {
        report.fail(format!(
            "pipeline.stage.*.ok counters {ok_delta} != traced op reports {traced_ok}"
        ));
    }

    // Attribution: re-run a sample of chunks whole and one layer call at
    // a time, interleaved so both see the same stretch of machine time.
    tracer.set_on(true);
    let stages = [
        (
            "core.completion_ms",
            "core.stage.completion",
            StageSet {
                completion: true,
                alignment: false,
                repair: false,
                eda_script: false,
            },
        ),
        (
            "core.alignment_ms",
            "core.stage.alignment",
            StageSet::NL_ONLY,
        ),
        (
            "core.repair_ms",
            "core.stage.repair",
            StageSet {
                completion: false,
                alignment: false,
                repair: true,
                eda_script: false,
            },
        ),
        (
            "core.eda_ms",
            "core.stage.eda",
            StageSet {
                completion: false,
                alignment: false,
                repair: false,
                eda_script: true,
            },
        ),
    ];
    let mut stage_ms = vec![Vec::new(); stages.len()];
    let (mut encode_ms, mut json_bytes, mut parse_us, mut lint_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut op_ms = Vec::new();
    for &c in order.iter().take(SAMPLE_CHUNKS) {
        let (_, d) = op(&st.pool, seed, c, &mut tracer);
        op_ms.push(ms(d));
        for (k, (_, span, set)) in stages.iter().enumerate() {
            let opts = PipelineOptions {
                stages: *set,
                ..options()
            };
            let (_, d) = tracer.time(span, "dda-core", |_| {
                augment_chunk(&st.pool, seed, c, &opts)
            });
            stage_ms[k].push(ms(d));
        }
        let (ds, _) = augment_chunk(&st.pool, seed, c, &options());
        let (jsonl, d) = tracer.time("core.to_jsonl", "dda-core", |_| {
            to_jsonl(ds.iter().map(|(_, e)| e))
        });
        encode_ms.push(ms(d));
        json_bytes.push(jsonl.len() as f64);
        let mut rng = chunk_rng(seed, c);
        for m in chunk(&st.pool, c) {
            let (parsed, d) = tracer.time("verilog.parse", "dda-verilog", |_| {
                dda_verilog::parse(&m.source)
            });
            parse_us.push(us(d));
            if parsed.is_err() {
                report.fail(format!("{}: corpus module does not parse", m.name));
            }
            if let Some(broken) = break_verilog(&m.source, &RepairOptions::default(), &mut rng) {
                let file = format!("{}.v", m.name);
                let (_, d) = tracer.time("lint.check_source", "dda-lint", |_| {
                    dda_lint::check_source(&file, &broken.source)
                });
                lint_us.push(us(d));
            }
        }
    }
    let mut parts = Vec::new();
    for ((name, _, _), samples) in stages.iter().zip(&stage_ms) {
        report.metric(name, mean(samples));
        parts.push(Part {
            calls: 1.0,
            each: mean(samples),
        });
    }
    report.metric("core.json_encode_ms", mean(&encode_ms));
    parts.push(Part {
        calls: 1.0,
        each: mean(&encode_ms),
    });
    report.metric("core.json_bytes", mean(&json_bytes));
    report.metric(
        "core.entries_per_module",
        entries as f64 / modules.max(1) as f64,
    );
    report.metric("core.quarantined", quarantined as f64);
    report.metric("verilog.parse_us", mean(&parse_us));
    report.metric("lint.check_us", mean(&lint_us));
    report.metric("corpus.generate_ms", median(&corpus_ms));
    report.metric("obs.trace_overhead_ratio", window.trace_overhead_ratio());
    let op_mean = mean(&op_ms);
    report.metric(
        "augment.unattributed_ms",
        crate::stats::unattributed(op_mean, &parts),
    );
    report.ctx("op_mean_ms", op_mean);
    report.ctx("lint_samples", lint_us.len());
    crate::finish_trace(args, report, &tracer);
}
