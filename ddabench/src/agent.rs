//! `agent`: the compute-only pass@k repair agent.
//!
//! Setup builds the benchmark suites and finetunes a model on an
//! augmented seeded corpus, then runs one warm-up pass. One op is one
//! `agent_batch` (k = 5, early-exit off, no modelled tool wait, `nproc`
//! workers) over one (problem, level) pair. Ops go pass after pass over
//! every pair in seeded order, and each pass has its own protocol seed,
//! so candidates vary between passes. After [`PASSES`] passes the cycle
//! repeats. The protocol seeds are the same for every run seed, so each
//! run does the same work per cycle: some batches draft a candidate that
//! simulates to the step budget (~0.4 s, ~40 MB), and seeds drawn from
//! the run seed would put such batches in some runs only.

use crate::stats::{mean, median, permutation, splitmix, Part};
use crate::trace::Tracer;
use crate::{closed_loop, ms, nproc, repeated_setup, summarize, us, Args, Report};
use dda_benchmarks::VerilogProblem;
use dda_core::align::ALIGN_INSTRUCT;
use dda_core::pipeline::{augment, PipelineOptions};
use dda_core::repair::REPAIR_INSTRUCT;
use dda_core::Dataset;
use dda_eval::{
    agent_batch, agent_batch_sequential, run_testbench_verdict, AgentBatchOptions,
    AgentBatchOutcome, AgentProtocol,
};
use dda_slm::{GenOptions, ShardedTfIdf, Slm, SlmProfile, TfIdfIndex, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Corpus modules the model is finetuned on (at least the `ZooOptions`
/// default of 192).
pub const MODEL_MODULES: usize = 256;
/// Protocol seeds in the op pool: one pass over every pair per seed.
pub const PASSES: usize = 16;
/// Seed of the model's training corpus. The model is the system under
/// test, like the daemon's, so it does not vary with the run seed; the
/// run seed drives the requests (pair order and protocol seeds).
pub const MODEL_SEED: u64 = 2024;
/// Chains per batch: the k of pass@k.
pub const K: usize = 5;
/// One op in this many (seeded) is re-run on the sequential reference
/// after the window.
pub const SAMPLE_EVERY: u64 = 24;
/// Cap on sequential-reference re-runs.
pub const SAMPLE_MAX: usize = 48;
/// Sampled prompts the traced run queries both retrieval indexes with.
pub const PROBE_PAIRS: usize = 32;
/// Hits per retrieval query, as the model's own generate path asks.
pub const TOP: usize = 32;
/// Shards of the benchmark-built sharded index.
pub const SHARDS: usize = 4;

/// Thakur and RTLLM problems, in suite order.
pub fn problems() -> Vec<VerilogProblem> {
    let mut v = dda_benchmarks::thakur_suite();
    v.extend(dda_benchmarks::rtllm_suite());
    v
}

/// Every (problem index, prompt level) pair.
pub fn pairs(problems: &[VerilogProblem]) -> Vec<(usize, usize)> {
    problems
        .iter()
        .enumerate()
        .flat_map(|(i, p)| (0..p.prompts.len()).map(move |l| (i, l)))
        .collect()
}

/// Finetunes the benchmark's model profile on `data`.
pub fn finetune(data: &Dataset) -> Slm {
    Slm::finetune(SlmProfile::llama2(13.0), data, &PROGRESSIVE_ORDER)
}

/// Protocol seed of pass `pass` over the pairs.
pub fn pass_seed(pass: usize) -> u64 {
    splitmix(0xa9e7 + pass as u64)
}

/// Batch options: k chains, early exit off, no tool wait.
pub fn batch_options(protocol_seed: u64, workers: usize) -> AgentBatchOptions {
    AgentBatchOptions {
        k: K,
        protocol: AgentProtocol {
            seed: protocol_seed,
            tool_wait: Duration::ZERO,
            ..AgentProtocol::default()
        },
        workers,
        early_exit: false,
        ..AgentBatchOptions::default()
    }
}

/// `pass_at_5` of `model`: the share of first-pass (problem, level)
/// batches that pass.
pub fn first_pass_rate(model: &Slm, workers: usize, report: &mut Report) -> f64 {
    let problems = problems();
    let pairs = pairs(&problems);
    let opts = batch_options(pass_seed(0), workers);
    let passed = pairs
        .iter()
        .filter(|(p, l)| agent_batch(model, &problems[*p], *l, &[], &opts).passed())
        .count();
    report.ctx("pass_at_5_batches", pairs.len());
    passed as f64 / pairs.len() as f64
}

/// Checks one batch outcome for completeness.
fn check(out: &AgentBatchOutcome, what: &str) -> Result<(), String> {
    if out.chains.len() != K || out.quarantined > 0 || out.chains.iter().any(|c| c.cancelled) {
        return Err(format!(
            "{what}: {} chains, {} quarantined, cancelled chains present: {}",
            out.chains.len(),
            out.quarantined,
            out.chains.iter().any(|c| c.cancelled)
        ));
    }
    Ok(())
}

struct State {
    problems: Vec<VerilogProblem>,
    pairs: Vec<(usize, usize)>,
    data: Dataset,
    model: Slm,
    corpus_ms: f64,
    finetune_ms: f64,
}

fn setup(workers: usize) -> State {
    let problems = problems();
    let pairs = pairs(&problems);
    let mut rng = SmallRng::seed_from_u64(MODEL_SEED);
    let t0 = Instant::now();
    let corpus = dda_corpus::generate_corpus(MODEL_MODULES, &mut rng);
    let corpus_ms = ms(t0.elapsed());
    let (data, _) = augment(&corpus, &PipelineOptions::default(), &mut rng);
    let t0 = Instant::now();
    let model = finetune(&data);
    let finetune_ms = ms(t0.elapsed());
    // Warm-up: one batch per pair, with a protocol seed no timed pass uses.
    let warm = batch_options(pass_seed(PASSES), workers);
    for (p, l) in &pairs {
        agent_batch(&model, &problems[*p], *l, &[], &warm);
    }
    State {
        problems,
        pairs,
        data,
        model,
        corpus_ms,
        finetune_ms,
    }
}

struct Sample {
    pair: usize,
    pass: usize,
    out: AgentBatchOutcome,
    par_ms: f64,
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let workers = nproc();
    let mut corpus_ms = Vec::new();
    let mut finetune_ms = Vec::new();
    let (st, setup_s, setup_reps) = repeated_setup(|| {
        let st = setup(workers);
        corpus_ms.push(st.corpus_ms);
        finetune_ms.push(st.finetune_ms);
        st
    });
    let n = st.pairs.len();
    // Pass after pass, each over every pair in its own seeded order; the
    // cycle of PASSES passes then repeats.
    let order: Vec<(usize, usize)> = (0..PASSES)
        .flat_map(|pass| {
            permutation(n, splitmix(seed ^ splitmix(pass as u64)))
                .into_iter()
                .map(move |pair| (pass, pair))
        })
        .collect();
    report.ctx("model_modules", MODEL_MODULES);
    report.ctx("train_docs", st.data.len());
    report.ctx("pairs", n);
    report.ctx("passes", PASSES);
    report.ctx("k", K);
    report.ctx("workers", workers);
    report.ctx("threads", workers);
    report.ctx_json("setup_reps_s", format!("{setup_reps:?}"));

    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, 0, epoch);
    let mut failures = Vec::new();
    let mut first_pass = vec![None; n];
    let mut samples: Vec<Sample> = Vec::new();
    let (mut chains, mut chains_passed) = (0usize, 0usize);
    let (mut traced_rounds, mut traced_chains) = (0u64, 0u64);
    let cache0 = dda_sim::cache::stats();
    let obs0 = dda_obs::snapshot();
    let mut window = closed_loop(
        args.seconds,
        args.trace,
        &mut tracer,
        &mut failures,
        |i, t| {
            let (pass, pair) = order[i % order.len()];
            let (p, l) = st.pairs[pair];
            let opts = batch_options(pass_seed(pass), workers);
            let (out, lat) = t.time("eval.agent_batch", "dda-eval", |_| {
                agent_batch(&st.model, &st.problems[p], l, &[], &opts)
            });
            if pass == 0 {
                first_pass[pair] = Some(out.passed());
            }
            chains += out.chains.len();
            chains_passed += out.chains.iter().filter(|c| c.passed()).count();
            if t.is_on() {
                traced_rounds += out.rounds_total as u64;
                traced_chains += out.chains.len() as u64;
            }
            let checked = check(&out, st.problems[p].id);
            if splitmix(seed ^ i as u64).is_multiple_of(SAMPLE_EVERY) && samples.len() < SAMPLE_MAX
            {
                samples.push(Sample {
                    pair,
                    pass,
                    out,
                    par_ms: ms(lat),
                });
            }
            checked.map(|()| lat).map_err(|e| (lat, e))
        },
    );
    let cache1 = dda_sim::cache::stats();
    let obs1 = dda_obs::snapshot();
    report.attempted = window.attempted;
    report.failed = window.failed;
    for f in failures {
        report.fail(f);
    }
    let first: Vec<bool> = first_pass.iter().flatten().copied().collect();
    if first.len() != n {
        report.fail(format!("first pass covered {} of {n} pairs", first.len()));
    }
    let pass_at_5 = first.iter().filter(|p| **p).count() as f64 / n as f64;

    // Correctness: the sampled batches against the sequential reference,
    // outside the timed window. In a traced run the program's counters
    // are on, so each re-run also yields its per-layer call counts, and
    // the pair's layer calls are probed right after it, in the same
    // stretch of machine time.
    crate::set_tracing(&mut tracer, args.trace);
    let (mut seq_ms, mut par_ms) = (0.0, 0.0);
    let mut calls = CallCounts::default();
    let mut probe = Probe::default();
    let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ 0x9b0b));
    for s in &samples {
        let (p, l) = st.pairs[s.pair];
        let opts = batch_options(pass_seed(s.pass), workers);
        let before = dda_obs::snapshot();
        let (reference, d) = tracer.time("eval.agent_batch_sequential", "dda-eval", |_| {
            agent_batch_sequential(&st.model, &st.problems[p], l, &[], &opts)
        });
        calls.add(&before, &dda_obs::snapshot(), &reference);
        seq_ms += ms(d);
        par_ms += s.par_ms;
        if reference != s.out {
            report.fail(format!(
                "{} level {l} pass {}: agent_batch differs from agent_batch_sequential",
                st.problems[p].id, s.pass
            ));
        }
        if args.trace {
            probe.pair(&st, s.pair, &mut rng, &mut tracer);
        }
    }
    dda_obs::disable();
    report.ctx("sequential_checks", samples.len());

    if !args.trace {
        let lat = summarize(report, &mut window.plain);
        report.metric("setup_s", setup_s);
        report.metric("throughput_per_s", window.plain.throughput());
        report.latency_metrics(&lat);
        report.metric("peak_rss_mb", window.peak_rss_mb);
        report.metric("pass_at_5", pass_at_5);
        return;
    }

    // The program's own counters, ticked only in traced blocks, must
    // reconcile with the outcomes the benchmark saw there.
    let rounds = obs1.counter("agent.round") - obs0.counter("agent.round");
    let started = obs1.counter("agent.chain.started") - obs0.counter("agent.chain.started");
    report.ctx("traced_rounds", traced_rounds);
    if rounds != traced_rounds || started != traced_chains {
        report.fail(format!(
            "agent counters (rounds {rounds}, chains {started}) != traced outcomes \
             (rounds {traced_rounds}, chains {traced_chains})"
        ));
    }
    let lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    let obs_lookups = ["sim.cache.hit.l1", "sim.cache.hit.shared", "sim.cache.miss"]
        .iter()
        .map(|c| obs1.counter(c) - obs0.counter(c))
        .sum::<u64>();
    report.ctx("sim_cache_lookups", lookups);
    report.ctx("sim_cache_lookups_traced", obs_lookups);

    let sampled: Vec<usize> = samples.iter().map(|s| s.pair).collect();
    probe_retrieval(&st, &sampled, &mut tracer, report);
    let probe = probe.means();
    report.ctx("probe_scores", probe.scores);
    let each = calls.per_batch(samples.len());
    report.ctx_json(
        "calls_per_batch",
        format!(
            "{{\"draft\": {}, \"repair\": {}, \"lint\": {}, \"score\": {}}}",
            each.draft, each.repair, each.lint, each.score
        ),
    );
    let parts = [
        Part {
            calls: each.draft,
            each: probe.draft_ms,
        },
        Part {
            calls: each.repair,
            each: probe.repair_ms,
        },
        Part {
            calls: each.lint,
            each: probe.lint_us / 1e3,
        },
        Part {
            calls: each.score,
            each: probe.score_ms,
        },
    ];
    let seq_mean = seq_ms / samples.len().max(1) as f64;
    report.ctx("sequential_batch_ms", seq_mean);
    report.metric(
        "agent.unattributed_ms",
        crate::stats::unattributed(seq_mean, &parts),
    );
    report.metric("corpus.generate_ms", median(&corpus_ms));
    report.metric("slm.finetune_ms", median(&finetune_ms));
    report.metric("slm.generate_ms", probe.draft_ms);
    report.ctx("slm_repair_generate_ms", probe.repair_ms);
    report.metric("lint.check_us", probe.lint_us);
    report.metric("sim.score_ms", probe.score_ms);
    report.metric(
        "sim.cache_hit_ratio",
        (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64,
    );
    report.metric("eval.agent_batch_ms", mean(&window.plain.lat_ms));
    report.metric(
        "eval.useful_chain_ratio",
        chains_passed as f64 / chains.max(1) as f64,
    );
    report.metric("runtime.speedup", seq_ms / par_ms.max(f64::MIN_POSITIVE));
    report.metric("obs.trace_overhead_ratio", window.trace_overhead_ratio());
    crate::finish_trace(args, report, &tracer);
}

/// Layer calls inside sequential-reference batches, from the program's
/// own counters and the batch outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CallCounts {
    draft: f64,
    repair: f64,
    lint: f64,
    score: f64,
}

impl CallCounts {
    fn add(
        &mut self,
        before: &dda_obs::Snapshot,
        after: &dda_obs::Snapshot,
        out: &AgentBatchOutcome,
    ) {
        let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
        let rounds = out.rounds_total as f64;
        let chains = out.chains.len() as f64;
        // Drafts and redrafts query the retrieval index once each.
        self.draft += delta("slm.query.postings");
        // Every round but a chain's last feeds one repair generation,
        // and every round lints once, plus once per repair candidate.
        self.repair += rounds - chains;
        self.lint += 2.0 * rounds - chains;
        self.score += delta("sim.run.bytecode") + delta("sim.run.ast");
    }

    fn per_batch(&self, batches: usize) -> CallCounts {
        let n = batches.max(1) as f64;
        CallCounts {
            draft: self.draft / n,
            repair: self.repair / n,
            lint: self.lint / n,
            score: self.score / n,
        }
    }
}

/// Costs of single calls into each layer the agent uses, made by the
/// benchmark on the agent's own inputs.
#[derive(Debug, Default)]
struct Probe {
    draft_ms: Vec<f64>,
    repair_ms: Vec<f64>,
    lint_us: Vec<f64>,
    score_ms: Vec<f64>,
}

/// Mean cost of one call into each layer.
struct ProbeMeans {
    draft_ms: f64,
    repair_ms: f64,
    lint_us: f64,
    score_ms: f64,
    scores: usize,
}

impl Probe {
    /// Replays the first round of each of a batch's k chains for `pair`,
    /// one layer call at a time: draft, lint, testbench score when clean
    /// (on the design cache as the agent left it), and one repair
    /// generation on that round's feedback.
    fn pair(&mut self, st: &State, pair: usize, rng: &mut SmallRng, t: &mut Tracer) {
        let gen = GenOptions { temperature: 0.1 };
        let (p, l) = st.pairs[pair];
        let problem = &st.problems[p];
        let prompt = &problem.prompts[l];
        let file = format!("{}.v", problem.module_name);
        for _ in 0..K {
            let (cand, d) = t.time("slm.generate", "dda-slm", |_| {
                st.model.generate(ALIGN_INSTRUCT, prompt, &gen, rng)
            });
            self.draft_ms.push(ms(d));
            let (lint_report, d) = t.time("lint.check_source", "dda-lint", |_| {
                dda_lint::check_source(&file, &cand)
            });
            self.lint_us.push(us(d));
            let feedback = if lint_report.is_clean() {
                let (verdict, d) = t.time("sim.run_testbench_verdict", "dda-sim", |_| {
                    run_testbench_verdict(problem, &cand)
                });
                self.score_ms.push(ms(d));
                format!(
                    "/{file}: testbench pass rate {:.4} below 1.0000",
                    verdict.pass_rate()
                )
            } else {
                lint_report.render().trim_end().to_string()
            };
            let input = format!("{feedback}, {cand}");
            let (_, d) = t.time("slm.generate_repair", "dda-slm", |_| {
                st.model.generate(REPAIR_INSTRUCT, &input, &gen, rng)
            });
            self.repair_ms.push(ms(d));
        }
    }

    fn means(&self) -> ProbeMeans {
        ProbeMeans {
            draft_ms: mean(&self.draft_ms),
            repair_ms: mean(&self.repair_ms),
            lint_us: mean(&self.lint_us),
            score_ms: mean(&self.score_ms),
            scores: self.score_ms.len(),
        }
    }
}

/// Top-k queries for the prompts of `pairs` on both retrieval indexes,
/// each built by the benchmark over the model's training texts.
fn probe_retrieval(st: &State, pairs: &[usize], t: &mut Tracer, report: &mut Report) {
    let texts: Vec<String> = PROGRESSIVE_ORDER
        .iter()
        .flat_map(|k| st.data.entries(*k))
        .map(|e| format!("{}\n{}", e.instruct, e.input))
        .collect();
    let mut dense = TfIdfIndex::new();
    let mut sharded = ShardedTfIdf::new(SHARDS);
    for (id, text) in texts.iter().enumerate() {
        dense.add(text);
        if let Err(e) = sharded.insert(id as u64, text) {
            report.fail(format!("sharded insert {id}: {e:?}"));
        }
    }
    dense.finish();
    let (mut dense_us, mut sharded_us) = (vec![], vec![]);
    for &i in pairs.iter().take(PROBE_PAIRS) {
        let (p, l) = st.pairs[i];
        let query = format!("{ALIGN_INSTRUCT}\n{}", st.problems[p].prompts[l]);
        let (a, d) = t.time("slm.tfidf_query", "dda-slm", |_| {
            dense.try_query(&query, TOP).unwrap_or_default()
        });
        dense_us.push(us(d));
        let (b, d) = t.time("slm.sharded_query", "dda-slm", |_| {
            sharded.query(&query, TOP)
        });
        sharded_us.push(us(d));
        if a.len() != b.len() {
            report.fail(format!(
                "retrieval: dense {} hits, sharded {}",
                a.len(),
                b.len()
            ));
        }
    }
    report.ctx("retrieval_docs", texts.len());
    report.metric("slm.tfidf_query_us", mean(&dense_us));
    report.metric("slm.sharded_query_us", mean(&sharded_us));
}
