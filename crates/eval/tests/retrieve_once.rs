//! One retrieval query per prompt, however many samples are drawn from it.
//!
//! pass@k protocols draw several samples from one prompt: the k chains of
//! an agent batch with their redrafts, the k samples of an `eval_cell`.
//! The model's retrieval is a pure function of the prompt, so each of
//! those callers prepares the prompt once (`Slm::prepare`) and samples
//! from it. This battery pins that with the program's own counters: one
//! `slm.query.postings` tick and one `slm.prepare` per batch or cell, and
//! no query at all on the paths that never retrieve (repair, and EDA
//! prompts a skilled model constructs directly).
//!
//! The counters are process-global, so this is one test in its own
//! integration binary: nothing else can move them mid-assertion.

use dda_benchmarks::{rtllm_suite, thakur_suite};
use dda_core::edascript::EDA_INSTRUCT;
use dda_core::pipeline::{augment, PipelineOptions};
use dda_core::repair::REPAIR_INSTRUCT;
use dda_core::TaskKind;
use dda_eval::{agent_batch, agent_batch_sequential, eval_cell, AgentBatchOptions, GenProtocol};
use dda_slm::{GenOptions, Slm, SlmProfile, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Counter deltas across `f`.
fn ticks(f: impl FnOnce()) -> (u64, u64, u64) {
    let read = |s: &dda_obs::Snapshot| {
        (
            s.counter("slm.query.postings"),
            s.counter("slm.prepare"),
            s.counter("slm.sample"),
        )
    };
    let before = read(&dda_obs::snapshot());
    f();
    let after = read(&dda_obs::snapshot());
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

#[test]
fn each_batch_and_cell_queries_the_index_once() {
    let mut rng = SmallRng::seed_from_u64(5);
    let corpus = dda_corpus::generate_corpus(16, &mut rng);
    let (data, _) = augment(&corpus, &PipelineOptions::default(), &mut rng);
    let model = Slm::finetune(SlmProfile::llama2(13.0), &data, &PROGRESSIVE_ORDER);
    dda_obs::enable();
    dda_obs::reset();

    let thakur = thakur_suite();
    let rtllm = rtllm_suite();
    let cases = [(&thakur[0], 2), (&thakur[7], 0), (&rtllm[2], 0)];
    for (problem, level) in cases {
        let opts = AgentBatchOptions {
            workers: 2,
            ..AgentBatchOptions::default()
        };
        for parallel in [false, true] {
            let (queries, prepares, samples) = ticks(|| {
                if parallel {
                    agent_batch(&model, problem, level, &[], &opts);
                } else {
                    agent_batch_sequential(&model, problem, level, &[], &opts);
                }
            });
            let what = format!("{} level {level} (parallel: {parallel})", problem.id);
            assert_eq!(queries, 1, "{what}: index queries per batch");
            assert_eq!(prepares, 1, "{what}: prepares per batch");
            assert!(samples >= opts.k as u64, "{what}: {samples} drafts");
        }
        let protocol = GenProtocol::default();
        let (queries, prepares, samples) = ticks(|| {
            eval_cell(&model, problem, level, &protocol);
        });
        assert_eq!(queries, 1, "{}: index queries per eval_cell", problem.id);
        assert_eq!(prepares, 1, "{}: prepares per eval_cell", problem.id);
        assert_eq!(
            samples, protocol.k as u64,
            "{}: samples per cell",
            problem.id
        );
    }

    // Paths that never retrieve: repair prompts, and EDA prompts a
    // skilled model answers by constructing the script.
    let opts = GenOptions::default();
    let mut rng = SmallRng::seed_from_u64(6);
    let (queries, _, _) = ticks(|| {
        model.generate(
            REPAIR_INSTRUCT,
            "module m(input a, output y)\nassign y = a\nendmodule\n",
            &opts,
            &mut rng,
        );
    });
    assert_eq!(queries, 0, "a repair prompt queried the index");
    assert!(model.skills().eda > 0.99, "{:?}", model.skills());
    let eda = &data.entries(TaskKind::NlEdaScriptGeneration)[0];
    let prepared = model.prepare(EDA_INSTRUCT, &eda.input);
    let (queries, _, samples) = ticks(|| {
        for _ in 0..4 {
            model.sample(&prepared, &opts, &mut rng);
        }
    });
    assert_eq!(samples, 4);
    assert_eq!(queries, 0, "a constructed EDA script queried the index");
}
