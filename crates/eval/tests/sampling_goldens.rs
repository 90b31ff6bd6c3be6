//! Pinned outputs of the model's sampling paths.
//!
//! Every pass@k protocol draws several samples from one prompt. These
//! goldens pin what those samples produce, end to end, so that any
//! restructuring of how a prompt's retrieval is computed or shared
//! between samples must leave every output bit-identical:
//!
//! 1. `agent_batch_sequential` outcomes over every Thakur and RTLLM
//!    (problem, level) pair, for two protocol seeds;
//! 2. `eval_cell` and `agent_episode` outputs over the same pairs;
//! 3. `eval_script_suite` cells, on a skilled and a middling EDA model;
//! 4. raw `Slm::generate` strings for ALIGN, REPAIR, EDA and completion
//!    prompts, with the postings index and with the linear-scan
//!    reference retrieval.
//!
//! Each golden is an FNV-1a digest of a canonical rendering (floats as
//! their IEEE-754 bits). On a mismatch the test prints the rendering so
//! the drifting case can be found.

use dda_benchmarks::VerilogProblem;
use dda_core::align::ALIGN_INSTRUCT;
use dda_core::edascript::EDA_INSTRUCT;
use dda_core::pipeline::{augment, PipelineOptions};
use dda_core::repair::REPAIR_INSTRUCT;
use dda_core::{Dataset, TaskKind};
use dda_eval::{
    agent_batch_sequential, agent_episode, eval_cell, eval_script_suite, AgentBatchOptions,
    AgentProtocol, GenProtocol, ScriptProtocol,
};
use dda_slm::{GenOptions, Slm, SlmProfile, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write;
use std::sync::OnceLock;

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn dataset() -> &'static Dataset {
    static DATA: OnceLock<Dataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let mut rng = SmallRng::seed_from_u64(4242);
        let corpus = dda_corpus::generate_corpus(24, &mut rng);
        augment(&corpus, &PipelineOptions::default(), &mut rng).0
    })
}

/// A small seeded model: 24 augmented corpus modules, Llama-2 13B profile.
fn model() -> Slm {
    Slm::finetune(
        SlmProfile {
            name: "golden".into(),
            ..SlmProfile::llama2(13.0)
        },
        dataset(),
        &PROGRESSIVE_ORDER,
    )
}

/// A model with middling EDA-script skill (six script examples, low
/// floor): some EDA samples construct the script, the rest retrieve.
fn mid_eda_model() -> Slm {
    let mut ds = Dataset::new();
    for kind in PROGRESSIVE_ORDER {
        let entries = dataset().entries(kind);
        let keep = if kind == TaskKind::NlEdaScriptGeneration {
            &entries[..6]
        } else {
            entries
        };
        for e in keep {
            ds.push(kind, e.clone());
        }
    }
    Slm::finetune(
        SlmProfile {
            name: "golden-eda".into(),
            floor_eda: 0.3,
            ..SlmProfile::llama2(13.0)
        },
        &ds,
        &PROGRESSIVE_ORDER,
    )
}

fn problems() -> Vec<VerilogProblem> {
    let mut v = dda_benchmarks::thakur_suite();
    v.extend(dda_benchmarks::rtllm_suite());
    v
}

fn check(what: &str, rendering: &str, pinned: u64) {
    let got = fnv(rendering);
    assert_eq!(
        got, pinned,
        "{what} digest drifted: got {got:#018x}, pinned {pinned:#018x}\n{rendering}"
    );
}

#[test]
fn agent_batch_outcomes_are_pinned() {
    let model = model();
    let mut out = String::new();
    for seed in [7331u64, 0x5eed] {
        let opts = AgentBatchOptions {
            k: 5,
            protocol: AgentProtocol {
                seed,
                ..AgentProtocol::default()
            },
            ..AgentBatchOptions::default()
        };
        for p in &problems() {
            for level in 0..p.prompts.len() {
                let b = agent_batch_sequential(&model, p, level, &[], &opts);
                write!(
                    out,
                    "{seed} {} {level} w={:?} r={} q={}:",
                    p.id, b.winner, b.rounds_total, b.quarantined
                )
                .unwrap();
                for c in &b.chains {
                    write!(
                        out,
                        " ({} {} {} {:016x} {} {})",
                        c.chain,
                        c.rounds,
                        c.lint_clean,
                        c.function.to_bits(),
                        c.repaired_by_loop,
                        c.cancelled
                    )
                    .unwrap();
                }
                out.push('\n');
            }
        }
    }
    check("agent_batch_sequential", &out, 0x166d558db903200e);
}

#[test]
fn eval_cells_are_pinned() {
    let model = model();
    let protocol = GenProtocol::default();
    let mut out = String::new();
    for p in &problems() {
        for level in 0..p.prompts.len() {
            let c = eval_cell(&model, p, level, &protocol);
            writeln!(
                out,
                "{} {level}: {} {:016x}",
                p.id,
                c.syntax_errors,
                c.best_function.to_bits()
            )
            .unwrap();
        }
    }
    check("eval_cell", &out, 0x34392e70313ba781);
}

#[test]
fn agent_episodes_are_pinned() {
    let model = model();
    let protocol = AgentProtocol::default();
    let mut out = String::new();
    for p in &problems() {
        for level in 0..p.prompts.len() {
            let o = agent_episode(&model, p, level, &protocol);
            writeln!(
                out,
                "{} {level}: {} {} {:016x} {}",
                p.id,
                o.iterations,
                o.lint_clean,
                o.function.to_bits(),
                o.repaired_by_loop
            )
            .unwrap();
        }
    }
    check("agent_episode", &out, 0xf5bd8a4f0cad072b);
}

#[test]
fn script_cells_are_pinned() {
    let tasks = dda_benchmarks::sc_suite();
    let protocol = ScriptProtocol::default();
    let mut out = String::new();
    for model in [model(), mid_eda_model()] {
        for (label, cell) in eval_script_suite(&model, &tasks, &protocol) {
            writeln!(out, "{label}: {:?} {:?}", cell.syn_iter, cell.func_iter).unwrap();
        }
    }
    check("eval_script_suite", &out, 0x04d8d681ece649f0);
}

/// Six samples per prompt from one RNG stream, for every prompt kind the
/// model routes differently.
fn generate_rendering(model: &Slm) -> String {
    let data = dataset();
    let thakur = dda_benchmarks::thakur_suite();
    let rtllm = dda_benchmarks::rtllm_suite();
    let completion = &data.entries(TaskKind::WordLevelCompletion)[3];
    let eda = data.entries(TaskKind::NlEdaScriptGeneration);
    let aligned = &data.entries(TaskKind::NlVerilogGeneration)[2];
    let prompts: Vec<(&str, String)> = vec![
        (ALIGN_INSTRUCT, thakur[4].prompts[0].clone()),
        (ALIGN_INSTRUCT, thakur[9].prompts[2].clone()),
        (ALIGN_INSTRUCT, rtllm[3].prompts[0].clone()),
        (ALIGN_INSTRUCT, aligned.input.clone()),
        (ALIGN_INSTRUCT, "a counter with synchronous reset".into()),
        (
            ALIGN_INSTRUCT,
            "Module name: widget\nPorts: input clk, input [7:0] d, output reg [7:0] q".into(),
        ),
        (
            REPAIR_INSTRUCT,
            "/m.v:2: syntax error, m.v, module m(input a, output y)\nassign y = ~a;\nendmodule\n"
                .into(),
        ),
        (EDA_INSTRUCT, eda[0].input.clone()),
        (EDA_INSTRUCT, eda[eda.len() / 2].input.clone()),
        (
            EDA_INSTRUCT,
            "Write a script for a design with no constraints.".into(),
        ),
        (completion.instruct.as_str(), completion.input.clone()),
    ];
    let opts = GenOptions::default();
    let mut out = String::new();
    for (i, (instruct, input)) in prompts.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(900 + i as u64);
        for s in 0..6 {
            let text = model.generate(instruct, input, &opts, &mut rng);
            writeln!(out, "{i}.{s} {:016x} {}", fnv(&text), text.len()).unwrap();
        }
    }
    out
}

#[test]
fn generate_strings_are_pinned_on_both_retrieval_paths() {
    let mut model = model();
    check(
        "generate (postings)",
        &generate_rendering(&model),
        0x462c96238fd40aa0,
    );
    model.set_reference_retrieval(true);
    check(
        "generate (linear reference)",
        &generate_rendering(&model),
        0x462c96238fd40aa0,
    );
    let mut mid = mid_eda_model();
    check(
        "generate (mid EDA, postings)",
        &generate_rendering(&mid),
        0x04e354b9ebb2323e,
    );
    mid.set_reference_retrieval(true);
    check(
        "generate (mid EDA, linear reference)",
        &generate_rendering(&mid),
        0x04e354b9ebb2323e,
    );
}

#[test]
fn hallucination_strings_are_pinned() {
    // An empty training set retrieves nothing: every ALIGN sample takes
    // the skeleton path around the requested interface.
    let model = Slm::finetune(SlmProfile::llama2(7.0), &Dataset::new(), &PROGRESSIVE_ORDER);
    let mut rng = SmallRng::seed_from_u64(31);
    let mut out = String::new();
    for _ in 0..4 {
        out.push_str(&model.generate(
            ALIGN_INSTRUCT,
            "Module name: widget\nPorts: input a, output b",
            &GenOptions::default(),
            &mut rng,
        ));
    }
    check("hallucinate", &out, 0x28f6dccdefe78dfd);
}
