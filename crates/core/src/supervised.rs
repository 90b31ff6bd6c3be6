//! Supervised, resumable augmentation on the `dda-runtime` engine.
//!
//! [`augment_supervised`] runs the Fig. 4 pipeline with one engine unit
//! per corpus module (all enabled per-module stages) plus one final unit
//! for the EDA-script pool, on a bounded worker pool with per-unit
//! wall-clock deadlines, seeded retry, and an optional write-ahead
//! journal for checkpoint/resume.
//!
//! # Determinism
//!
//! The legacy [`augment`](crate::pipeline::augment) threads one shared
//! RNG sequentially through every stage call, which is inherently
//! order-dependent. The supervised path instead derives an independent
//! seed per unit (splitmix64 over `(seed, unit)`), so each unit's output
//! is a pure function of `(corpus, options, seed, unit)` and the
//! assembled dataset is **byte-identical for any worker count,
//! scheduling order, or interruption point**. The cost is that its
//! repair/EDA entries differ from the legacy sequential stream for the
//! same seed — callers pinning legacy bytes (the model zoo, committed
//! tables) keep calling `augment`.
//!
//! # Accounting
//!
//! Stage-level panics are caught inside the unit (as in `augment`) and
//! booked per stage. A unit the *engine* quarantines (deadline trip,
//! exhausted retries) is booked as quarantined in **every enabled
//! per-module stage**, so `ok + skipped + quarantined == corpus.len()`
//! holds for any outcome mix — the PR 1 invariant survives parallelism.

use crate::align::align_entries;
use crate::completion::completion_entries;
use crate::dataset::{DataEntry, Dataset, TaskKind};
use crate::edascript::generate_eda_entries;
use crate::json;
use crate::pipeline::{
    book_stage, guarded, obs_stage, recycle_quarantines, AugmentReport, PipelineOptions,
    QuarantineRecord, Stage,
};
use crate::repair::repair_entries;
use dda_corpus::CorpusModule;
use dda_runtime::{
    run_supervised, run_supervised_journaled, CancelToken, EngineReport, EngineSummary, RunOptions,
    UnitError, UnitOutcome, DEADLINE_DIAGNOSTIC,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io;
use std::path::PathBuf;

/// Options for one supervised augmentation run.
#[derive(Debug, Clone)]
pub struct SupervisedOptions {
    /// Engine options: worker count, per-unit deadline, retry policy.
    pub run: RunOptions,
    /// Write-ahead journal path (`None` disables checkpointing).
    pub journal: Option<PathBuf>,
    /// Replay an existing journal at the path before executing. Ignored
    /// when `journal` is `None`.
    pub resume: bool,
    /// Base seed; unit `u` draws from `splitmix64(seed, u)`.
    pub seed: u64,
}

impl Default for SupervisedOptions {
    fn default() -> Self {
        SupervisedOptions {
            run: RunOptions::default(),
            journal: None,
            resume: false,
            seed: 0xDDA,
        }
    }
}

/// splitmix64 over `(seed, unit)`: well-mixed independent unit seeds.
fn unit_seed(seed: u64, unit: usize) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(unit as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one stage produced: `None` = stage disabled, `Err` = caught
/// panic message (the same shape [`guarded`] feeds to [`book_stage`]).
type StageYield = Option<Result<Vec<(TaskKind, DataEntry)>, String>>;

/// The result of one engine unit.
enum UnitYield {
    /// A corpus module: one slot per per-module stage, pipeline order.
    Module([StageYield; 3]),
    /// The EDA-script pool (final unit).
    Eda(StageYield),
}

fn encode_stage(out: &mut String, st: &StageYield) {
    match st {
        None => out.push_str("s off\n"),
        Some(Err(diag)) => {
            out.push_str("s err ");
            dda_obs::event::escape_into(diag, out);
            out.push('\n');
        }
        Some(Ok(entries)) => {
            out.push_str(&format!("s ok {}\n", entries.len()));
            for (k, e) in entries {
                let idx = TaskKind::ALL
                    .iter()
                    .position(|t| t == k)
                    .expect("every TaskKind is in ALL");
                out.push_str(&format!("{idx} {}\n", json::to_json_line(e)));
            }
        }
    }
}

fn decode_stage(lines: &mut std::str::Lines) -> Option<StageYield> {
    let rest = lines.next()?.strip_prefix("s ")?;
    if rest == "off" {
        return Some(None);
    }
    if let Some(diag) = rest.strip_prefix("err ") {
        return Some(Some(Err(dda_obs::event::unescape(diag)?)));
    }
    let n: usize = rest.strip_prefix("ok ")?.parse().ok()?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let (idx, body) = lines.next()?.split_once(' ')?;
        let kind = *TaskKind::ALL.get(idx.parse::<usize>().ok()?)?;
        let entry = json::from_jsonl(body).ok()?.pop()?;
        entries.push((kind, entry));
    }
    Some(Some(Ok(entries)))
}

/// Journal codec: a `m`/`e` tag line followed by one stage block per
/// slot. Entry lines reuse the dataset's JSONL codec ([`crate::json`]),
/// diagnostics the JSON string escaping of [`dda_obs::event`], so
/// payloads survive any content.
fn encode_yield(y: &UnitYield) -> String {
    let mut out = String::new();
    match y {
        UnitYield::Module(stages) => {
            out.push_str("m\n");
            for st in stages {
                encode_stage(&mut out, st);
            }
        }
        UnitYield::Eda(st) => {
            out.push_str("e\n");
            encode_stage(&mut out, st);
        }
    }
    out
}

fn decode_yield(payload: &str) -> Option<UnitYield> {
    let mut lines = payload.lines();
    match lines.next()? {
        "m" => {
            let a = decode_stage(&mut lines)?;
            let b = decode_stage(&mut lines)?;
            let c = decode_stage(&mut lines)?;
            Some(UnitYield::Module([a, b, c]))
        }
        "e" => Some(UnitYield::Eda(decode_stage(&mut lines)?)),
        _ => None,
    }
}

/// Runs the full augmentation pipeline on the supervised engine; see the
/// module docs for determinism and accounting semantics. Returns the
/// dataset, the stage-level [`AugmentReport`], and the engine's own
/// [`EngineSummary`] (resume/retry counters).
///
/// # Errors
///
/// Propagates journal IO failures.
pub fn augment_supervised(
    corpus: &[CorpusModule],
    opts: &PipelineOptions,
    sup: &SupervisedOptions,
) -> io::Result<(Dataset, AugmentReport, EngineSummary)> {
    let _run_span = dda_obs::span("pipeline.augment_supervised");
    let units = corpus.len() + 1; // final unit = EDA pool
    let exec = |unit: usize, cancel: &CancelToken| -> Result<UnitYield, UnitError> {
        let mut rng = SmallRng::seed_from_u64(unit_seed(sup.seed, unit));
        let y = if unit < corpus.len() {
            let m = &corpus[unit];
            UnitYield::Module([
                opts.stages
                    .completion
                    .then(|| guarded(|| completion_entries(&m.source, &opts.completion))),
                opts.stages
                    .alignment
                    .then(|| guarded(|| align_entries(&m.source))),
                opts.stages.repair.then(|| {
                    let file = format!("{}.v", m.name);
                    guarded(|| {
                        repair_entries(
                            &file,
                            &m.source,
                            opts.repairs_per_module,
                            &opts.repair,
                            &mut rng,
                        )
                    })
                }),
            ])
        } else {
            UnitYield::Eda(
                opts.stages
                    .eda_script
                    .then(|| guarded(|| generate_eda_entries(opts.eda_scripts, &mut rng))),
            )
        };
        if cancel.is_cancelled() {
            let what = corpus.get(unit).map_or("<eda-pool>", |m| m.name.as_str());
            return Err(UnitError::fatal(format!("{DEADLINE_DIAGNOSTIC} ({what})")));
        }
        Ok(y)
    };
    let engine: EngineReport<UnitYield> = match &sup.journal {
        Some(path) => run_supervised_journaled(
            units,
            &sup.run,
            path,
            sup.resume,
            encode_yield,
            decode_yield,
            exec,
        )?,
        None => run_supervised(units, &sup.run, exec),
    };
    let summary = engine.summary();

    // Assembly: book every unit in id order — the same order, and the
    // same bookkeeping, as the sequential pipeline loop. Being
    // single-threaded and scheduling-independent, it also makes the
    // obs stage counters invariant across worker counts.
    let _assembly_span = dda_obs::span("pipeline.assemble");
    let mut ds = Dataset::new();
    let mut report = AugmentReport {
        modules: corpus.len(),
        ..AugmentReport::default()
    };
    fn tallies(report: &mut AugmentReport, stage: Stage) -> &mut crate::pipeline::StageTally {
        match stage {
            Stage::Completion => &mut report.completion,
            Stage::Alignment => &mut report.alignment,
            _ => &mut report.repair,
        }
    }
    for u in &engine.units {
        if u.unit < corpus.len() {
            let m = &corpus[u.unit];
            let enabled = [
                opts.stages.completion,
                opts.stages.alignment,
                opts.stages.repair,
            ];
            match &u.outcome {
                UnitOutcome::Ok(UnitYield::Module(stages)) => {
                    for (i, stage) in Stage::PER_MODULE.into_iter().enumerate() {
                        match &stages[i] {
                            None => {
                                tallies(&mut report, stage).skipped += 1;
                                obs_stage(stage, &m.name, "skipped", 0);
                            }
                            Some(outcome) => {
                                let mut quarantines = std::mem::take(&mut report.quarantines);
                                book_stage(
                                    outcome.clone(),
                                    m,
                                    stage,
                                    &mut ds,
                                    tallies(&mut report, stage),
                                    &mut quarantines,
                                );
                                report.quarantines = quarantines;
                            }
                        }
                    }
                }
                UnitOutcome::Ok(UnitYield::Eda(_)) => {
                    unreachable!("EDA yield on a module unit")
                }
                // Engine-level quarantine (deadline, exhausted retries):
                // book the whole module as quarantined in every enabled
                // per-module stage so conservation holds.
                UnitOutcome::Quarantined {
                    diagnostic,
                    panicked,
                } => {
                    for (i, stage) in Stage::PER_MODULE.into_iter().enumerate() {
                        if enabled[i] {
                            tallies(&mut report, stage).quarantined += 1;
                            obs_stage(stage, &m.name, "quarantined", 0);
                            report.quarantines.push(QuarantineRecord {
                                module: m.name.clone(),
                                stage,
                                diagnostic: diagnostic.clone(),
                                panicked: *panicked,
                            });
                        } else {
                            tallies(&mut report, stage).skipped += 1;
                            obs_stage(stage, &m.name, "skipped", 0);
                        }
                    }
                }
            }
        } else {
            match &u.outcome {
                UnitOutcome::Ok(UnitYield::Eda(None)) => {
                    report.eda_script.skipped += 1;
                    obs_stage(Stage::EdaScript, "<eda-pool>", "skipped", 0);
                }
                UnitOutcome::Ok(UnitYield::Eda(Some(Ok(entries)))) => {
                    report.eda_script.ok += 1;
                    report.eda_script.entries += entries.len();
                    obs_stage(Stage::EdaScript, "<eda-pool>", "ok", entries.len());
                    for (k, e) in entries {
                        ds.push(*k, e.clone());
                    }
                }
                UnitOutcome::Ok(UnitYield::Eda(Some(Err(diagnostic)))) => {
                    report.eda_script.quarantined += 1;
                    obs_stage(Stage::EdaScript, "<eda-pool>", "quarantined", 0);
                    report.quarantines.push(QuarantineRecord {
                        module: "<eda-pool>".to_string(),
                        stage: Stage::EdaScript,
                        diagnostic: diagnostic.clone(),
                        panicked: true,
                    });
                }
                UnitOutcome::Ok(UnitYield::Module(_)) => {
                    unreachable!("module yield on the EDA unit")
                }
                UnitOutcome::Quarantined {
                    diagnostic,
                    panicked,
                } => {
                    report.eda_script.quarantined += 1;
                    obs_stage(Stage::EdaScript, "<eda-pool>", "quarantined", 0);
                    report.quarantines.push(QuarantineRecord {
                        module: "<eda-pool>".to_string(),
                        stage: Stage::EdaScript,
                        diagnostic: diagnostic.clone(),
                        panicked: *panicked,
                    });
                }
            }
        }
    }

    if opts.recycle_quarantined {
        recycle_quarantines(corpus, &mut report, &mut ds);
    }
    ds.trim_by_token_len(opts.max_entry_tokens);
    Ok((ds, report, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StageSet;

    fn corpus(n: usize, seed: u64) -> Vec<CorpusModule> {
        dda_corpus::generate_corpus(n, &mut SmallRng::seed_from_u64(seed))
    }

    fn opts() -> PipelineOptions {
        PipelineOptions {
            repairs_per_module: 1,
            eda_scripts: 4,
            ..PipelineOptions::default()
        }
    }

    #[test]
    fn identical_output_for_any_worker_count() {
        let c = corpus(8, 1);
        let base = augment_supervised(&c, &opts(), &SupervisedOptions::default()).unwrap();
        for workers in [2, 8] {
            let sup = SupervisedOptions {
                run: RunOptions {
                    workers,
                    ..RunOptions::default()
                },
                ..SupervisedOptions::default()
            };
            let got = augment_supervised(&c, &opts(), &sup).unwrap();
            assert_eq!(got.0, base.0, "workers={workers}");
            assert_eq!(got.1, base.1, "workers={workers}");
        }
        assert!(base.1.is_conserved());
        assert!(base.1.quarantines.is_empty());
    }

    #[test]
    fn stage_toggles_are_respected() {
        let c = corpus(5, 3);
        let sup = SupervisedOptions::default();
        let (ds, report, _) = augment_supervised(
            &c,
            &PipelineOptions {
                stages: StageSet::GENERAL_AUG,
                ..opts()
            },
            &sup,
        )
        .unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.alignment.skipped, 5);
        assert_eq!(report.repair.skipped, 5);
        assert_eq!(report.eda_script.skipped, 1);
        assert!(ds.entries(TaskKind::NlVerilogGeneration).is_empty());
        assert!(!ds.entries(TaskKind::WordLevelCompletion).is_empty());
    }

    #[test]
    fn broken_modules_quarantine_and_conserve_with_parallel_workers() {
        let mut c = corpus(6, 5);
        let half = c[2].source.len() / 2;
        c[2].source.truncate(half);
        let sup = SupervisedOptions {
            run: RunOptions {
                workers: 4,
                ..RunOptions::default()
            },
            ..SupervisedOptions::default()
        };
        let (_, report, summary) = augment_supervised(&c, &opts(), &sup).unwrap();
        assert!(report.is_conserved(), "{report:?}");
        assert!(report
            .quarantines
            .iter()
            .any(|q| q.module == c[2].name && q.stage == Stage::Alignment));
        // Stage-level quarantines are caught inside the unit; the engine
        // itself saw every unit succeed.
        assert_eq!(summary.quarantined, 0);
        assert_eq!(summary.ok, c.len() + 1);
    }

    #[test]
    fn yield_codec_round_trips() {
        let entries = vec![
            (
                TaskKind::VerilogDebug,
                DataEntry::new("fix", "module m;\nendmodule", "line 1: \"broken\""),
            ),
            (
                TaskKind::WordLevelCompletion,
                DataEntry::new("c", "a\\b", ""),
            ),
        ];
        let yields = [
            UnitYield::Module([
                Some(Ok(entries.clone())),
                Some(Err("panic: multi\nline \"diag\"".into())),
                None,
            ]),
            UnitYield::Eda(Some(Ok(entries))),
            UnitYield::Eda(None),
        ];
        for y in &yields {
            let enc = encode_yield(y);
            let dec = decode_yield(&enc).expect("decodes");
            assert_eq!(encode_yield(&dec), enc);
        }
        assert!(decode_yield("bogus").is_none());
    }

    #[test]
    fn journaled_run_resumes_to_identical_output() {
        let mut path = std::env::temp_dir();
        path.push(format!("dda-core-sup-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let c = corpus(6, 7);
        let sup = SupervisedOptions {
            journal: Some(path.clone()),
            ..SupervisedOptions::default()
        };
        let full = augment_supervised(&c, &opts(), &sup).unwrap();

        // Truncate the journal to simulate an interruption after 3 units.
        let kept: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .take(3)
            .map(str::to_owned)
            .collect();
        std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();

        let resumed = augment_supervised(
            &c,
            &opts(),
            &SupervisedOptions {
                resume: true,
                ..sup
            },
        )
        .unwrap();
        assert_eq!(resumed.0, full.0);
        assert_eq!(resumed.1, full.1);
        assert_eq!(resumed.2.resumed, 3);
        std::fs::remove_file(&path).ok();
    }
}
