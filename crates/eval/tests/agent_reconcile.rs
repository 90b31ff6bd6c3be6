//! Span ↔ outcome reconciliation for the parallel agent batch: one trace
//! file plus the counter registry reconcile exactly with the returned
//! [`dda_eval::AgentBatchOutcome`] (rounds, chains, winner).
//!
//! The recorder is process-global, so this is one test in its own
//! integration binary: no other test's batches can land in its counters.

use dda_benchmarks::thakur_suite;
use dda_eval::{agent_batch, AgentBatchOptions, AgentProtocol, ModelId, ModelZoo, ZooOptions};

/// One trace file reconciles an entire agent run: counters and trace
/// events must agree exactly with the returned outcome.
#[test]
fn spans_and_counters_reconcile_with_outcome() {
    let model = ModelZoo::build(&ZooOptions {
        corpus_modules: 24,
        ..ZooOptions::default()
    });
    dda_obs::reset();
    dda_obs::enable();
    let trace = std::env::temp_dir().join(format!("agent_recon_{}.jsonl", std::process::id()));
    dda_obs::open_trace(&trace).expect("open trace");

    let suite = thakur_suite();
    let problem = &suite[1];
    let o = AgentBatchOptions {
        k: 3,
        workers: 2,
        early_exit: false,
        protocol: AgentProtocol {
            max_feedback_iters: 2,
            ..AgentProtocol::default()
        },
        ..AgentBatchOptions::default()
    };
    let out = agent_batch(model.model(ModelId::Ours13B), problem, 2, &[], &o);

    let snap = dda_obs::snapshot();
    dda_obs::close_trace().expect("close trace");
    dda_obs::disable();

    // Counters ↔ outcome. Early-exit is off, so every chain committed:
    // started = k, passed + failed = k, cancelled = 0, and the round
    // counter is exactly the outcome's deterministic work measure.
    let k = o.k as u64;
    assert_eq!(snap.counter("agent.chain.started"), k);
    assert_eq!(
        snap.counter("agent.chain.passed") + snap.counter("agent.chain.failed"),
        k
    );
    assert_eq!(snap.counter("agent.chain.cancelled"), 0);
    assert_eq!(snap.counter("agent.round"), out.rounds_total as u64);

    // Span aggregates ↔ outcome: one agent.batch span, k agent.chain
    // spans, rounds_total agent.round spans.
    assert_eq!(snap.span("agent.batch").expect("batch span").count, 1);
    assert_eq!(snap.span("agent.chain").expect("chain span").count, k);
    assert_eq!(
        snap.span("agent.round").expect("round span").count,
        out.rounds_total as u64
    );

    // Trace events ↔ outcome.
    let events = dda_obs::read_trace(&trace).expect("read trace");
    let rounds: Vec<_> = events.iter().filter(|e| e.kind == "agent.round").collect();
    let chains: Vec<_> = events.iter().filter(|e| e.kind == "agent.chain").collect();
    let batches: Vec<_> = events.iter().filter(|e| e.kind == "agent.batch").collect();
    assert_eq!(rounds.len(), out.rounds_total, "one event per round");
    assert_eq!(chains.len(), out.chains.len(), "one event per chain");
    assert_eq!(batches.len(), 1, "one event per batch");

    for c in &out.chains {
        let ev = chains
            .iter()
            .find(|e| e.field("chain").and_then(|v| v.as_u64()) == Some(c.chain as u64))
            .expect("chain event present");
        assert_eq!(
            ev.field("rounds").and_then(|v| v.as_u64()),
            Some(c.rounds as u64),
            "chain {} rounds in trace",
            c.chain
        );
        let per_chain_rounds = rounds
            .iter()
            .filter(|e| e.field("chain").and_then(|v| v.as_u64()) == Some(c.chain as u64))
            .count();
        assert_eq!(per_chain_rounds, c.rounds, "chain {} round events", c.chain);
    }

    let batch = batches[0];
    assert_eq!(batch.field("k").and_then(|v| v.as_u64()), Some(k));
    assert_eq!(
        batch.field("rounds_total").and_then(|v| v.as_u64()),
        Some(out.rounds_total as u64)
    );
    assert_eq!(
        batch.field("winner").and_then(|v| v.as_u64()),
        out.winner.map(|w| w as u64)
    );

    let _ = std::fs::remove_file(&trace);
}
