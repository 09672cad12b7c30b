//! The program's own stage spans, read through the public surface: after a
//! short seeded trace, `OnlineServer::stage_nanos` holds host time for
//! every stage of the block, and the spans nest as `telemetry` documents
//! (the named stages within a worker's share, a worker's share within its
//! rounds).
//!
//! The server deals each round over `available_parallelism()` workers;
//! twelve requests arriving together give every round more work items than
//! a multi-core host has workers, so the sum runs over several arenas. The
//! explicit worker-count sweep is `hnlpu-llm`'s unit test
//! `stage_spans_nest_in_every_arena_at_every_worker_count`.

use hnlpu::llm::{
    BatchedDataflowExecutor, DataflowExecutor, OnlineServer, SequenceRequest, Stage, StageNanos,
};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use hnlpu::sim::{BatchScheduler, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn a_served_trace_times_every_stage_and_the_spans_nest() {
    let card = zoo::dataflow_test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(2026));
    let engine = BatchedDataflowExecutor::new(DataflowExecutor::new(weights), 216);
    let scheduler = BatchScheduler::new(SimConfig::paper_default(), 2048);
    let vocab = u32::try_from(card.config.vocab_size).expect("vocabulary fits u32");
    let mut rng = StdRng::seed_from_u64(41);
    let requests: Vec<SequenceRequest> = (0..12u64)
        .map(|i| {
            let len = rng.gen_range(2..24);
            let prompt = (0..len).map(|_| rng.gen_range(0..vocab)).collect();
            SequenceRequest::greedy(i * 100, prompt, rng.gen_range(2..8))
        })
        .collect();
    let mut server =
        OnlineServer::new(engine, &scheduler, requests.len()).expect("216 slots fit the pool");
    let outcome = server.run_trace(&requests, &[]);
    assert!(outcome.submissions.iter().all(Result::is_ok));

    let spans: StageNanos = server.stage_nanos();
    let named: Vec<Stage> = (Stage::ALL.into_iter())
        .filter(|stage| !matches!(stage, Stage::Worker | Stage::Round))
        .collect();
    assert_eq!(
        named.len(),
        5,
        "projections, attention, expert matmuls, SwiGLU, unembed"
    );
    // Every request prefills and decodes, so every named stage runs.
    for &stage in &named {
        assert!(spans.get(stage) > 0, "{} recorded no time", stage.name());
    }
    let named_ns: u64 = named.iter().map(|&stage| spans.get(stage)).sum();
    let worker = spans.get(Stage::Worker);
    let round = spans.get(Stage::Round);
    assert!(
        named_ns <= worker,
        "named stages {named_ns} ns > worker {worker} ns"
    );
    assert!(worker <= round, "worker {worker} ns > round {round} ns");
}
