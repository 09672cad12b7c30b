//! Online/offline differential harness — the headline artifact of the
//! serving frontend.
//!
//! For arbitrary sorted arrival traces the online [`OnlineServer`] event
//! loop must reproduce the offline path (`BatchScheduler::plan()` +
//! `BatchedDataflowExecutor::execute_plan()`) *bit for bit*: identical
//! token streams per sequence, identical per-round slot assignments
//! ([`RoundPlan`] log), and identical virtual completion times. Tokens
//! agree by construction (sequences share no arithmetic); the plan and
//! timing comparisons are the strong property — they prove the online
//! incremental scheduler makes exactly the decisions the offline planner
//! makes with the whole trace in hand.
//!
//! Also here: admission-queue properties (backpressure never drops an
//! admitted sequence; queue-full rejection is typed, not a panic) and
//! cancellation properties (KV slots freed exactly once; cancelling one
//! sequence never perturbs another's stream).
//!
//! Run with `cargo test -p hnlpu-integration --test online_differential`; the
//! streams are bit-exact at every worker count (see `hnlpu-llm`'s
//! `rounds_are_bitwise_per_sequence_runs_at_every_worker_count`).

use hnlpu::llm::serve::{OnlineServer, SeqState, ServeError};
use hnlpu::llm::{BatchedDataflowExecutor, DataflowExecutor, SequenceRequest};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use hnlpu::sim::{BatchScheduler, SimConfig, WorkloadKind, WorkloadSpec};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One weight materialization serves every case; each server gets its own
/// executor around a clone (KV state is per-slot, weights are shared-read).
fn weights() -> &'static ModelWeights {
    static WEIGHTS: OnceLock<ModelWeights> = OnceLock::new();
    WEIGHTS.get_or_init(|| {
        let card = zoo::dataflow_test_model();
        ModelWeights::materialize(&card.config, &WeightGenerator::new(2026))
    })
}

fn engine() -> BatchedDataflowExecutor {
    BatchedDataflowExecutor::new(DataflowExecutor::new(weights().clone()), 216)
}

fn scheduler() -> BatchScheduler {
    BatchScheduler::new(SimConfig::paper_default(), 2048)
}

/// Sorted-by-arrival greedy requests from proptest specs.
fn requests_from(specs: &[(Vec<u32>, u32, u64)]) -> Vec<SequenceRequest> {
    let mut sorted = specs.to_vec();
    sorted.sort_by_key(|&(_, _, arrival)| arrival);
    sorted
        .into_iter()
        .map(|(prompt, decode, arrival)| SequenceRequest::greedy(arrival, prompt, decode))
        .collect()
}

/// Run the offline path: plan the whole trace, replay it.
fn offline(
    requests: &[SequenceRequest],
) -> (
    Vec<Vec<u32>>,
    Vec<hnlpu::sim::RoundPlan>,
    Vec<f64>, // finish times, sorted
) {
    let sched = scheduler();
    let sim_reqs: Vec<_> = requests
        .iter()
        .map(SequenceRequest::to_sim_request)
        .collect();
    let (timing, plans) = sched.plan(&sim_reqs);
    let run = engine()
        .execute_plan(requests, &plans)
        .expect("offline plan executes");
    let mut finish: Vec<f64> = timing.completions.iter().map(|c| c.finish_s).collect();
    finish.sort_by(f64::total_cmp);
    (run.outputs, plans, finish)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE differential property: online incremental scheduling produces
    /// bit-identical token streams, round plans, and completion times to
    /// offline whole-trace planning.
    #[test]
    fn online_run_is_bit_identical_to_offline_replay(
        specs in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..6), 0u32..8, 0u64..5_000_000),
            1..6,
        ),
    ) {
        let requests = requests_from(&specs);
        let (offline_outputs, offline_plans, offline_finish) = offline(&requests);

        let mut server = OnlineServer::new(engine(), &scheduler(), requests.len())
            .expect("slots fit");
        let outcome = server.run_trace(&requests, &[]);
        prop_assert!(outcome.submissions.iter().all(Result::is_ok));

        prop_assert_eq!(&outcome.report.plans, &offline_plans);
        prop_assert_eq!(outcome.report.outcomes.len(), offline_outputs.len());
        for (out, offline_out) in outcome.report.outcomes.iter().zip(&offline_outputs) {
            prop_assert_eq!(&out.tokens, offline_out);
            prop_assert_eq!(out.state, SeqState::Finished);
        }
        let mut online_finish: Vec<f64> = outcome
            .report
            .outcomes
            .iter()
            .filter_map(|o| o.finish_s)
            .collect();
        online_finish.sort_by(f64::total_cmp);
        prop_assert_eq!(online_finish, offline_finish);
    }

    /// Backpressure property: whatever the queue capacity, every ACCEPTED
    /// submission runs to completion — backpressure may reject at the
    /// door, but it never drops a sequence it admitted. Rejections are
    /// typed `QueueFull`, never a panic, and are counted exactly.
    #[test]
    fn backpressure_never_drops_an_admitted_sequence(
        specs in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..4), 1u32..5, 0u64..2_000_000),
            1..8,
        ),
        capacity in 0usize..4,
    ) {
        let requests = requests_from(&specs);
        let mut server =
            OnlineServer::new(engine(), &scheduler(), capacity).expect("slots fit");
        let outcome = server.run_trace(&requests, &[]);

        let mut rejected = 0usize;
        for sub in &outcome.submissions {
            match sub {
                Ok(id) => {
                    let out = &outcome.report.outcomes[id.0];
                    prop_assert_eq!(out.state, SeqState::Finished);
                    prop_assert_eq!(out.slot_frees, 1);
                    prop_assert!(out.ttft_s.is_some() || out.tokens.is_empty());
                }
                Err(ServeError::QueueFull { capacity: c }) => {
                    prop_assert_eq!(*c, capacity);
                    rejected += 1;
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
        prop_assert_eq!(outcome.report.slo.rejected, rejected);
        prop_assert_eq!(
            outcome.report.slo.completed + rejected,
            requests.len()
        );
    }

    /// Cancellation properties: a cancelled sequence frees its KV slot
    /// exactly once (zero times if still queued) and never perturbs the
    /// token streams of the surviving sequences.
    #[test]
    fn cancellation_frees_slots_once_and_never_perturbs_survivors(
        specs in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..5), 1u32..6, 0u64..4_000_000),
            2..6,
        ),
        cancels in prop::collection::vec((0u64..6_000_000, 0usize..6), 0..4),
    ) {
        let requests = requests_from(&specs);
        let cancels: Vec<(u64, usize)> = cancels
            .into_iter()
            .filter(|&(_, i)| i < requests.len())
            .collect();

        // Baseline run without cancellation.
        let mut baseline =
            OnlineServer::new(engine(), &scheduler(), requests.len()).expect("fits");
        let base = baseline.run_trace(&requests, &[]);

        let mut server =
            OnlineServer::new(engine(), &scheduler(), requests.len()).expect("fits");
        let outcome = server.run_trace(&requests, &cancels);

        for (out, base_out) in outcome.report.outcomes.iter().zip(&base.report.outcomes) {
            match out.state {
                SeqState::Finished => {
                    // Survivors stream exactly the baseline tokens.
                    prop_assert_eq!(&out.tokens, &base_out.tokens);
                    prop_assert_eq!(out.slot_frees, 1);
                }
                SeqState::Cancelled => {
                    // Freed exactly once if it ever held a slot.
                    let expected = u32::from(out.admitted_s.is_some());
                    prop_assert_eq!(out.slot_frees, expected);
                    // Whatever it streamed before cancellation is a
                    // prefix of the baseline stream.
                    prop_assert!(out.tokens.len() <= base_out.tokens.len());
                    prop_assert_eq!(
                        &out.tokens[..],
                        &base_out.tokens[..out.tokens.len()]
                    );
                }
                other => prop_assert!(false, "non-terminal final state {other:?}"),
            }
        }
        prop_assert_eq!(
            outcome.report.slo.completed + outcome.report.slo.cancelled,
            requests.len()
        );
    }
}

/// A real arrival process end to end: a seeded `sim::workload` trace
/// (diurnal Poisson arrivals) drives the online server and must replay
/// the offline plan bit for bit. Prompts/decodes are shrunk to the test
/// model's scale; the *arrival process* is the workload's own.
#[test]
fn workload_trace_online_matches_offline() {
    let spec = WorkloadSpec {
        kind: WorkloadKind::DiurnalChat,
        requests: 48,
        arrivals_per_s: 200.0,
        seed: 7,
    };
    let requests: Vec<SequenceRequest> = spec
        .generate_with_seed(7)
        .iter()
        .map(|r| {
            let len = 1 + (r.prompt_tokens as usize % 4);
            let prompt: Vec<u32> = (0..len)
                .map(|i| (r.prompt_tokens + i as u32) % 128)
                .collect();
            SequenceRequest::greedy(r.arrival_s_micros, prompt, 1 + r.decode_tokens % 5)
        })
        .collect();
    let (offline_outputs, offline_plans, offline_finish) = offline(&requests);

    let mut server = OnlineServer::new(engine(), &scheduler(), requests.len()).expect("fits");
    let outcome = server.run_trace(&requests, &[]);
    assert!(outcome.submissions.iter().all(Result::is_ok));
    assert_eq!(outcome.report.plans, offline_plans);
    for (out, offline_out) in outcome.report.outcomes.iter().zip(&offline_outputs) {
        assert_eq!(&out.tokens, offline_out);
    }
    let mut online_finish: Vec<f64> = outcome
        .report
        .outcomes
        .iter()
        .filter_map(|o| o.finish_s)
        .collect();
    online_finish.sort_by(f64::total_cmp);
    assert_eq!(online_finish, offline_finish);
    // The trace replays: a second identical server agrees with itself.
    let mut replay = OnlineServer::new(engine(), &scheduler(), requests.len()).expect("fits");
    let again = replay.run_trace(&requests, &[]);
    assert_eq!(again.report.plans, outcome.report.plans);
    assert_eq!(again.report.slo, outcome.report.slo);
}

/// Queue-full rejection is a typed error even under a zero-capacity
/// queue — the degenerate configuration must not panic.
#[test]
fn zero_capacity_queue_rejects_everything_typed() {
    let mut server = OnlineServer::new(engine(), &scheduler(), 0).expect("fits");
    let outcome = server.run_trace(
        &[
            SequenceRequest::greedy(0, vec![1], 2),
            SequenceRequest::greedy(10, vec![2], 2),
        ],
        &[],
    );
    assert!(outcome
        .submissions
        .iter()
        .all(|s| matches!(s, Err(ServeError::QueueFull { capacity: 0 }))));
    assert_eq!(outcome.report.slo.rejected, 2);
    assert_eq!(outcome.report.slo.rounds, 0);
}
