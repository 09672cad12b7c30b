//! Chaos differential harness — the headline artifact of the fault layer.
//!
//! For arbitrary request traces under arbitrary seeded [`FaultPlan`]s the
//! online server must degrade *gracefully and deterministically*: every
//! sequence that finishes streams tokens bit-identical to the fault-free
//! baseline (remapping a dead chip's row-partitions changes hosting, never
//! arithmetic; re-prefilling an evicted sequence resumes token-exact),
//! every partially-served sequence's stream is a prefix of the baseline's,
//! every KV slot is freed exactly once per admission, every retirement is
//! a typed error, and replaying the same seed reproduces the run byte for
//! byte.
//!
//! Also here (satellite): cancellation mid-prefill against the panel path
//! (`prefill_chunked`). A victim whose prompt exceeds the 216-token round
//! budget is cancelled with its panel context half-built; the harness pins
//! that the slot is freed exactly once, survivors' streams are untouched,
//! and the slot is reusable bit-exactly.
//!
//! Run with `cargo test -p hnlpu-integration --test chaos_differential`; the
//! streams are bit-exact at every worker count (see `hnlpu-llm`'s
//! `rounds_are_bitwise_per_sequence_runs_at_every_worker_count`).

use hnlpu::llm::fault::{ChaosSpec, FaultPlan};
use hnlpu::llm::serve::{OnlineServer, SeqState, ServeError};
use hnlpu::llm::{BatchedDataflowExecutor, DataflowExecutor, SequenceRequest};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use hnlpu::sim::{BatchScheduler, SimConfig};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE chaos differential: under a seeded plan of chip kills,
    /// stragglers, link faults, and deadlines, survivors stream the
    /// fault-free tokens bit for bit, every stream is a baseline prefix,
    /// slots are freed exactly once per admission, retirements are typed,
    /// the SLO ledger reconciles, and the run replays exactly.
    #[test]
    fn chaos_runs_degrade_gracefully_and_replay_exactly(
        specs in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..6), 1u32..8, 0u64..2_000_000),
            2..6,
        ),
        seed in 0u64..1_000_000,
        kills in 0usize..3,
        stragglers in 0usize..3,
        links in 0usize..2,
        deadlines in 0usize..3,
    ) {
        let requests = requests_from(&specs);
        let plan = FaultPlan::seeded(seed, &ChaosSpec {
            horizon_micros: 3_000_000,
            submissions: requests.len(),
            chip_failures: kills,
            stragglers,
            link_faults: links,
            deadlines,
            min_deadline_micros: 2_000,
        });
        plan.validate().expect("seeded plans validate");

        // Fault-free baseline: queue holds the whole trace, so both runs
        // accept every submission and SeqIds line up by index.
        let mut baseline =
            OnlineServer::new(engine(), &scheduler(), requests.len()).expect("fits");
        let base = baseline.run_trace(&requests, &[]);
        prop_assert!(base.submissions.iter().all(Result::is_ok));

        let mut chaos = OnlineServer::with_faults(
            engine(), &scheduler(), requests.len(), plan.clone(),
        ).expect("seeded plan is valid");
        let outcome = chaos.run_trace(&requests, &[]);
        prop_assert!(outcome.submissions.iter().all(Result::is_ok));

        for (out, base_out) in outcome.report.outcomes.iter().zip(&base.report.outcomes) {
            // Slot hygiene: freed exactly once per admission, always.
            prop_assert_eq!(out.slot_frees, out.admissions);
            // Graceful degradation never invents tokens: every stream is
            // a prefix of the fault-free stream.
            prop_assert!(out.tokens.len() <= base_out.tokens.len());
            prop_assert_eq!(&out.tokens[..], &base_out.tokens[..out.tokens.len()]);
            match out.state {
                SeqState::Finished => {
                    // Survivors — including evicted-and-recovered ones —
                    // resume token-exact.
                    prop_assert_eq!(&out.tokens, &base_out.tokens);
                    prop_assert!(out.error.is_none());
                }
                SeqState::DeadlineMissed => prop_assert!(
                    matches!(out.error, Some(ServeError::Deadline { .. })),
                    "deadline retirement must carry a typed error"
                ),
                SeqState::Shed => prop_assert!(
                    matches!(out.error, Some(ServeError::Shed { .. })),
                    "load shedding must carry a typed error"
                ),
                SeqState::ChipLost => prop_assert!(
                    matches!(out.error, Some(ServeError::ChipLost { .. })),
                    "recovery exhaustion must carry a typed error"
                ),
                other => prop_assert!(false, "non-terminal final state {other:?}"),
            }
        }

        // The SLO ledger reconciles: every accepted submission retires in
        // exactly one bucket, and the buckets match the outcome states.
        let slo = &outcome.report.slo;
        prop_assert_eq!(slo.submitted, requests.len());
        prop_assert_eq!(slo.rejected, 0);
        prop_assert_eq!(
            slo.completed + slo.cancelled + slo.shed + slo.deadline_missed + slo.chip_lost,
            slo.submitted
        );
        let count =
            |s: SeqState| outcome.report.outcomes.iter().filter(|o| o.state == s).count();
        prop_assert_eq!(count(SeqState::Finished), slo.completed);
        prop_assert_eq!(count(SeqState::DeadlineMissed), slo.deadline_missed);
        prop_assert_eq!(count(SeqState::Shed), slo.shed);
        prop_assert_eq!(count(SeqState::ChipLost), slo.chip_lost);
        // Every eviction is accounted: resumed or abandoned (an evicted
        // sequence retired by its deadline closes neither bucket).
        prop_assert!(slo.recovery.resumed + slo.recovery.failed <= slo.recovery.evictions);
        prop_assert!(slo.chip_failures <= kills);

        // Determinism: the same seed replays byte for byte.
        let mut replay = OnlineServer::with_faults(
            engine(), &scheduler(), requests.len(), plan,
        ).expect("valid");
        let again = replay.run_trace(&requests, &[]);
        prop_assert_eq!(&again.report.slo, slo);
        prop_assert_eq!(&again.report.plans, &outcome.report.plans);
        for (a, b) in again.report.outcomes.iter().zip(&outcome.report.outcomes) {
            prop_assert_eq!(&a.tokens, &b.tokens);
            prop_assert_eq!(a.state, b.state);
            prop_assert_eq!(a.finish_s, b.finish_s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cancellation mid-prefill against the panel path: the victim's
    /// prompt exceeds the 216-token round budget, so after one round its
    /// panel context is half-built (`prefill_chunked` has consumed one
    /// panel, not the prompt). Cancelling there must free the KV slot
    /// exactly once, leave every survivor's stream bit-identical to the
    /// no-cancel baseline, and leave the slot reusable bit-exactly.
    #[test]
    fn cancel_mid_prefill_frees_the_slot_once_and_never_perturbs_survivor_panels(
        victim_len in 220usize..300,
        survivors in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..5), 1u32..6),
            1..4,
        ),
        decode in 1u32..4,
    ) {
        let victim_prompt: Vec<u32> =
            (0..victim_len).map(|i| (i as u32 * 7 + 3) % 128).collect();
        let mut requests = vec![SequenceRequest::greedy(0, victim_prompt.clone(), decode)];
        for (prompt, d) in &survivors {
            requests.push(SequenceRequest::greedy(0, prompt.clone(), *d));
        }
        let sched = scheduler();
        // Lands after exactly one pipeline round: the victim (admitted
        // first, FCFS) has prefilled one 216-token panel of its longer
        // prompt and is still `Prefilling`.
        let cancel_at = (0.5 * sched.round_s() * 1e6) as u64;

        let mut baseline =
            OnlineServer::new(engine(), &scheduler(), requests.len()).expect("fits");
        let base = baseline.run_trace(&requests, &[]);

        let mut server =
            OnlineServer::new(engine(), &scheduler(), requests.len()).expect("fits");
        let outcome = server.run_trace(&requests, &[(cancel_at, 0)]);
        prop_assert!(outcome.submissions.iter().all(Result::is_ok));

        let victim = &outcome.report.outcomes[0];
        prop_assert_eq!(victim.state, SeqState::Cancelled);
        prop_assert!(victim.admitted_s.is_some(), "victim was resident when cancelled");
        prop_assert!(victim.tokens.is_empty(), "cancelled before prefill completed");
        prop_assert_eq!(victim.slot_frees, 1);
        prop_assert_eq!(victim.admissions, 1);

        for (out, base_out) in
            outcome.report.outcomes.iter().zip(&base.report.outcomes).skip(1)
        {
            prop_assert_eq!(out.state, SeqState::Finished);
            prop_assert_eq!(&out.tokens, &base_out.tokens);
            prop_assert_eq!(out.slot_frees, 1);
        }
        prop_assert_eq!(
            outcome.report.slo.completed + outcome.report.slo.cancelled,
            requests.len()
        );

        // The freed slot is reusable bit-exactly: resubmitting the
        // victim's request reproduces the baseline stream from a slot
        // whose previous occupant died mid-panel.
        let retry = SequenceRequest::greedy(60_000_000, victim_prompt, decode);
        let rid = server.submit(retry).expect("slot is reusable after cancel");
        server.run_until_idle();
        prop_assert_eq!(server.state_of(rid), Some(SeqState::Finished));
        prop_assert_eq!(
            server.tokens_of(rid).expect("resubmitted sequence streams"),
            &base.report.outcomes[0].tokens[..]
        );
    }
}

/// An empty plan is not merely equivalent — the whole run is bit-identical
/// to a server built without the fault machinery in the loop: same round
/// plans, same SLO report, same token streams, same timestamps.
#[test]
fn empty_plan_run_is_bit_identical_to_plain_server() {
    let requests = vec![
        SequenceRequest::greedy(0, vec![5, 9, 2], 4),
        SequenceRequest::greedy(1_000, vec![7], 3),
        SequenceRequest::greedy(400_000, vec![1, 2, 3, 4], 2),
    ];
    let mut plain = OnlineServer::new(engine(), &scheduler(), requests.len()).expect("fits");
    let a = plain.run_trace(&requests, &[]);
    let mut gated =
        OnlineServer::with_faults(engine(), &scheduler(), requests.len(), FaultPlan::none())
            .expect("empty plan is valid");
    let b = gated.run_trace(&requests, &[]);
    assert_eq!(a.report.plans, b.report.plans);
    assert_eq!(a.report.slo, b.report.slo);
    for (x, y) in a.report.outcomes.iter().zip(&b.report.outcomes) {
        assert_eq!(x.tokens, y.tokens);
        assert_eq!(x.state, y.state);
        assert_eq!(x.finish_s, y.finish_s);
        assert_eq!(x.ttft_s, y.ttft_s);
    }
}

/// A concrete heavy chaos run (kills + stragglers + link faults +
/// deadlines all active) replays byte for byte and reconciles — the
/// anchor the CI smoke step mirrors inside `serving_simulator`.
#[test]
fn seeded_heavy_chaos_trace_replays_byte_for_byte() {
    let requests: Vec<SequenceRequest> = (0..12)
        .map(|i| {
            let prompt: Vec<u32> = (0..=(i % 4) as u32)
                .map(|t| (i as u32 * 13 + t) % 128)
                .collect();
            SequenceRequest::greedy(i as u64 * 150_000, prompt, 2 + i as u32 % 6)
        })
        .collect();
    let plan = FaultPlan::seeded(
        42,
        &ChaosSpec {
            horizon_micros: 2_000_000,
            submissions: requests.len(),
            chip_failures: 2,
            stragglers: 2,
            link_faults: 1,
            deadlines: 3,
            min_deadline_micros: 5_000,
        },
    );
    let run = |plan: FaultPlan| {
        let mut server =
            OnlineServer::with_faults(engine(), &scheduler(), requests.len(), plan).expect("valid");
        server.run_trace(&requests, &[])
    };
    let first = run(plan.clone());
    let second = run(plan);
    assert_eq!(first.report.slo, second.report.slo);
    assert_eq!(first.report.plans, second.report.plans);
    let slo = &first.report.slo;
    assert_eq!(
        slo.completed + slo.cancelled + slo.shed + slo.deadline_missed + slo.chip_lost,
        slo.submitted
    );
    assert_eq!(slo.chip_failures, 2);
    assert!(
        slo.degraded_rounds > 0,
        "two kills inside the trace degrade rounds"
    );
}
